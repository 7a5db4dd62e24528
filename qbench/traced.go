package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// perLayer lists every per-layer metric with its unit; a traced run prints
// all of them, 0 for a layer the workload does not reach.
var perLayer = []struct{ name, unit string }{
	{"service.predict.handler_p50_us", "us"}, {"service.predict.handler_p99_us", "us"},
	{"service.predict_batch.handler_p50_us", "us"}, {"service.predict_batch.handler_p99_us", "us"},
	{"service.observe.handler_p50_us", "us"}, {"service.observe.handler_p99_us", "us"},
	{"service.predictwait.handler_p50_us", "us"}, {"service.predictwait.handler_p99_us", "us"},
	{"service.admit.handler_p50_us", "us"}, {"service.admit.handler_p99_us", "us"},
	{"service.serve_http_us", "us"}, {"service.decode_us", "us"}, {"service.encode_us", "us"},
	{"service.transport_us", "us"},
	{"core.predict_us", "us"}, {"core.predict_batch_us_per_job", "us"}, {"core.observe_us", "us"},
	{"core.predict_hit_ratio", "ratio"}, {"core.allocs_per_predict", "count"},
	{"histstore.get_p50_us", "us"}, {"histstore.insert_p50_us", "us"}, {"histstore.insert_p99_us", "us"},
	{"histstore.wal_bytes_per_observe", "bytes"}, {"histstore.categories", "count"}, {"histstore.points", "count"},
	{"accuracy.record_us", "us"}, {"accuracy.shadow_observe_us", "us"},
	{"waitpred.self_ms", "ms"}, {"waitpred.predict_calls_per_wait", "count"},
	{"sched.pick_us", "us"}, {"sched.picks_per_wait", "count"},
	{"admission.evaluate_ms", "ms"}, {"admission.shed_ratio", "ratio"},
	{"sim.self_s", "s"}, {"sim.events_per_s", "1/s"},
	{"workload.generate_s", "s"}, {"workload.snapshot_s", "s"},
	{"loadgen.lag_p99_ms", "ms"}, {"trace.overhead_frac", "ratio"}, {"layers.unexplained_frac", "ratio"},
}

// endpoints are the service endpoints whose handler latency is reported.
var endpoints = []string{"predict", "predict_batch", "observe", "predictwait", "admit"}

// publish writes every per-layer metric, taking values from got.
func publish(rep *report, got map[string]float64, notes map[string]string) {
	for _, m := range perLayer {
		rep.set(m.name, m.unit, got[m.name], notes[m.name])
	}
}

// caller makes the direct, optionally span-timed, calls into each layer
// that the service makes for one request.
type caller struct {
	e         *env
	rec       *recorder // nil: untimed
	pol       sim.Policy
	pred      predict.Predictor
	adm       *admission.Controller
	batchJobs int
}

func newCaller(e *env, rec *recorder) (*caller, error) {
	c := &caller{e: e, rec: rec, pol: sched.Backfill{}, pred: e.pred}
	if rec != nil {
		c.pol = tracedPolicy{inner: c.pol, rec: rec}
		c.pred = tracedPredictor{inner: e.pred, rec: rec}
	}
	if e.admit {
		ctrl, err := admission.New(admissionConfig(e.w, c.pol, c.pred))
		if err != nil {
			return nil, err
		}
		c.adm = ctrl
	}
	return c, nil
}

func (c *caller) decode(body []byte, v interface{}) error {
	done := c.rec.span("service.decode")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	done()
	return err
}

func (c *caller) encode(v interface{}) ([]byte, error) {
	done := c.rec.span("service.encode")
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	done()
	return buf.Bytes(), err
}

// call answers r the way the service's handler does, one layer call at a
// time, and returns the encoded response.
func (c *caller) call(ctx context.Context, r *request) ([]byte, error) {
	e := c.e
	servedBy := ""
	if e.srv.Reselector() != nil {
		servedBy = e.pred.Name()
	}
	switch r.kind {
	case "predict":
		var req service.PredictRequest
		if err := c.decode(r.body, &req); err != nil {
			return nil, err
		}
		job := unwire(&req.Job)
		done := c.rec.span("core.predict")
		det, ok := e.pred.PredictDetailedCtx(ctx, job, req.Age)
		done()
		c.rec.predicted(ok)
		return c.encode(predictResponse(det, ok, job, servedBy))
	case "predict_batch":
		var req service.PredictBatchRequest
		if err := c.decode(r.body, &req); err != nil {
			return nil, err
		}
		items := make([]core.BatchItem, len(req.Jobs))
		jobs := make([]*workload.Job, len(req.Jobs))
		for i := range req.Jobs {
			jobs[i] = unwire(&req.Jobs[i].Job)
			items[i] = core.BatchItem{Job: jobs[i], Age: req.Jobs[i].Age}
		}
		done := c.rec.span("core.predict_batch")
		res := e.pred.PredictDetailedBatchCtx(ctx, items)
		done()
		c.batchJobs += len(items)
		for _, br := range res {
			c.rec.predicted(br.OK)
		}
		return c.encode(batchResponse(res, jobs, servedBy))
	case "observe":
		var req service.ObserveRequest
		if err := c.decode(r.body, &req); err != nil {
			return nil, err
		}
		job := unwire(&req.Job)
		done := c.rec.span("core.predict")
		det, ok := e.pred.PredictDetailedCtx(ctx, job, 0)
		done()
		c.rec.predicted(ok)
		if ok {
			done = c.rec.span("accuracy.record")
			acc := e.srv.Accuracy()
			acc.Record("all", float64(det.Seconds), float64(job.RunTime))
			acc.Record("template_"+strconv.Itoa(det.Template), float64(det.Seconds), float64(job.RunTime))
			done()
		}
		if rs := e.srv.Reselector(); rs != nil {
			done = c.rec.span("accuracy.shadow_observe")
			rs.ObserveAt(ctx, float64(time.Now().Unix()), job)
			done()
		}
		done = c.rec.span("core.observe")
		e.pred.ObserveCtx(ctx, job)
		done()
		return c.encode(map[string]bool{"ok": true})
	case "predictwait":
		var req service.PredictWaitRequest
		if err := c.decode(r.body, &req); err != nil {
			return nil, err
		}
		queue := unwireAll(req.Queue)
		target := findTarget(queue, req.Target.ID)
		if target == nil {
			return nil, fmt.Errorf("predictwait: target %d not in queue", req.Target.ID)
		}
		running := unwireAll(req.Running)
		done := c.rec.span("waitpred.simulate")
		start, err := waitpred.PredictStartCtx(ctx, req.Now, target, queue, running, e.w.MachineNodes,
			c.pol, c.pred, predict.MaxRuntime{}, 0)
		done()
		if err != nil {
			return nil, err
		}
		return c.encode(service.PredictWaitResponse{WaitSeconds: start - target.SubmitTime, StartSeconds: start})
	case "admit":
		var req service.AdmitRequest
		if err := c.decode(r.body, &req); err != nil {
			return nil, err
		}
		target := unwire(&req.Job)
		queue := make([]*workload.Job, 0, len(req.Queue))
		for i := range req.Queue {
			if req.Queue[i].ID != target.ID {
				queue = append(queue, unwire(&req.Queue[i]))
			}
		}
		done := c.rec.span("admission.evaluate")
		d := c.adm.EvaluateCtx(ctx, req.Now, target, queue, unwireAll(req.Running))
		done()
		return c.encode(service.AdmitResponse{Decision: d})
	}
	return nil, fmt.Errorf("no direct form for %s", r.kind)
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash writes never fail
	return h.Sum64()
}

// allocsPerPredict is the heap allocations of one core prediction,
// averaged over the given jobs.
func allocsPerPredict(ctx context.Context, pred *core.Predictor, jobs []*workload.Job) float64 {
	ms0 := memStats()
	for _, j := range jobs {
		pred.PredictDetailedCtx(ctx, j, 0)
	}
	ms1 := memStats()
	return ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(jobs)))
}

// Shares of --seconds a traced run spends in its untraced load phase and
// in its span-timed replay.
const (
	traceOpenShare   = 0.4
	traceReplayShare = 0.2
)

// traceHTTP is the traced run of an HTTP workload: an untraced open-loop
// phase for the end-to-end median and the service's own metrics, then the
// same requests replayed in-process three times — through span-timed
// layer calls, through the same calls untimed (the tracing overhead), and
// through Handler().ServeHTTP on a recorder. A workload that writes gets a
// freshly built service for each replay, so all three see the same state.
func traceHTTP(ctx context.Context, wl httpWorkload, cfg config, rep *report) error {
	got := map[string]float64{}
	notes := map[string]string{}
	rec := newRecorder()

	done := rec.span("workload.setup")
	a, err := wl.build(cfg.seed, cfg.tmp)
	done()
	if err != nil {
		return fmt.Errorf("set-up of %s: %w", wl.name, err)
	}
	closers := []func() error{a.close}
	defer func() {
		for _, f := range closers {
			_ = f() //lint:allow errdrop closing releases files in the run's temp dir; it cannot change the figures
		}
	}()
	got["workload.generate_s"], got["workload.snapshot_s"] = a.genS, a.snapS
	fresh := func() (*env, error) {
		if !wl.mutates {
			return a, nil
		}
		e, err := wl.build(cfg.seed, cfg.tmp)
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", wl.name, err)
		}
		closers = append(closers, e.close)
		return e, nil
	}

	// Untraced load: end-to-end median, generator lag, service metrics.
	total := time.Duration(cfg.seconds) * time.Second
	sv, err := serve(ctx, a.srv)
	if err != nil {
		return err
	}
	cl := newClient(sv.addr, workers)
	warm := closedLoop(ctx, cl, a.reqs, 0, wl.count(warmup), workers, wl.limit)
	if a.store != nil {
		a.store.RefreshMetrics()
	}
	before := a.srv.Metrics().Snapshot()
	open := openLoop(ctx, cl, a.reqs, warm.sent, arrivals(wl.rate, time.Duration(traceOpenShare*float64(total))), workers, wl.limit)
	cl.close()
	if err := sv.stop(); err != nil {
		return err
	}
	rep.count(warm.sent, warm.failed, warm.firstErr)
	rep.count(open.sent, open.failed, open.firstErr)
	e2e := summarize(open.latMs)
	lag := summarize(open.lagMs)
	got["loadgen.lag_p99_ms"] = lag.P99
	notes["loadgen.lag_p99_ms"] = fmt.Sprintf("n=%d", lag.N)
	if a.store != nil {
		a.store.RefreshMetrics()
	}
	snap := a.srv.Metrics().Snapshot()
	for _, ep := range endpoints {
		h := snap.Histograms["http."+ep+".latency_seconds"]
		got["service."+ep+".handler_p50_us"] = h.P50 * 1e6
		got["service."+ep+".handler_p99_us"] = h.P99 * 1e6
		notes["service."+ep+".handler_p50_us"] = fmt.Sprintf("n=%d", h.Count)
	}
	get := snap.Histograms["histstore.predict.latency_seconds"]
	ins := snap.Histograms["histstore.insert.latency_seconds"]
	got["histstore.get_p50_us"] = get.P50 * 1e6
	got["histstore.insert_p50_us"] = ins.P50 * 1e6
	got["histstore.insert_p99_us"] = ins.P99 * 1e6
	notes["histstore.insert_p99_us"] = fmt.Sprintf("n=%d", ins.Count)
	got["histstore.categories"] = snap.Gauges["histstore.categories"]
	got["histstore.points"] = snap.Gauges["histstore.points"]
	observes := snap.Counters["service.observe.jobs"] - before.Counters["service.observe.jobs"]
	got["histstore.wal_bytes_per_observe"] = ratio(snap.Gauges["histstore.wal.bytes"]-before.Gauges["histstore.wal.bytes"], float64(observes))
	got["admission.shed_ratio"] = ratio(float64(snap.Counters["admission.shed"]), float64(snap.Counters["admission.decisions"]))

	// Span-timed replay of the same requests, then the untimed one.
	b, err := fresh()
	if err != nil {
		return err
	}
	traced, err := newCaller(b, rec)
	if err != nil {
		return err
	}
	budget := time.Duration(traceReplayShare * float64(total))
	var digests []uint64
	t := time.Now()
	for i := 0; i < len(b.reqs) && time.Since(t) < budget; i++ {
		root := rec.root(i, "request")
		out, err := traced.call(ctx, b.reqs[i])
		rec.end(root)
		if err != nil {
			return fmt.Errorf("traced replay of request %d (%s): %w", i, b.reqs[i].kind, err)
		}
		digests = append(digests, digest(out))
	}
	tracedWall := time.Since(t)
	n := len(digests)

	c, err := fresh()
	if err != nil {
		return err
	}
	plain, err := newCaller(c, nil)
	if err != nil {
		return err
	}
	mismatches := 0
	t = time.Now()
	for i := 0; i < n; i++ {
		out, err := plain.call(ctx, c.reqs[i])
		if err != nil {
			return fmt.Errorf("untimed replay of request %d (%s): %w", i, c.reqs[i].kind, err)
		}
		if digest(out) != digests[i] {
			mismatches++
		}
	}
	plainWall := time.Since(t)
	rep.count(2*n, mismatches, nil)
	if mismatches > 0 {
		rep.fail("replay: %d of %d span-timed responses differ from the untimed replay's", mismatches, n)
	}
	got["trace.overhead_frac"] = ratio(tracedWall.Seconds(), plainWall.Seconds()) - 1
	notes["trace.overhead_frac"] = fmt.Sprintf("traced %.3fs / untraced %.3fs over %d requests", tracedWall.Seconds(), plainWall.Seconds(), n)
	_, second := halves(c.w)
	got["core.allocs_per_predict"] = allocsPerPredict(ctx, c.pred, second)

	// The whole handler in-process, on a recorder.
	d, err := fresh()
	if err != nil {
		return err
	}
	h := d.srv.Handler() //lint:allow ctxflow handler registration, not a request: each replayed request carries its own context
	mismatches = 0
	for i := 0; i < n; i++ {
		r := d.reqs[i]
		root := rec.root(i, "handler")
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", r.path, bytes.NewReader(r.body))
		done := rec.span("service.serve_http")
		h.ServeHTTP(w, req)
		done()
		rec.end(root)
		if w.Code != 200 || digest(w.Body.Bytes()) != digests[i] {
			mismatches++
		}
	}
	rep.count(n, mismatches, nil)
	if mismatches > 0 {
		rep.fail("replay: %d of %d ServeHTTP responses differ from the direct layer calls'", mismatches, n)
	}

	ls := aggregate(rec.spans, map[string]bool{"service.serve_http": true})
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	got["service.serve_http_us"] = med(ls.total["service.serve_http"])
	got["service.decode_us"] = med(ls.self["service.decode"])
	got["service.encode_us"] = med(ls.self["service.encode"])
	got["service.transport_us"] = e2e.P50*1e3 - got["service.serve_http_us"]
	notes["service.transport_us"] = fmt.Sprintf("e2e p50 %.1fus (n=%d) minus in-process handler p50", e2e.P50*1e3, e2e.N)
	got["core.predict_us"] = med(ls.self["core.predict"])
	notes["core.predict_us"] = fmt.Sprintf("n=%d", ls.count("core.predict"))
	got["core.predict_batch_us_per_job"] = ratio(sum(ls.self["core.predict_batch"]), float64(traced.batchJobs))
	got["core.observe_us"] = med(ls.self["core.observe"])
	got["core.predict_hit_ratio"] = ratio(float64(rec.hits), float64(rec.calls))
	got["accuracy.record_us"] = med(ls.self["accuracy.record"])
	got["accuracy.shadow_observe_us"] = med(ls.self["accuracy.shadow_observe"])
	waitStats(ls, got, notes)
	got["admission.evaluate_ms"] = med(ls.total["admission.evaluate"]) / 1e3
	var perReq []float64
	for i := 0; i < n; i++ {
		perReq = append(perReq, ls.perReq[i])
	}
	got["layers.unexplained_frac"] = unexplainedFrac(e2e.P50*1e3, got["service.transport_us"], perReq)
	notes["layers.unexplained_frac"] = fmt.Sprintf("layer self-time sum p50 %.1fus over %d requests", med(perReq), n)
	publish(rep, got, notes)
	return writeSpans(cfg.spansOut, rec.spans)
}

// waitStats fills the forward-simulation metrics: waits are wait
// predictions and admission evaluations, each one forward simulation.
func waitStats(ls layerStats, got map[string]float64, notes map[string]string) {
	waits := ls.count("waitpred.simulate") + ls.count("admission.evaluate")
	under := func(name string) int {
		return ls.under[[2]string{"waitpred.simulate", name}] + ls.under[[2]string{"admission.evaluate", name}]
	}
	if len(ls.self["waitpred.simulate"]) > 0 {
		got["waitpred.self_ms"] = median(ls.self["waitpred.simulate"]) / 1e3
	}
	got["waitpred.predict_calls_per_wait"] = ratio(float64(under("core.predict")), float64(waits))
	got["sched.picks_per_wait"] = ratio(float64(under("sched.pick")), float64(waits))
	if len(ls.self["sched.pick"]) > 0 {
		got["sched.pick_us"] = median(ls.self["sched.pick"])
	}
	notes["sched.picks_per_wait"] = fmt.Sprintf("waits=%d", waits)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// traceTable is the traced run of table-replay: the two cells through
// internal/exp as the reference, the wait cell replayed untimed (with the
// simulator's own throughput metrics) and span-timed through wrapped
// policies and predictors, and the scheduling cell span-timed.
func traceTable(cfg config, rep *report) error {
	got := map[string]float64{}
	notes := map[string]string{}
	rec := newRecorder()
	w, genS, err := generateTable(cfg.seed)
	if err != nil {
		return fmt.Errorf("set-up of table-replay: %w", err)
	}
	got["workload.generate_s"] = genS
	wr, sr, _, err := tableCells(w)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	t := time.Now()
	pr, _, smith, err := replayWait(w, sched.Backfill{}, nil, reg)
	if err != nil {
		return fmt.Errorf("untimed replay: %w", err)
	}
	plainWall := time.Since(t)
	got["sim.events_per_s"] = reg.Snapshot().Gauges["sim.events_per_second"]
	got["core.allocs_per_predict"] = allocsPerPredict(context.Background(), smith, w.Jobs)

	t = time.Now()
	tr, _, _, err := replayWait(w, sched.Backfill{}, rec, nil)
	if err != nil {
		return fmt.Errorf("span-timed replay: %w", err)
	}
	tracedWall := time.Since(t)
	underTest, err := exp.NewPredictor(exp.KindSmith, w)
	if err != nil {
		return err
	}
	done := rec.span("sim.run")
	res, err := sim.Run(w, tracedPolicy{inner: sched.LWF{}, rec: rec}, tracedPredictor{inner: underTest, rec: rec}, sim.Options{})
	done()
	if err != nil {
		return fmt.Errorf("span-timed scheduling cell: %w", err)
	}
	ts := exp.SchedResult{Workload: w.Name, Policy: res.Policy, Predictor: string(exp.KindSmith),
		Utilization: 100 * res.Utilization, MeanWaitMin: res.MeanWaitMinutes()}
	failed := 0
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{sameWait(pr, wr), "untimed wait replay"},
		{sameWait(tr, wr), "span-timed wait replay"},
		{sameSched(ts, sr), "span-timed scheduling cell"},
	} {
		if !c.ok {
			failed++
			rep.fail("replay: %s differs from internal/exp's cell", c.what)
		}
	}
	rep.count(3, failed, nil)

	ls := aggregate(rec.spans, nil)
	got["core.predict_us"] = median(ls.self["core.predict"])
	notes["core.predict_us"] = fmt.Sprintf("n=%d", ls.count("core.predict"))
	got["core.observe_us"] = median(ls.self["core.observe"])
	got["core.predict_hit_ratio"] = ratio(float64(rec.hits), float64(rec.calls))
	waitStats(ls, got, notes)
	got["sim.self_s"] = sum(ls.self["sim.run"]) / 1e6
	notes["sim.self_s"] = "both cells, engine time outside picks, predictions and wait simulations"
	got["trace.overhead_frac"] = ratio(tracedWall.Seconds(), plainWall.Seconds()) - 1
	notes["trace.overhead_frac"] = fmt.Sprintf("traced %.3fs / untraced %.3fs", tracedWall.Seconds(), plainWall.Seconds())
	publish(rep, got, notes)
	return writeSpans(cfg.spansOut, rec.spans)
}
