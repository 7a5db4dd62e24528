package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// httpWorkload is a traffic mix served by an in-process qwaitd.
type httpWorkload struct {
	name string
	// rate is the fixed open-loop arrival rate, at most a third of the
	// closed-loop capacity measured on a 2-CPU machine (README.md, "Rates
	// and limits").
	rate float64
	// limit is the latency limit behind slo_frac.
	limit time.Duration
	// closedRate is the closed-loop wall rate of the same 2-CPU machine.
	// It sizes the warm-up and the closed-loop segments, which are fixed
	// request counts so that the state a writing workload reaches at each
	// point of a run does not depend on how fast the host runs that day.
	closedRate float64
	// mutates reports whether requests change the server's state; a
	// traced run then replays each pass on a freshly built service.
	mutates bool
	build   func(seed int64, tmp string) (*env, error)
}

// env is one built service with its request mix.
type env struct {
	w     *workload.Workload
	srv   *service.Server
	pred  *core.Predictor
	store *histstore.Store
	admit bool // the service answers /v1/admit (wait-admit)
	reqs  []*request
	// genS and snapS time input generation and queue-snapshot capture.
	genS, snapS float64
	// readOnly reports that no request changes a later response, so
	// responses can be compared with direct layer calls made beforehand.
	readOnly bool
	// depthP50 and depth describe the queue depths of the
	// snapshot-carrying requests (none on observe-write).
	depthP50 float64
	depth    string
	// postCheck runs after the measured phase (write-path invariants),
	// given how many observe requests the client saw acknowledged.
	postCheck func(rep *report, acked int)
	close     func() error
}

// The HTTP workloads serve the study traces the committed tables are
// generated from (exp.DefaultConfig.Seed, with internal/workload's
// per-study offset of 1000), and --seed draws the request mix from them.
// How congested a generated trace gets varies several-fold from one
// generator seed to the next, and with it the cost of every queue-carrying
// request; sampling a fixed trace keeps run-to-run spread down to what the
// code and the machine contribute.
const (
	anlTraceSeed    = 42
	sdsc96TraceSeed = 42 + 3*1000
)

// expectEvery is the stride of pool entries whose responses are compared
// byte for byte with direct calls.
const expectEvery = 4

var (
	predictRead = httpWorkload{
		name:       "predict-read",
		rate:       2000,
		limit:      5 * time.Millisecond,
		closedRate: 15000,
		build:      buildPredictRead,
	}
	observeWrite = httpWorkload{
		name:       "observe-write",
		rate:       400,
		limit:      25 * time.Millisecond,
		closedRate: 1500,
		mutates:    true,
		build:      buildObserveWrite,
	}
	waitAdmit = httpWorkload{
		name:       "wait-admit",
		rate:       250,
		limit:      25 * time.Millisecond,
		closedRate: 1500,
		build:      buildWaitAdmit,
	}
)

func newRequest(kind, path string, jobs int, v interface{}) (*request, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding %s request: %w", kind, err)
	}
	return &request{kind: kind, path: path, body: body, jobs: jobs}, nil
}

// predictResponse is the service's /v1/predict answer for a direct
// core prediction.
func predictResponse(det core.Prediction, ok bool, job *workload.Job, servedBy string) service.PredictResponse {
	resp := service.PredictResponse{OK: ok, Predictor: servedBy}
	if ok {
		resp.Seconds, resp.Interval, resp.Template, resp.Points = det.Seconds, det.Interval, det.Template, det.N
	} else {
		resp.Seconds = job.MaxRunTime
	}
	return resp
}

func batchResponse(res []core.BatchResult, jobs []*workload.Job, servedBy string) service.PredictBatchResponse {
	out := service.PredictBatchResponse{Results: make([]service.PredictResponse, len(res))}
	for i, br := range res {
		out.Results[i] = predictResponse(br.Prediction, br.OK, jobs[i], servedBy)
	}
	return out
}

// warmStore builds a store-backed predictor for w and feeds it the given
// completions in trace order.
func warmStore(w *workload.Workload, st *histstore.Store, history []*workload.Job) *core.Predictor {
	pred := core.NewDefault(w, core.WithStore(st))
	for _, j := range history {
		pred.Observe(j)
	}
	return pred
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// buildPredictRead: ANL, memory store warmed with the first half; 80%
// single predictions of second-half submissions, 20% batches holding the
// live queue at a submission.
func buildPredictRead(seed int64, _ string) (*env, error) {
	t := time.Now()
	w, err := workload.Study("ANL", 1, anlTraceSeed)
	if err != nil {
		return nil, err
	}
	genS := since(t)
	first, second := halves(w)
	t = time.Now()
	snaps, err := captureSnapshots(w, idSet(second))
	if err != nil {
		return nil, err
	}
	snapS := since(t)
	st := histstore.New()
	pred := warmStore(w, st, first)
	srv := service.New(pred, w.MachineNodes)
	srv.SetStore(st)

	const pool = 8192
	rng := rand.New(rand.NewSource(seed))
	batches := pickSnapshots(rng, snaps, pool/5)
	e := &env{w: w, srv: srv, pred: pred, store: st, genS: genS, snapS: snapS, close: func() error { return nil }}
	e.depthP50, e.depth = depthNote(batches)
	for len(e.reqs) < pool {
		var r *request
		if rng.Float64() < 0.8 || len(batches) == 0 {
			j := second[rng.Intn(len(second))]
			r, err = newRequest("predict", "/v1/predict", 1, service.PredictRequest{Job: wire(j, false, false)})
		} else {
			s := batches[0]
			batches = batches[1:]
			items := make([]service.PredictRequest, len(s.queue))
			for i := range s.queue {
				items[i] = service.PredictRequest{Job: s.queue[i]}
			}
			r, err = newRequest("predict_batch", "/v1/predict/batch", len(items), service.PredictBatchRequest{Jobs: items})
		}
		if err != nil {
			return nil, err
		}
		e.reqs = append(e.reqs, r)
	}
	e.readOnly = true
	return e, nil
}

// buildObserveWrite: SDSC96 on a durable store warmed with the first half,
// shadow stable on (frozen, as qwaitd -shadow); 80% completions of the
// second half, 20% predictions.
func buildObserveWrite(seed int64, tmp string) (*env, error) {
	t := time.Now()
	w, err := workload.Study("SDSC96", 1, sdsc96TraceSeed)
	if err != nil {
		return nil, err
	}
	genS := since(t)
	first, second := halves(w)
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	st, err := histstore.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("opening durable store: %w", err)
	}
	pred := warmStore(w, st, first)
	if err := pred.StoreErr(); err != nil {
		_ = st.Close() // the warm-up error is the one worth reporting
		return nil, fmt.Errorf("warming durable store: %w", err)
	}
	srv := service.New(pred, w.MachineNodes)
	srv.SetStore(st)
	srv.EnableReselect(service.ReselectOptions{Switching: false})

	okBody := []byte("{\"ok\":true}\n")
	rng := rand.New(rand.NewSource(seed))
	e := &env{w: w, srv: srv, pred: pred, store: st, genS: genS, close: st.Close}
	for _, j := range second {
		var r *request
		if rng.Float64() < 0.8 {
			r, err = newRequest("observe", "/v1/observe", 1, service.ObserveRequest{Job: wire(j, false, true)})
			if r != nil {
				r.want = okBody
			}
		} else {
			r, err = newRequest("predict", "/v1/predict", 1, service.PredictRequest{Job: wire(j, false, false)})
			if r != nil {
				r.check = checkServedPrediction
			}
		}
		if err != nil {
			_ = st.Close() // the encoding error is the one worth reporting
			return nil, err
		}
		e.reqs = append(e.reqs, r)
	}
	e.postCheck = func(rep *report, acked int) { checkWritePath(e, dir, second, acked, rep) }
	return e, nil
}

// checkServedPrediction validates a prediction made while writes run: it
// must decode, name the serving template predictor, and carry a positive
// estimate whenever the history had one.
func checkServedPrediction(body []byte) error {
	var resp service.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("predict: undecodable response %.200q: %w", body, err)
	}
	if resp.Predictor != "smith" || (resp.OK && resp.Seconds <= 0) {
		return fmt.Errorf("predict: unexpected response %.200q", body)
	}
	return nil
}

// checkWritePath verifies the write path after the measured phase: no
// store error, the service counted exactly the completions the client saw
// acknowledged, and crash recovery — reopening the store directory gives
// byte-identical predictions to the live store's.
func checkWritePath(e *env, dir string, jobs []*workload.Job, acked int, rep *report) {
	if err := e.pred.StoreErr(); err != nil {
		rep.fail("durable store insert: %v", err)
	}
	if got := e.srv.Metrics().Snapshot().Counters["service.observe.jobs"]; got != int64(acked) {
		rep.fail("observe accounting: service counted %d completions, the client saw %d acknowledged", got, acked)
	}
	sample := jobs
	if len(sample) > 500 {
		sample = sample[:500]
	}
	live := make([][]byte, len(sample))
	for i, j := range sample {
		det, ok := e.pred.PredictDetailed(j, 0)
		b, err := json.Marshal(struct {
			P  core.Prediction
			OK bool
		}{det, ok})
		if err != nil {
			rep.fail("recovery: encoding live prediction: %v", err)
			return
		}
		live[i] = b
	}
	if err := e.store.Close(); err != nil {
		rep.fail("recovery: closing durable store: %v", err)
		return
	}
	e.close = func() error { return nil }
	st, err := histstore.Open(dir)
	if err != nil {
		rep.fail("recovery: reopening durable store: %v", err)
		return
	}
	defer st.Close() //lint:allow errdrop read-only reopen; nothing was written
	rec := core.NewDefault(e.w, core.WithStore(st))
	for i, j := range sample {
		det, ok := rec.PredictDetailed(j, 0)
		b, err := json.Marshal(struct {
			P  core.Prediction
			OK bool
		}{det, ok})
		if err != nil || !bytes.Equal(b, live[i]) {
			rep.fail("recovery: job %d predicts %s after reopen, %s live", j.ID, b, live[i])
			return
		}
	}
}

// buildWaitAdmit: ANL, memory store warmed with the first half, admission
// on /v1/admit (default classes, no tokens, Backfill); 50% wait
// predictions and 50% admissions of second-half submissions.
func buildWaitAdmit(seed int64, _ string) (*env, error) {
	t := time.Now()
	w, err := workload.Study("ANL", 1, anlTraceSeed)
	if err != nil {
		return nil, err
	}
	genS := since(t)
	first, second := halves(w)
	t = time.Now()
	snaps, err := captureSnapshots(w, idSet(second))
	if err != nil {
		return nil, err
	}
	snapS := since(t)
	st := histstore.New()
	pred := warmStore(w, st, first)
	srv := service.New(pred, w.MachineNodes)
	srv.SetStore(st)
	cfg := admissionConfig(w, sched.Backfill{}, pred)
	cfg.Metrics = srv.Metrics()
	ctrl, err := admission.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.SetAdmission(ctrl)

	const pool = 1024
	rng := rand.New(rand.NewSource(seed))
	picked := pickSnapshots(rng, snaps, pool)
	e := &env{w: w, srv: srv, pred: pred, store: st, admit: true, genS: genS, snapS: snapS, close: func() error { return nil }}
	e.depthP50, e.depth = depthNote(picked)
	for _, s := range picked {
		var r *request
		if rng.Float64() < 0.5 {
			r, err = newRequest("predictwait", "/v1/predictwait", 1, service.PredictWaitRequest{
				Now: s.now, Policy: "Backfill", Target: s.target, Queue: s.queue, Running: s.running})
		} else {
			queue := make([]service.JobJSON, 0, len(s.queue))
			for _, q := range s.queue {
				if q.ID != s.target.ID {
					queue = append(queue, q)
				}
			}
			r, err = newRequest("admit", "/v1/admit", 1, service.AdmitRequest{
				Now: s.now, Job: s.target, Queue: queue, Running: s.running})
		}
		if err != nil {
			return nil, err
		}
		e.reqs = append(e.reqs, r)
	}
	e.readOnly = true
	return e, nil
}

// admissionConfig is the controller configuration wait-admit serves:
// default classes, no tokens, forward simulation of pol with the core
// predictor's durations and maximum-run-time decisions.
func admissionConfig(w *workload.Workload, pol sim.Policy, pred predict.Predictor) admission.Config {
	return admission.Config{
		Classes:      admission.DefaultClasses(),
		DefaultClass: "standard",
		TotalNodes:   w.MachineNodes,
		Policy:       pol,
		Predictor:    pred,
		Decision:     predict.MaxRuntime{},
	}
}

func findTarget(queue []*workload.Job, id int) *workload.Job {
	for _, j := range queue {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// httpRunner measures an HTTP workload (or, with --trace 1, traces it).
func httpRunner(wl httpWorkload) runner {
	return func(cfg config, rep *report) error {
		ctx := context.Background()
		if cfg.trace {
			return traceHTTP(ctx, wl, cfg, rep)
		}
		return measureHTTP(ctx, wl, cfg, rep)
	}
}

// count is the number of closed-loop requests that take d at closedRate.
func (wl httpWorkload) count(d time.Duration) int {
	return max(1, int(wl.closedRate*d.Seconds()))
}

// buildTimed sets the workload up once and adds the time taken to times.
func buildTimed(wl httpWorkload, cfg config, times *setupTimes) (*env, error) {
	done := times.start()
	e, err := wl.build(cfg.seed, cfg.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up of %s: %w", wl.name, err)
	}
	done()
	return e, nil
}

// setupAgain times one more set-up of the workload and discards it.
func setupAgain(wl httpWorkload, cfg config, times *setupTimes) error {
	e, err := buildTimed(wl, cfg, times)
	if err != nil {
		return err
	}
	if err := e.close(); err != nil {
		return fmt.Errorf("set-up: closing a repeated set-up: %w", err)
	}
	return nil
}

// fillExpectations computes, by direct layer calls on the same service
// state, the exact response of every expectEvery-th request of a
// read-only mix.
func fillExpectations(ctx context.Context, e *env) error {
	if !e.readOnly {
		return nil
	}
	direct, err := newCaller(e, nil)
	if err != nil {
		return err
	}
	for i := 0; i < len(e.reqs); i += expectEvery {
		want, err := direct.call(ctx, e.reqs[i])
		if err != nil {
			return fmt.Errorf("direct call for request %d (%s): %w", i, e.reqs[i].kind, err)
		}
		e.reqs[i].want = want
	}
	return nil
}

// serving is a service listening on an ephemeral loopback port.
type serving struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func serve(ctx context.Context, srv *service.Server) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &serving{addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.ServeListener(sctx, ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the server goroutine.
func (s *serving) stop() error {
	s.cancel()
	if err := <-s.done; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("serving: %w", err)
	}
	return nil
}

// Shares of --seconds spent in each measured phase, and the untimed
// warm-up before them.
const (
	openShare = 0.65
	warmup    = 500 * time.Millisecond
)

// rounds is how many times a run alternates an open-loop segment, a
// closed-loop segment and one more set-up (so setup_s is the median of
// rounds+1 set-ups). Every metric then samples the whole run: on a shared
// host the CPU speed drifts by tens of percent over seconds, and a figure
// taken from one stretch of the run follows that stretch.
const rounds = 7

func measureHTTP(ctx context.Context, wl httpWorkload, cfg config, rep *report) error {
	var setup setupTimes
	sp := newSpeed()
	e, err := buildTimed(wl, cfg, &setup)
	if err != nil {
		return err
	}
	sp.mark()
	defer func() {
		_ = e.close() //lint:allow errdrop closing releases files in the run's temp dir; the write path checked its own close
	}()
	if err := fillExpectations(ctx, e); err != nil {
		return err
	}
	sv, err := serve(ctx, e.srv)
	if err != nil {
		return err
	}
	c := newClient(sv.addr, workers)
	total := time.Duration(cfg.seconds) * time.Second
	openSeg := time.Duration(openShare * float64(total) / rounds)
	closedSeg := wl.count((total - time.Duration(openShare*float64(total))) / rounds)

	warm := closedLoop(ctx, c, e.reqs, 0, wl.count(warmup), workers, wl.limit)
	next := warm.sent
	var (
		open, capa    phase
		mallocs       uint64
		perCPU, jobs  []float64 // closed-loop requests and jobs per CPU-second
		utils, stolen []float64
		openStolen    []float64
		setupErr      error
	)
	for r := 0; r < rounds; r++ {
		// Allocations are counted over the open-loop segments, whose work
		// the schedule fixes.
		m0 := markCPU()
		ms0 := memStats()
		o := openLoop(ctx, c, e.reqs, next, arrivals(wl.rate, openSeg), workers, wl.limit)
		ms1 := memStats()
		_, st := m0.utilSince(markCPU(), workers)
		mallocs += ms1.Mallocs - ms0.Mallocs
		openStolen = append(openStolen, st)
		next += o.sent
		open.merge(o)
		sp.mark()

		m1 := markCPU()
		cl := closedLoop(ctx, c, e.reqs, next, closedSeg, workers, wl.limit)
		m2 := markCPU()
		cpu := (m2.cpu - m1.cpu).Seconds()
		perCPU, jobs = append(perCPU, ratio(float64(cl.ok()), cpu)), append(jobs, ratio(float64(cl.jobs), cpu))
		u, st := m1.utilSince(m2, workers)
		utils, stolen = append(utils, u), append(stolen, st)
		next += cl.sent
		capa.merge(cl)
		sp.mark()

		// The next set-up runs while the server is idle; its service is
		// discarded.
		if setupErr = setupAgain(wl, cfg, &setup); setupErr != nil {
			break
		}
		sp.mark()
	}
	sp.release()
	heap := liveHeapMiB()
	c.close()
	if err := sv.stop(); err != nil {
		return err
	}
	if setupErr != nil {
		return setupErr
	}
	if e.postCheck != nil {
		e.postCheck(rep, warm.acked["observe"]+open.acked["observe"]+capa.acked["observe"])
	}

	rep.count(warm.sent, warm.failed, warm.firstErr)
	rep.count(open.sent, open.failed, open.firstErr)
	rep.count(capa.sent, capa.failed, capa.firstErr)
	lat := summarize(open.latMs)
	lag := summarize(open.lagMs)
	setup.report(rep, sp)
	rep.set("p50_ms", "ms", lat.P50*sp.factor(), fmt.Sprintf("reference time, n=%d rate=%g/s over %d segments", lat.N, wl.rate, rounds))
	rep.aside("p50_wall_ms", "ms", lat.P50, fmt.Sprintf("n=%d", lat.N))
	setTail(rep, open.latMs)
	rep.set("slo_frac", "ratio", ratio(float64(open.within), float64(open.sent)),
		fmt.Sprintf("limit=%s sent=%d", wl.limit, open.sent))
	rep.set("capacity_rps", "req/cpu-s", median(perCPU)/sp.factor(),
		fmt.Sprintf("reference CPU time, closed loop, %d clients, median of %d segments of %d requests; %.0f req/cpu-s, %.0f req/s wall",
			workers, len(perCPU), closedSeg, median(perCPU), float64(capa.ok())/capa.elapsed.Seconds()))
	rep.set("jobs_per_s", "jobs/cpu-s", median(jobs)/sp.factor(),
		fmt.Sprintf("reference CPU time, jobs carried by closed-loop requests, median segment; %.0f jobs/cpu-s", median(jobs)))
	rep.set("cpu_util", "ratio", upperQuartile(utils),
		fmt.Sprintf("closed loop, process CPU over wall time × %d clients less stolen time, upper quartile of %d segments",
			workers, len(utils)))
	rep.set("heap_mb", "MiB", heap, "live heap after GC, end of the run")
	rep.set("allocs_per_op", "count", ratio(float64(mallocs), float64(open.ok())),
		fmt.Sprintf("whole process over the open-loop segments, ops=%d", open.ok()))
	rep.aside("loadgen.lag_p99_ms", "ms", lag.P99, fmt.Sprintf("n=%d", lag.N))
	rep.aside("host.steal_frac", "ratio", median(openStolen),
		fmt.Sprintf("median open-loop segment; closed loop median segment %.4f", median(stolen)))
	if e.depth != "" {
		rep.aside("queue_depth_p50", "jobs", e.depthP50, e.depth)
	}
	return nil
}
