package repro

// One benchmark per table of the paper's evaluation (Tables 1 and 4–15),
// plus the §4 compression experiment, the ablations of DESIGN.md §5, and
// microbenchmarks of the hot paths. Each table benchmark regenerates the
// table and reports its headline numbers as custom metrics; run with -v to
// see the rendered tables.
//
//	go test -bench=. -benchmem
//
// Benchmarks run at a reduced workload scale so the full suite finishes in
// minutes; set -benchtime=1x for a single regeneration of each table.

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ga"
	"repro/internal/obs/trace"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// benchCfg scales the study workloads to ~2.5% of the Table-1 sizes so the
// expensive wait-time prediction tables stay tractable under -bench.
var benchCfg = exp.Config{Scale: 40, Seed: 42}

// benchTable regenerates one table per iteration and logs it once.
func benchTable(b *testing.B, fn exp.TableFunc, cfg exp.Config) {
	b.Helper()
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil {
		b.Log("\n" + last.String())
	}
}

func BenchmarkTable01_Workloads(b *testing.B)      { benchTable(b, exp.Table1, benchCfg) }
func BenchmarkTable04_WaitPredActual(b *testing.B) { benchTable(b, exp.Table4, benchCfg) }
func BenchmarkTable05_WaitPredMax(b *testing.B)    { benchTable(b, exp.Table5, benchCfg) }
func BenchmarkTable06_WaitPredSmith(b *testing.B)  { benchTable(b, exp.Table6, benchCfg) }
func BenchmarkTable07_WaitPredGibbons(b *testing.B) {
	benchTable(b, exp.Table7, benchCfg)
}
func BenchmarkTable08_WaitPredDowneyAvg(b *testing.B) {
	benchTable(b, exp.Table8, benchCfg)
}
func BenchmarkTable09_WaitPredDowneyMed(b *testing.B) {
	benchTable(b, exp.Table9, benchCfg)
}
func BenchmarkTable10_SchedActual(b *testing.B)  { benchTable(b, exp.Table10, benchCfg) }
func BenchmarkTable11_SchedMax(b *testing.B)     { benchTable(b, exp.Table11, benchCfg) }
func BenchmarkTable12_SchedSmith(b *testing.B)   { benchTable(b, exp.Table12, benchCfg) }
func BenchmarkTable13_SchedGibbons(b *testing.B) { benchTable(b, exp.Table13, benchCfg) }
func BenchmarkTable14_SchedDowneyAvg(b *testing.B) {
	benchTable(b, exp.Table14, benchCfg)
}
func BenchmarkTable15_SchedDowneyMed(b *testing.B) {
	benchTable(b, exp.Table15, benchCfg)
}
func BenchmarkSec4_Compression(b *testing.B) {
	benchTable(b, exp.Section4Compression, benchCfg)
}
func BenchmarkAblation_BackfillVariants(b *testing.B) {
	benchTable(b, exp.AblationBackfillVariants, benchCfg)
}

// BenchmarkFutureWork_StateWait compares the paper's simulation-based
// wait-time prediction against the state-based method it proposes as
// future work (§5).
func BenchmarkFutureWork_StateWait(b *testing.B) {
	benchTable(b, exp.FutureWorkStateWait, benchCfg)
}

// BenchmarkText_RuntimeErrors regenerates the run-time accuracy numbers the
// paper quotes in its §3/§4 prose (error as % of mean run time).
func BenchmarkText_RuntimeErrors(b *testing.B) {
	benchTable(b, exp.RuntimeErrors, benchCfg)
}

// BenchmarkAblation_GAvsGreedy compares the paper's genetic-algorithm
// template search against the greedy search (the paper's earlier work found
// GA superior); the best errors of both are reported as metrics.
func BenchmarkAblation_GAvsGreedy(b *testing.B) {
	w, err := workload.Study("ANL", 40, benchCfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	enc := ga.NewEncoding(w)
	eval := ga.RuntimeError(ga.FromTrace(w))
	var gaErr, greedyErr float64
	for i := 0; i < b.N; i++ {
		gr, err := ga.Search(enc, eval, ga.Config{PopSize: 24, Generations: 25, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		gd, err := ga.GreedySearch(enc, eval, ga.CandidatePool(enc))
		if err != nil {
			b.Fatal(err)
		}
		gaErr, greedyErr = gr.BestError, gd.BestError
	}
	b.ReportMetric(gaErr/60, "ga-err-min")
	b.ReportMetric(greedyErr/60, "greedy-err-min")
}

// BenchmarkAblation_CISelection compares the paper's smallest-confidence-
// interval estimate selection against Gibbons-style first-match ordering
// over the same template set (DESIGN.md §5.2).
func BenchmarkAblation_CISelection(b *testing.B) {
	w, err := workload.Study("ANL", 40, benchCfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	pw := ga.FromTrace(w)
	var ciErr, fmErr float64
	for i := 0; i < b.N; i++ {
		ts := core.DefaultTemplates(w.Chars, w.HasMaxRT)
		ciErr = replayError(pw, core.New(ts))
		fmErr = replayError(pw, core.New(ts, core.WithFirstMatch()))
	}
	b.ReportMetric(ciErr/60, "smallest-ci-err-min")
	b.ReportMetric(fmErr/60, "first-match-err-min")
}

// BenchmarkAblation_PredTypes compares the four within-category prediction
// types over a single-user-executable template (DESIGN.md §5.3; the paper
// found the mean best).
func BenchmarkAblation_PredTypes(b *testing.B) {
	w, err := workload.Study("ANL", 40, benchCfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	pw := ga.FromTrace(w)
	errs := make([]float64, core.NumPredTypes)
	for i := 0; i < b.N; i++ {
		for pt := core.PredType(0); pt < core.NumPredTypes; pt++ {
			tpl := core.Template{
				Chars: workload.MaskOf(workload.CharUser, workload.CharExec),
				Pred:  pt,
			}
			errs[pt] = replayError(pw, core.New([]core.Template{tpl}))
		}
	}
	for pt := core.PredType(0); pt < core.NumPredTypes; pt++ {
		b.ReportMetric(errs[pt]/60, pt.String()+"-err-min")
	}
}

// BenchmarkAblation_HistoryBound sweeps the maximum-history bound
// (DESIGN.md §5.4): small histories track regime changes, large ones smooth
// noise.
func BenchmarkAblation_HistoryBound(b *testing.B) {
	w, err := workload.Study("ANL", 40, benchCfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	pw := ga.FromTrace(w)
	bounds := []int{4, 64, 1024, 0} // 0 = unlimited
	errs := make([]float64, len(bounds))
	for i := 0; i < b.N; i++ {
		for k, h := range bounds {
			tpl := core.Template{
				Chars:      workload.MaskOf(workload.CharUser, workload.CharExec),
				MaxHistory: h,
				Pred:       core.PredMean,
			}
			errs[k] = replayError(pw, core.New([]core.Template{tpl}))
		}
	}
	for k, h := range bounds {
		name := "h" + strconv.Itoa(h)
		if h == 0 {
			name = "h-unlimited"
		}
		b.ReportMetric(errs[k]/60, name+"-err-min")
	}
}

// replayError replays a prediction workload through a predictor, returning
// the mean absolute error in seconds (with the standard fallback chain).
func replayError(pw ga.PredWorkload, p predict.Predictor) float64 {
	var sum float64
	var n int
	for _, ev := range pw {
		switch ev.Kind {
		case ga.EvPredict:
			est := predict.Estimate(p, ev.Job, ev.Age, predict.DefaultRuntime)
			d := float64(est - ev.Job.RunTime)
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		case ga.EvInsert:
			p.Observe(ev.Job)
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// --- Microbenchmarks of the hot paths ---
//
// The hot-path microbenchmarks build their operations from helpers that
// TestAllocationCeilings shares, so the test holds the allocation count
// of exactly the operation each benchmark times.

// BenchmarkPredictParallel measures prediction throughput as reader
// goroutines scale — run with -cpu 1,2,4,8 for the scaling series.
// The predict path performs zero mutex acquisitions (category lookups are
// atomic snapshot loads and the estimate consumes finalized moments), so
// per-op time should stay near-flat as readers are added; a slope here
// means a serialization point crept back into the hot path.
func BenchmarkPredictParallel(b *testing.B) {
	p, probe := warmedPredictor(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := p.Predict(probe, 0); !ok {
				b.Fatal("no prediction")
			}
		}
	})
}

// BenchmarkPredictBatch measures the amortized per-job cost of the batch
// prediction API scoring 100 jobs per call against a warmed store.
func BenchmarkPredictBatch(b *testing.B) {
	p, probe := warmedPredictor(b)
	items := batchOf(probe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictBatch(b, p, items)
	}
}

// warmedPredictor trains a default (memory-only store) predictor on the
// full ANL/20 study workload and returns it with a probe job, for hot-path
// benchmarks.
func warmedPredictor(tb testing.TB) (*core.Predictor, *workload.Job) {
	tb.Helper()
	w, err := workload.Study("ANL", 20, 7)
	if err != nil {
		tb.Fatal(err)
	}
	p := core.NewDefault(w)
	for _, j := range w.Jobs {
		p.Observe(j)
	}
	if err := p.StoreErr(); err != nil {
		tb.Fatal(err)
	}
	return p, w.Jobs[len(w.Jobs)-1]
}

// batchOf is a 100-job batch of one probe.
func batchOf(probe *workload.Job) []core.BatchItem {
	items := make([]core.BatchItem, 100)
	for i := range items {
		items[i] = core.BatchItem{Job: probe}
	}
	return items
}

func predictBatch(tb testing.TB, p *core.Predictor, items []core.BatchItem) {
	if res := p.PredictDetailedBatchCtx(context.Background(), items); !res[0].OK {
		tb.Fatal("no prediction")
	}
}

// predictCtx is one detailed prediction through the context-threaded API;
// with a tracer whose root span is in ctx, it records the span tree.
func predictCtx(ctx context.Context, tb testing.TB, p *core.Predictor, probe *workload.Job) {
	if _, ok := p.PredictDetailedCtx(ctx, probe, 0); !ok {
		tb.Fatal("no prediction")
	}
}

// tracedPredict is one fully sampled prediction: root span, per-template
// children, and ring insertion.
func tracedPredict(tb testing.TB, tr *trace.Tracer, p *core.Predictor, probe *workload.Job) {
	ctx, root := tr.StartRoot(context.Background(), "bench.predict")
	predictCtx(ctx, tb, p, probe)
	root.End()
}

// BenchmarkPredictHotPathBaseline is the reference point for the tracer
// overhead pair below: one detailed prediction through the non-context API.
func BenchmarkPredictHotPathBaseline(b *testing.B) {
	p, probe := warmedPredictor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.PredictDetailed(probe, 0); !ok {
			b.Fatal("no prediction")
		}
	}
}

// BenchmarkPredictHotPathTracerDisabled measures the context-threaded
// prediction path with no tracer installed — the cost every request pays
// when tracing is off. The acceptance bar is ≤5% over the baseline.
func BenchmarkPredictHotPathTracerDisabled(b *testing.B) {
	p, probe := warmedPredictor(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictCtx(ctx, b, p, probe)
	}
}

// BenchmarkPredictHotPathTracerEnabled measures a fully sampled prediction.
func BenchmarkPredictHotPathTracerEnabled(b *testing.B) {
	p, probe := warmedPredictor(b)
	tr := trace.New(trace.WithSampleRate(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracedPredict(b, tr, p, probe)
	}
}

// BenchmarkPredictorObserve measures history insertion across a full
// template set.
func BenchmarkPredictorObserve(b *testing.B) {
	w, err := workload.Study("ANL", 20, 7)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewDefault(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(w.Jobs[i%len(w.Jobs)])
	}
}

// BenchmarkBackfillPick measures one conservative-backfill scheduling pass
// over a deep queue.
func BenchmarkBackfillPick(b *testing.B) {
	const total = 400
	var running []*workload.Job
	used := 0
	for i := 0; used+8 <= total/2; i++ {
		j := &workload.Job{ID: i, Nodes: 8, RunTime: int64(1000 + i*100), StartTime: -int64(i * 50)}
		j.MaxRunTime = j.RunTime * 2
		running = append(running, j)
		used += 8
	}
	var queue []*workload.Job
	for i := 0; i < 100; i++ {
		queue = append(queue, &workload.Job{
			ID: 1000 + i, Nodes: 1 << (i % 8), RunTime: int64(600 + i*37),
			MaxRunTime: int64(1200 + i*37),
		})
	}
	est := func(j *workload.Job, age int64) int64 {
		return predict.Estimate(predict.MaxRuntime{}, j, age, predict.DefaultRuntime)
	}
	pol := sched.Backfill{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Pick(0, queue, running, total-used, total, est)
	}
}

// BenchmarkProfileEarliestFit measures the availability-profile search used
// inside backfill.
func BenchmarkProfileEarliestFit(b *testing.B) {
	p := sched.NewProfile(0, 400)
	for i := 0; i < 200; i++ {
		s := int64(i * 100)
		if err := p.Allocate(s, s+150, 1+(i%16)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EarliestFit(0, 500, 300)
	}
}

// waitNodes is the machine size of deepQueue's snapshot.
const waitNodes = 400

// deepQueue is the machine state BenchmarkPredictWait predicts against:
// three quarters of 400 nodes busy and 60 jobs queued, the last of them the
// target.
func deepQueue() (queue, running []*workload.Job) {
	used := 0
	for i := 0; used+8 <= waitNodes*3/4; i++ {
		j := &workload.Job{ID: i, Nodes: 8, RunTime: int64(1000 + i*100), StartTime: -int64(i * 50)}
		j.MaxRunTime = j.RunTime * 2
		running = append(running, j)
		used += 8
	}
	for i := 0; i < 60; i++ {
		queue = append(queue, &workload.Job{
			ID: 1000 + i, Nodes: 1 << (i % 7), RunTime: int64(600 + i*37),
			MaxRunTime: int64(1800 + i*37),
		})
	}
	return queue, running
}

func predictWait(tb testing.TB, queue, running []*workload.Job) {
	if _, err := waitpred.PredictWait(0, queue[len(queue)-1], queue, running, waitNodes,
		sched.Backfill{}, predict.MaxRuntime{}, nil, 0); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPredictWait measures one queue wait-time prediction against a
// deep queue — the latency a resource-selection client sees per candidate
// system.
func BenchmarkPredictWait(b *testing.B) {
	queue, running := deepQueue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictWait(b, queue, running)
	}
}

// simWorkload is the ANL/40 trace BenchmarkSimRun simulates.
func simWorkload(tb testing.TB) *workload.Workload {
	tb.Helper()
	w, err := workload.Study("ANL", 40, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func simRun(tb testing.TB, w *workload.Workload) {
	if _, err := sim.Run(w, sched.Backfill{}, predict.MaxRuntime{}, sim.Options{}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSimRun measures a full scheduling simulation (ANL/40, backfill,
// maximum run times).
func BenchmarkSimRun(b *testing.B) {
	w := simWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simRun(b, w)
	}
}

// TestAllocationCeilings holds the allocs/op of the hot-path
// microbenchmarks above as exact ceilings on the operations they time:
// allocation counts are deterministic, so unlike ns/op they need no stored
// baseline or statistics. A ceiling is the current count; lower it when an
// optimisation lands, never raise it to admit a regression. Predict and
// PredictDetailed (BenchmarkPredictParallel's per-op work and
// BenchmarkPredictHotPathBaseline) are held at zero by internal/core's
// TestPredictAllocationFree.
func TestAllocationCeilings(t *testing.T) {
	p, probe := warmedPredictor(t)
	items := batchOf(probe)
	tr := trace.New(trace.WithSampleRate(1))
	queue, running := deepQueue()
	w := simWorkload(t)
	for _, c := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"PredictHotPathTracerDisabled", 0, func() { predictCtx(context.Background(), t, p, probe) }},
		{"PredictHotPathTracerEnabled", 80, func() { tracedPredict(t, tr, p, probe) }},
		{"PredictBatch", 12, func() { predictBatch(t, p, items) }},
		{"PredictWait", 392, func() { predictWait(t, queue, running) }},
		{"SimRun", 1280, func() { simRun(t, w) }},
	} {
		if n := testing.AllocsPerRun(20, c.op); n > c.ceiling {
			t.Errorf("%s: %v allocs per op, ceiling %v", c.name, n, c.ceiling)
		}
	}
}

// BenchmarkAblation_Cancellations checks the predictor ranking under
// queue-withdrawal failure injection (30% cancellable jobs).
func BenchmarkAblation_Cancellations(b *testing.B) {
	benchTable(b, exp.AblationCancellations, benchCfg)
}

// BenchmarkValidation_WalkForward measures the predictors under pure
// holdout (train on a prefix, test on the next segment with no feedback).
func BenchmarkValidation_WalkForward(b *testing.B) {
	benchTable(b, exp.WalkForwardTable, benchCfg)
}

// BenchmarkValidation_Replication checks the headline scheduling
// comparison across independently drawn workload seeds.
func BenchmarkValidation_Replication(b *testing.B) {
	benchTable(b, exp.ReplicationTable, benchCfg)
}

// BenchmarkMotivation_Metascheduling quantifies the paper's §1 use case:
// routing across machines by predicted turnaround vs uninformed routers.
func BenchmarkMotivation_Metascheduling(b *testing.B) {
	benchTable(b, exp.MetaschedulingTable, benchCfg)
}
