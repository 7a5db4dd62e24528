package accuracy

import (
	"testing"

	"repro/internal/predict"
	"repro/internal/workload"
)

// benchErrs pre-generates 4096 prediction errors in [-100, 100), so the
// generator is not in the timed loop.
func benchErrs() []float64 {
	gen := lcg{s: 9}
	errs := make([]float64, 4096)
	for i := range errs {
		errs[i] = 200*gen.next() - 100
	}
	return errs
}

// recordOne is the i-th completion BenchmarkAccuracyRecord times.
func recordOne(tr *Tracker, errs []float64, i int) {
	tr.Record("bench", 100+errs[i&4095], 100)
}

// BenchmarkAccuracyRecord times one completion through a tracker stream:
// the scoring core (Welford moments, histograms, sign counts, tail state —
// the // hotpath: no-lock no-alloc no-clock region) plus the window ring and the
// Welch-t drift test. This is the per-completion cost every serving and
// shadow stream pays.
func BenchmarkAccuracyRecord(b *testing.B) {
	tr, errs := New(), benchErrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recordOne(tr, errs, i)
	}
}

// benchShadow is a four-member stable over a fresh tracker, and 256 jobs
// for it to score.
func benchShadow() (*Shadow, []*workload.Job) {
	stable := []Member{
		{Name: "const100", P: constPred{name: "const100", v: 100}},
		{Name: "actual", P: predict.Oracle{}},
		{Name: "maxrt", P: predict.MaxRuntime{}},
		{Name: "globalmean", P: &predict.RunningMean{}},
	}
	gen := lcg{s: 9}
	jobs := make([]*workload.Job, 256)
	for i := range jobs {
		jobs[i] = &workload.Job{ID: i, RunTime: 100 + int64(50*gen.next()), MaxRunTime: 400}
	}
	return NewShadow(stable, New(), 0), jobs
}

// scoreOne is the i-th completion BenchmarkAccuracyShadowScore scores.
func scoreOne(sh *Shadow, jobs []*workload.Job, i int) {
	j := jobs[i&255]
	sh.ScoreAndObserve(j, float64(j.RunTime))
}

// BenchmarkAccuracyShadowScore times one completion through the full
// shadow pipeline: every stable member predicts, every estimate is
// recorded, and the non-external members observe. The per-member cost
// here is what a deployment pays on every /v1/observe with -shadow on.
func BenchmarkAccuracyShadowScore(b *testing.B) {
	sh, jobs := benchShadow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreOne(sh, jobs, i)
	}
}

// TestScoringAllocationFree holds both benchmarks above at zero allocs per
// completion once their streams exist.
func TestScoringAllocationFree(t *testing.T) {
	tr, errs := New(), benchErrs()
	sh, jobs := benchShadow()
	i := 0
	if n := testing.AllocsPerRun(1000, func() { recordOne(tr, errs, i); i++ }); n != 0 {
		t.Errorf("Record: %v allocs per completion, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { scoreOne(sh, jobs, i); i++ }); n != 0 {
		t.Errorf("ScoreAndObserve: %v allocs per completion, want 0", n)
	}
}
