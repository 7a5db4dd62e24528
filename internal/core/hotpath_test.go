package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/histstore"
	"repro/internal/stats"
	"repro/internal/workload"
)

// warmed returns a predictor trained on a study workload, plus probe jobs
// from it.
func warmed(t *testing.T) (p *Predictor, probes []*workload.Job) {
	t.Helper()
	w, err := workload.Study("ANL", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	p = New(DefaultTemplates(w.Chars, w.HasMaxRT))
	for _, j := range w.Jobs {
		p.Observe(j)
	}
	if err := p.StoreErr(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(w.Jobs); i += len(w.Jobs) / 16 {
		probes = append(probes, w.Jobs[i])
	}
	return p, probes
}

// TestPredictAllocationFree pins the hot path's allocation contract:
// Predict allocates nothing, at submit and for running jobs (the
// age-conditioned estimate), and neither does PredictDetailed, whose
// winning key is the string the category is stored under. It holds the
// operations of BenchmarkPredictParallel and
// BenchmarkPredictHotPathBaseline.
func TestPredictAllocationFree(t *testing.T) {
	p, probes := warmed(t)
	hits := 0
	for _, j := range probes {
		for _, age := range []int64{0, 60, 600} {
			if _, ok := p.PredictDetailed(j, age); !ok {
				continue
			}
			hits++
			for _, c := range []struct {
				name string
				f    func()
			}{
				{"Predict", func() { p.Predict(j, age) }},
				{"PredictDetailed", func() { p.PredictDetailed(j, age) }},
			} {
				if n := testing.AllocsPerRun(20, c.f); n != 0 {
					t.Errorf("%s(job %d, age %d): %v allocs per run, want 0", c.name, j.ID, age, n)
				}
			}
		}
	}
	if hits < len(probes) {
		t.Fatalf("only %d predictions over %d probes; the contract was barely exercised", hits, len(probes))
	}
}

// TestPredictDetailedKeyIsStored checks that the reported winning key is
// the category's key: the template's rendering for the job, and the very
// string the store holds the category under.
func TestPredictDetailedKeyIsStored(t *testing.T) {
	p, probes := warmed(t)
	for _, j := range probes {
		a, ok := p.PredictDetailed(j, 0)
		if !ok {
			continue
		}
		if want := key(p.templates[a.Template], a.Template, j); a.Category != want {
			t.Errorf("job %d: category %q, want %q", j.ID, a.Category, want)
		}
		if _, stored, _ := p.Store().Get([]byte(a.Category)); stored != a.Category {
			t.Errorf("job %d: store holds %q under key %q", j.ID, a.Category, stored)
		}
	}
}

// TestStreamedAgeMeanMatchesMeanCI is the bit-identity property of the
// streamed age-conditioned mean: over random categories (bounded rings
// with evictions, jobs with and without a user maximum, so relative
// templates meet NaN ratios) and random ages, the estimate equals
// stats.MeanCI over the collected samples to the last bit.
func TestStreamedAgeMeanMatchesMeanCI(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		c := histstore.NewCategory([]int{0, 4, 16, 64}[rng.Intn(4)])
		for i, n := 0, 1+rng.Intn(120); i < n; i++ {
			j := &workload.Job{RunTime: 1 + rng.Int63n(5000), Nodes: 1 + rng.Intn(64)}
			if rng.Intn(3) > 0 {
				j.MaxRunTime = j.RunTime + rng.Int63n(5000)
			}
			if rng.Intn(5) == 0 {
				j.RunTime = 1200 // ties, and runs of identical values
			}
			c.Insert(pointOf(j))
		}
		level := []float64{0.5, 0.9, 0.95}[rng.Intn(3)]
		for _, rel := range []bool{false, true} {
			tpl := Template{Relative: rel, UseAge: true, Pred: PredMean}
			for k := 0; k < 8; k++ {
				age := 1 + rng.Int63n(6000)
				var ys []float64
				c.ForEach(func(p histstore.Point) {
					y := p.RunTime
					if rel {
						y = p.Ratio
					}
					if p.RunTime > float64(age) && !math.IsNaN(y) {
						ys = append(ys, y)
					}
				})
				wantMean, wantHalf, err := stats.MeanCI(ys, level)
				mean, half, ok := estimateCategory(c, tpl, 8, age, level)
				if ok != (err == nil) {
					t.Fatalf("trial %d rel=%v age %d: ok=%v but MeanCI err=%v (%d samples)", trial, rel, age, ok, err, len(ys))
				}
				if ok && (math.Float64bits(mean) != math.Float64bits(wantMean) ||
					math.Float64bits(half) != math.Float64bits(wantHalf)) {
					t.Fatalf("trial %d rel=%v age %d: streamed (%v, %v), MeanCI (%v, %v)",
						trial, rel, age, mean, half, wantMean, wantHalf)
				}
			}
		}
	}
}
