package downey

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func qj(queue string, rt int64) *workload.Job {
	return &workload.Job{Queue: queue, Nodes: 1, RunTime: rt}
}

// seedLogUniform fills a queue with run times drawn so that ln t is uniform
// over [0, ln tmax] — exactly Downey's model, so the fit should recover it.
func seedLogUniform(d *Predictor, queue string, tmax float64, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rt := math.Exp(rng.Float64() * math.Log(tmax))
		d.Observe(qj(queue, int64(math.Max(1, math.Round(rt)))))
	}
}

func TestNoHistoryNoPrediction(t *testing.T) {
	d := New(ConditionalMedian)
	if _, ok := d.Predict(qj("q16m", 0), 0); ok {
		t.Fatal("empty predictor predicted")
	}
}

func TestMinPointsEnforced(t *testing.T) {
	d := New(ConditionalMedian)
	for i := 0; i < minPoints-1; i++ {
		d.Observe(qj("q", int64(100+i*50)))
	}
	if _, ok := d.Predict(qj("q", 0), 0); ok {
		t.Fatalf("predicted with %d points (min %d)", minPoints-1, minPoints)
	}
}

func TestRecoverLogUniformModel(t *testing.T) {
	const tmax = 10000.0
	d := New(ConditionalMedian)
	seedLogUniform(d, "q", tmax, 2000, 3)
	// Unconditional (age 0 → a=1) median should be ≈ sqrt(tmax) = 100.
	got, ok := d.Predict(qj("q", 0), 0)
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(float64(got)-100) > 30 {
		t.Fatalf("median = %d, want ≈100", got)
	}

	avg := New(ConditionalAverage)
	seedLogUniform(avg, "q", tmax, 2000, 3)
	// Unconditional mean of log-uniform on [1, tmax] ≈ tmax/ln(tmax) ≈ 1086.
	got, ok = avg.Predict(qj("q", 0), 0)
	if !ok {
		t.Fatal("no average prediction")
	}
	want := (tmax - 1) / math.Log(tmax)
	if math.Abs(float64(got)-want) > want*0.35 {
		t.Fatalf("average = %d, want ≈%.0f", got, want)
	}
}

func TestConditionalGrowsWithAge(t *testing.T) {
	for _, mode := range []Mode{ConditionalMedian, ConditionalAverage} {
		d := New(mode)
		seedLogUniform(d, "q", 10000, 1000, 7)
		p0, ok0 := d.Predict(qj("q", 0), 0)
		p1, ok1 := d.Predict(qj("q", 0), 500)
		p2, ok2 := d.Predict(qj("q", 0), 5000)
		if !ok0 || !ok1 || !ok2 {
			t.Fatalf("mode %v: predictions failed", mode)
		}
		if !(p0 < p1 && p1 < p2) {
			t.Fatalf("mode %v: conditional estimate should grow with age: %d, %d, %d",
				mode, p0, p1, p2)
		}
		// A conditional estimate never falls below the current age.
		if p2 < 5000 {
			t.Fatalf("mode %v: estimate %d below age 5000", mode, p2)
		}
	}
}

func TestMedianFormula(t *testing.T) {
	// With a perfectly fitted model, conditional median = sqrt(a·tmax).
	d := New(ConditionalMedian)
	seedLogUniform(d, "q", 10000, 5000, 11)
	a := int64(400)
	got, ok := d.Predict(qj("q", 0), a)
	if !ok {
		t.Fatal("no prediction")
	}
	want := math.Sqrt(float64(a) * 10000)
	if math.Abs(float64(got)-want) > want*0.3 {
		t.Fatalf("conditional median = %d, want ≈%.0f", got, want)
	}
}

func TestAgeBeyondTmax(t *testing.T) {
	d := New(ConditionalAverage)
	seedLogUniform(d, "q", 1000, 500, 13)
	got, ok := d.Predict(qj("q", 0), 1e9)
	if !ok || got < 1e9 {
		t.Fatalf("age beyond tmax: got %d, %v", got, ok)
	}
}

func TestQueueIsolation(t *testing.T) {
	d := New(ConditionalMedian)
	seedLogUniform(d, "short", 100, 500, 17)
	seedLogUniform(d, "long", 100000, 500, 19)
	s, _ := d.Predict(qj("short", 0), 0)
	l, _ := d.Predict(qj("long", 0), 0)
	if s >= l {
		t.Fatalf("queue distributions leaked: short=%d long=%d", s, l)
	}
}

func TestDegenerateIdenticalRuntimes(t *testing.T) {
	d := New(ConditionalMedian)
	for i := 0; i < 50; i++ {
		d.Observe(qj("q", 600))
	}
	// All-identical run times give a degenerate (vertical) CDF in ln t;
	// the regression cannot fit and the predictor must decline, not panic.
	if _, ok := d.Predict(qj("q", 0), 0); ok {
		t.Log("degenerate category still predicted (acceptable if positive)")
	}
}

func TestRefitPicksUpNewData(t *testing.T) {
	d := New(ConditionalMedian)
	seedLogUniform(d, "q", 100, 200, 23)
	before, _ := d.Predict(qj("q", 0), 0)
	// Shift the distribution upward with many new long jobs.
	seedLogUniform(d, "q", 1e6, 2000, 29)
	after, ok := d.Predict(qj("q", 0), 0)
	if !ok || after <= before {
		t.Fatalf("fit not refreshed: before=%d after=%d", before, after)
	}
}

// TestPredictIsPure feeds two predictors the same observations, asking one
// after every observation and the other never: afterwards they must predict
// alike, because a prediction may depend only on what was observed.
func TestPredictIsPure(t *testing.T) {
	for _, mode := range []Mode{ConditionalMedian, ConditionalAverage} {
		asked, quiet := New(mode), New(mode)
		rng := rand.New(rand.NewSource(37))
		for i := 0; i < 3*refitInterval; i++ {
			j := qj("q", 1+rng.Int63n(20000))
			asked.Observe(j)
			quiet.Observe(j)
			asked.Predict(qj("q", 0), 0)
		}
		for _, age := range []int64{0, 60, 3600} {
			a, aok := asked.Predict(qj("q", 0), age)
			q, qok := quiet.Predict(qj("q", 0), age)
			if a != q || aok != qok || !aok {
				t.Fatalf("mode %v, age %d: asked after every observation %d, %v; never asked %d, %v",
					mode, age, a, aok, q, qok)
			}
		}
	}
}

// TestHistoryIsBounded feeds a predictor 16384+k observations, the first k
// from a short-running regime, and requires the predictions of a fresh
// predictor fitted on only the last 16384: the evicted regime must leave no
// trace, and a category keeps at most 16384 run times.
func TestHistoryIsBounded(t *testing.T) {
	const bound, k = 16384, 1000 // 16384+k-8 is a multiple of 32: a refit point
	for _, mode := range []Mode{ConditionalMedian, ConditionalAverage} {
		rng := rand.New(rand.NewSource(41))
		jobs := make([]*workload.Job, bound+k)
		for i := range jobs {
			tmax := 1e5
			if i < k {
				tmax = 100
			}
			jobs[i] = qj("q", int64(math.Max(1, math.Round(math.Exp(rng.Float64()*math.Log(tmax))))))
		}
		long, fresh := New(mode), New(mode)
		for _, j := range jobs {
			long.Observe(j)
		}
		for _, j := range jobs[k:] {
			fresh.Observe(j)
		}
		fresh.cats["q"].fit() // 16384 is not itself a refit point
		for _, age := range []int64{0, 60, 3600} {
			l, lok := long.Predict(qj("q", 0), age)
			f, fok := fresh.Predict(qj("q", 0), age)
			if l != f || lok != fok || !lok {
				t.Fatalf("mode %v, age %d: after %d observations %d, %v; fresh on the last %d %d, %v",
					mode, age, bound+k, l, lok, bound, f, fok)
			}
		}
		if n := len(long.cats["q"].runTimes); n != bound {
			t.Fatalf("mode %v: category keeps %d run times, want %d", mode, n, bound)
		}
	}
}

func TestNames(t *testing.T) {
	if New(ConditionalMedian).Name() != "downey-med" ||
		New(ConditionalAverage).Name() != "downey-avg" {
		t.Error("bad names")
	}
}
