package stats

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestLogGamma(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{5, math.Log(24)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
		{10.5, 13.940625219404},
	}
	for _, c := range cases {
		if got := LogGamma(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("LogGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLogGammaRecurrence(t *testing.T) {
	// Γ(x+1) = x Γ(x)  =>  lnΓ(x+1) = ln x + lnΓ(x)
	for _, x := range []float64{0.3, 0.7, 1.4, 2.9, 7.6, 33.2} {
		lhs := LogGamma(x + 1)
		rhs := math.Log(x) + LogGamma(x)
		if !almostEq(lhs, rhs, 1e-10) {
			t.Errorf("recurrence failed at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
}

func TestRegIncBetaKnown(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = x^2(3-2x).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := x * x * (3 - 2*x)
		if got := RegIncBeta(2, 2, x); !almostEq(got, want, 1e-10) {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, c := range []struct{ a, b, x float64 }{
		{2, 5, 0.3}, {0.5, 0.5, 0.7}, {10, 3, 0.9}, {1.5, 4.5, 0.05},
	} {
		lhs := RegIncBeta(c.a, c.b, c.x)
		rhs := 1 - RegIncBeta(c.b, c.a, 1-c.x)
		if !almostEq(lhs, rhs, 1e-10) {
			t.Errorf("symmetry failed for %+v: %v vs %v", c, lhs, rhs)
		}
	}
}

func TestTCDFKnown(t *testing.T) {
	// With 1 df, the t distribution is Cauchy: CDF(t) = 1/2 + atan(t)/π.
	for _, x := range []float64{-3, -1, 0, 0.5, 2, 10} {
		want := 0.5 + math.Atan(x)/math.Pi
		if got := TCDF(x, 1); !almostEq(got, want, 1e-9) {
			t.Errorf("TCDF(%v,1) = %v, want %v", x, got, want)
		}
	}
	if got := TCDF(0, 7); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("TCDF(0,7) = %v", got)
	}
}

func TestTCDFSymmetry(t *testing.T) {
	for _, nu := range []float64{1, 2, 5, 30, 200} {
		for _, x := range []float64{0.1, 1, 2.5, 7} {
			if got := TCDF(x, nu) + TCDF(-x, nu); !almostEq(got, 1, 1e-10) {
				t.Errorf("TCDF(%v,%v)+TCDF(-x) = %v, want 1", x, nu, got)
			}
		}
	}
}

func TestTQuantileTableValues(t *testing.T) {
	// Classic two-sided 95% critical values t_{0.975,ν}.
	cases := []struct{ nu, want float64 }{
		{1, 12.7062},
		{2, 4.30265},
		{3, 3.18245},
		{5, 2.57058},
		{10, 2.22814},
		{30, 2.04227},
		{120, 1.97993},
	}
	for _, c := range cases {
		if got := TQuantile(0.975, c.nu); !almostEq(got, c.want, 1e-4) {
			t.Errorf("TQuantile(0.975, %v) = %v, want %v", c.nu, got, c.want)
		}
	}
}

func TestTQuantileRoundTrip(t *testing.T) {
	for _, nu := range []float64{1, 3, 9, 42} {
		for _, p := range []float64{0.01, 0.2, 0.5, 0.8, 0.95, 0.999} {
			q := TQuantile(p, nu)
			if got := TCDF(q, nu); !almostEq(got, p, 1e-8) {
				t.Errorf("round trip p=%v nu=%v: CDF(Q)=%v", p, nu, got)
			}
		}
	}
}

func TestTQuantileEdges(t *testing.T) {
	if !math.IsInf(TQuantile(0, 5), -1) || !math.IsInf(TQuantile(1, 5), 1) {
		t.Error("quantile at 0/1 should be ∓Inf")
	}
	if got := TQuantile(0.5, 5); got != 0 {
		t.Errorf("median should be 0, got %v", got)
	}
	// Symmetry: Q(p) = -Q(1-p).
	if got := TQuantile(0.1, 7) + TQuantile(0.9, 7); !almostEq(got, 0, 1e-9) {
		t.Errorf("quantile symmetry violated: %v", got)
	}
}

func TestNormQuantileKnown(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1}, // Φ(1)
		{0.9772498680518208, 2}, // Φ(2)
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489},
	}
	for _, c := range cases {
		if got := NormQuantile(c.p); !almostEq(got, c.want, 1e-6) {
			t.Errorf("NormQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Round trip through the normal CDF for asymmetric probabilities.
	for _, p := range []float64{0.0228, 0.12, 0.5, 0.77, 0.9999} {
		q := NormQuantile(p)
		if got := 0.5 * math.Erfc(-q/math.Sqrt2); !almostEq(got, p, 1e-9) {
			t.Errorf("Φ(Φ⁻¹(%v)) = %v", p, got)
		}
	}
}

func TestTQuantileApproachesNormal(t *testing.T) {
	// For large ν the t quantile converges to the normal quantile.
	for _, p := range []float64{0.9, 0.975, 0.999} {
		tq := TQuantile(p, 1e6)
		nq := NormQuantile(p)
		if !almostEq(tq, nq, 1e-4) {
			t.Errorf("p=%v: t quantile %v, normal %v", p, tq, nq)
		}
	}
}

// TestTQuantileMemoMatchesBisection checks the dense memo against the
// bisection it caches, bit for bit: whole degrees of freedom across the
// table (first and repeated reads, chunk edges, the last entry), levels on
// both sides of the median, and the inputs computed directly
// (non-integer, below one, past the table).
func TestTQuantileMemoMatchesBisection(t *testing.T) {
	dfs := []float64{1, 2, 3, 29, 255, 256, 257, 4095, 65535, tqMaxDF - 1, // memoized
		0.5, 2.5, 10.25, tqMaxDF, tqMaxDF + 0.5, 1e6} // computed directly
	for _, p := range []float64{0.95, 0.975, 0.6, 0.3, 0.05} {
		for _, nu := range dfs {
			want := tQuantileSlow(p, nu)
			for rep := 0; rep < 2; rep++ {
				if got := TQuantile(p, nu); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("TQuantile(%v, %v) read %d = %v, bisection %v", p, nu, rep, got, want)
				}
			}
		}
	}
}

// TestTQuantileConcurrentFirstTouch races goroutines through the first
// fill of a table's chunks and entries (run it under -race). Every reader
// must see the bisection's value, whichever goroutine published it.
func TestTQuantileConcurrentFirstTouch(t *testing.T) {
	const p = 0.9137
	tab := &tqTable{p: p}
	want := make([]uint64, 600)
	for k := 1; k < len(want); k++ {
		want[k] = math.Float64bits(tQuantileSlow(p, float64(k)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i < len(want); i++ {
				k := 1 + (i*(g+1))%(len(want)-1) // each goroutine walks its own order
				if got := math.Float64bits(tab.quantile(k)); got != want[k] {
					errs <- fmt.Sprintf("goroutine %d: quantile(%d) bits %x, want %x", g, k, got, want[k])
					return
				}
				if got := math.Float64bits(TQuantile(p, float64(k))); got != want[k] {
					errs <- fmt.Sprintf("goroutine %d: TQuantile(%v, %d) bits %x, want %x", g, p, k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestTQuantileMemoAllocationFree pins that a warmed memo read allocates
// nothing.
func TestTQuantileMemoAllocationFree(t *testing.T) {
	TQuantile(0.95, 17) // first touch fills the entry
	if n := testing.AllocsPerRun(100, func() { TQuantile(0.95, 17) }); n != 0 {
		t.Errorf("warmed TQuantile: %v allocs per run, want 0", n)
	}
}
