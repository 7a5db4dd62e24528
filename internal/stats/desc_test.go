package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestSumKahan(t *testing.T) {
	// 1 followed by many tiny values that naive summation loses.
	xs := make([]float64, 1_000_001)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-13 {
		t.Fatalf("Kahan Sum = %.18f, want %.18f", got, want)
	}
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: ss = 32, n-1 = 7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one point should be NaN")
	}
}

func TestMeanVarMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 1000
		}
		m1, v1 := MeanVar(xs)
		m2, v2 := Mean(xs), Variance(xs)
		if !almostEq(m1, m2, 1e-10) || !almostEq(v1, v2, 1e-8) {
			t.Fatalf("MeanVar (%v,%v) != two-pass (%v,%v)", m1, v1, m2, v2)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var o Online
	var xs []float64
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64() * 50
		o.Add(x)
		xs = append(xs, x)
	}
	if o.N() != 500 {
		t.Fatalf("N = %d", o.N())
	}
	if !almostEq(o.Mean(), Mean(xs), 1e-10) {
		t.Errorf("online mean %v != batch %v", o.Mean(), Mean(xs))
	}
	if !almostEq(o.Variance(), Variance(xs), 1e-8) {
		t.Errorf("online var %v != batch %v", o.Variance(), Variance(xs))
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if !math.IsNaN(o.Mean()) || !math.IsNaN(o.Variance()) {
		t.Error("empty Online should report NaN mean/variance")
	}
}

func TestMeanCI(t *testing.T) {
	// Known small-sample case: n=4, values {1,2,3,4}: mean 2.5,
	// s = sqrt(5/3) ≈ 1.29099, t(0.975, 3) ≈ 3.18245.
	mean, half, err := MeanCI([]float64{1, 2, 3, 4}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mean, 2.5, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	wantHalf := 3.182446305 * math.Sqrt(5.0/3.0) / 2
	if !almostEq(half, wantHalf, 1e-6) {
		t.Errorf("half = %v, want %v", half, wantHalf)
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, _, err := MeanCI([]float64{1}, 0.95); err != ErrInsufficientData {
		t.Fatalf("want ErrInsufficientData, got %v", err)
	}
	// Identical points: zero-width interval, no error.
	_, half, err := MeanCI([]float64{5, 5, 5}, 0.95)
	if err != nil || half != 0 {
		t.Fatalf("identical points: half=%v err=%v", half, err)
	}
}

// Property: the CI half-width shrinks as the confidence level drops and as
// the sample grows (for a fixed underlying distribution).
func TestMeanCIMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	_, h90, _ := MeanCI(xs, 0.90)
	_, h99, _ := MeanCI(xs, 0.99)
	if h90 >= h99 {
		t.Errorf("90%% CI (%v) should be narrower than 99%% CI (%v)", h90, h99)
	}
}

// quick-check property: mean is translation-equivariant and within [min,max].
func TestMeanPropertyQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// quick-check property: variance is non-negative and shift-invariant.
func TestVariancePropertyQuick(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			shift = 1
		}
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		v := Variance(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		v2 := Variance(shifted)
		return v >= -1e-9 && almostEq(v, v2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
