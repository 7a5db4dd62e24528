package predict

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// Noisy wraps a predictor and injects controlled multiplicative error into
// its predictions — the instrument of the price-of-misprediction regret
// experiment (Mitzenmacher, arXiv 1902.00732): scheduler and admission
// decisions are driven through a predictor whose error scale and sign bias
// are knobs, so regret can be measured as a function of prediction quality
// instead of being tied to whatever error a particular history happens to
// produce.
//
// Each job's noise factor is a pure function of (Seed, job ID): the same
// job always gets the same distortion within a run, as a real systematic
// mispredictor would produce, and the whole experiment stays bit-for-bit
// reproducible without any global randomness.
type Noisy struct {
	// Inner supplies the base predictions (and receives Observe calls).
	Inner Predictor
	// Scale is the error magnitude: each prediction is multiplied by
	// exp(Scale × u) with u uniform in [-1, 1), so Scale 0 is the identity
	// and Scale 1 distorts predictions by up to e^±1 ≈ 2.7×.
	Scale float64
	// Bias shifts the noise: u is drawn from [Bias-1, Bias+1), so Bias +1
	// only over-predicts and Bias -1 only under-predicts — the asymmetric
	// cases whose costs TARE (arXiv 2607.04935) argues are what schedulers
	// actually pay.
	Bias float64
	// Seed decorrelates replicates.
	Seed int64
}

// Name implements Predictor.
func (n Noisy) Name() string {
	return fmt.Sprintf("%s+err(%.2g,%+.2g)", n.Inner.Name(), n.Scale, n.Bias)
}

// Predict returns the inner prediction distorted by the job's noise factor.
// The result is clamped to at least 1 second so a valid prediction stays
// valid.
func (n Noisy) Predict(j *workload.Job, age int64) (int64, bool) {
	sec, ok := n.Inner.Predict(j, age)
	if !ok || n.Scale == 0 {
		return sec, ok
	}
	u := unitNoise(uint64(n.Seed), uint64(j.ID)) // [0,1)
	f := math.Exp(n.Scale * (n.Bias + 2*u - 1))
	out := int64(math.Round(float64(sec) * f))
	if out < 1 {
		out = 1
	}
	return out, true
}

// Observe forwards to the inner predictor: the history stays truthful,
// only the read side is distorted.
func (n Noisy) Observe(j *workload.Job) { n.Inner.Observe(j) }

// unitNoise hashes (seed, id) into [0, 1) with a splitmix64 finalizer — a
// tiny, allocation-free, deterministic source that keeps math/rand (and
// the detrand lint it would trip) out of the predictor.
func unitNoise(seed, id uint64) float64 {
	x := seed ^ (id+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Static check.
var _ Predictor = Noisy{}
