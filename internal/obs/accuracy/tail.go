package accuracy

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Tail-aware scoring state: the per-stream signed-error tail view layered
// on top of the mean/RMS ledger in accuracy.go. Mean error hides what a
// scheduler actually pays for — the rare large miss, and the sign of the
// miss. Each stream therefore keeps, beyond the Welford moments:
//
//   - two magnitude histograms, one for over-predictions and one for
//     under-predictions, from which any signed-error quantile can be
//     composed (signedQuantile) without retaining samples;
//   - running over/under cost sums (plain Σ of magnitudes, in arrival
//     order, so an offline recomputation is bit-for-bit equal);
//   - a TARE-style tail-weighted composite (stats.TailComposite over the
//     signed p50/p90/p99 with the tracker's asymmetric cost ratio), both
//     lifetime and over the recent drift window — the latter is what the
//     shadow scoreboard ranks predictors by, because after a regime
//     change the lifetime tails are dominated by the old regime.

// scoreTail is the tail half of the per-sample scoring core: magnitude
// histograms by sign and the running cost sums. Split from scoreSample
// only for readability; the same contract applies (the caller holds the
// stream exclusively, no clock is read, no lock is taken beyond the
// histograms' one-time lint-allowed seeding).
//
// hotpath: no-lock no-alloc no-clock
func (s *stream) scoreTail(e float64) {
	switch {
	case e > 0:
		s.overErr.Observe(e)
		s.overCost += e
	case e < 0:
		s.underErr.Observe(-e)
		s.underCost += -e
	}
}

// signedQuantile composes the q-quantile of a signed error distribution
// from its two magnitude histograms and the three sign counts. The signed
// values ascend from the largest under-prediction through zero to the
// largest over-prediction, so a rank landing in the under region reads
// the magnitude histogram backwards. Zero-mass regions are skipped; an
// entirely empty distribution scores zero.
func signedQuantile(under, over *obs.Histogram, underN, exactN, overN int64, q float64) float64 {
	total := underN + exactN + overN
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if underN > 0 {
		if rank <= float64(underN) {
			// Ascending signed order inside the under region is descending
			// magnitude order: the first rank is -(max magnitude).
			return -under.Quantile(1 - rank/float64(underN))
		}
		rank -= float64(underN)
	}
	if exactN > 0 {
		if rank <= float64(exactN) {
			return 0
		}
		rank -= float64(exactN)
	}
	if overN > 0 {
		return over.Quantile(rank / float64(overN))
	}
	// No over mass and the rank cleared every lower region: the largest
	// value present is an exact hit, or failing that the smallest under.
	if exactN > 0 {
		return 0
	}
	return -under.Quantile(0)
}

// tailSnapshotLocked fills the tail fields of a KeySnapshot; the caller
// holds the tracker lock. ratio is the tracker's asymmetric cost ratio.
func (s *stream) tailSnapshotLocked(ks *KeySnapshot, ratio float64) {
	ks.CostRatio = ratio
	ks.P50Error = signedQuantile(&s.underErr, &s.overErr, s.under, s.exact, s.over, 0.50)
	ks.P90Error = signedQuantile(&s.underErr, &s.overErr, s.under, s.exact, s.over, 0.90)
	ks.P99Error = signedQuantile(&s.underErr, &s.overErr, s.under, s.exact, s.over, 0.99)
	ks.OverCostSeconds = s.overCost
	ks.UnderCostSeconds = s.underCost
	if n := s.under + s.exact + s.over; n > 0 {
		ks.MeanAsymCost = (s.overCost + ratio*s.underCost) / float64(n)
	}
	ks.TailScore = stats.TailComposite(ks.P50Error, ks.P90Error, ks.P99Error, ratio)
	ks.WindowCount = len(s.ring)
	if len(s.ring) > 0 {
		sorted := append([]float64(nil), s.ring...)
		sort.Float64s(sorted)
		qs := stats.QuantilesSorted(sorted, 0.50, 0.90, 0.99)
		ks.WindowTailScore = stats.TailComposite(qs[0], qs[1], qs[2], ratio)
	}
}
