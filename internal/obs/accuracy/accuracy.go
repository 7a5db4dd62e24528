// Package accuracy is the online prediction-accuracy ledger: the live
// counterpart of the paper's Tables 4–9, which report mean prediction
// error per workload, and the quantity Mitzenmacher's "price of
// misprediction" argues is worth monitoring continuously. Every completed
// job contributes one sample — the predictor's estimate immediately before
// the completion was observed, against the actual run time — keyed by an
// arbitrary stream name (a workload, a template, a queue).
//
// Per key the tracker maintains, all streaming and O(1) per sample:
//
//   - mean and RMS signed error from stats.Moments (the Table 4–9 "mean
//     error" column and its second moment);
//   - p50/p90/p99 absolute-error quantiles from an obs.Histogram — the
//     TARE-style tail view: mean error hides the rare large mispredictions
//     that actually hurt schedulers;
//   - over/under/exact prediction counts (overprediction wastes backfill
//     holes; underprediction breaks reservations);
//   - drift detection: a bounded window of recent errors is compared to
//     the lifetime baseline (every sample that has aged out of the window)
//     with a Welch t-test from streaming moments, debounced so a single
//     unlucky test cannot flap the state. A predictor whose error
//     distribution shifts — new users, new application versions — fires
//     the drift hook once per excursion instead of waiting for the
//     lifetime mean to creep.
//
// The tracker is deterministic (no clocks, no randomness) and safe for
// concurrent use; one mutex guards all streams, which is ample at
// completion rates (predictions far outnumber completions).
package accuracy

import (
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Defaults for New; see the corresponding options.
const (
	DefaultWindow      = 64   // recent-error window per key
	DefaultMinBaseline = 64   // baseline samples required before drift tests run
	DefaultAlpha       = 0.01 // two-sided p-value threshold for drift
	DefaultConfirm     = 4    // consecutive significant tests to enter/leave drift
)

// Drift is the state of one key's drift detector after its latest test.
type Drift struct {
	// T and P are the Welch t statistic and two-sided p-value comparing
	// the recent window to the lifetime baseline.
	T float64 `json:"t"`
	P float64 `json:"p"`
	// WindowN and BaselineN are the sample counts behind the test.
	WindowN   int `json:"windowN"`
	BaselineN int `json:"baselineN"`
	// WindowMean and BaselineMean are the signed-error means being compared.
	WindowMean   float64 `json:"windowMeanSeconds"`
	BaselineMean float64 `json:"baselineMeanSeconds"`
	// Drifting is the debounced drift state: true once the confirm count
	// of consecutive tests have had P < alpha, false again once as many
	// consecutive tests have not. The tracker runs one t-test per sample
	// on overlapping windows, so any single sub-alpha p-value is weak
	// evidence; requiring a run of them keeps the stationary false-alarm
	// rate negligible while a real step change confirms within a handful
	// of completions.
	Drifting bool `json:"drifting"`
}

// stream is one key's accumulated state.
type stream struct {
	err    stats.Moments // lifetime signed error (predicted − actual)
	absErr obs.Histogram // absolute error, for tail quantiles
	over   int64         // predicted > actual
	under  int64         // predicted < actual
	exact  int64         // predicted == actual

	overErr   obs.Histogram // over-prediction magnitudes (signed tail, see tail.go)
	underErr  obs.Histogram // under-prediction magnitudes
	overCost  float64       // Σ over-prediction seconds
	underCost float64       // Σ under-prediction seconds (unscaled; ratio applies at read)

	ring  []float64     // recent signed errors (bounded window)
	pos   int           // next write position once the ring is full
	win   stats.Moments // moments of the ring's current contents
	base  stats.Moments // moments of everything evicted from the ring
	hot   int           // consecutive tests with p < alpha
	cold  int           // consecutive tests with p >= alpha
	drift Drift
}

// scoreSample is the per-sample scoring core: every ledger a stream keeps
// that does not depend on tracker configuration — Welford moments,
// absolute-error histogram, sign counts, and the tail state (tail.go).
// The caller holds the stream exclusively (Record under the tracker
// mutex; benchmarks and the shadow scorer on streams they own), supplies
// any notion of time itself, and no lock is taken beyond the histograms'
// one-time lint-allowed seeding.
//
// hotpath: no-lock no-alloc no-clock
func (s *stream) scoreSample(e float64) {
	s.err.Add(e)
	s.absErr.Observe(math.Abs(e))
	switch {
	case e > 0:
		s.over++
	case e < 0:
		s.under++
	default:
		s.exact++
	}
	s.scoreTail(e)
}

// Tracker maintains accuracy streams by key.
type Tracker struct {
	window      int
	minBaseline int
	alpha       float64
	confirm     int
	costRatio   float64
	onDrift     func(key string, d Drift)

	mu      sync.Mutex
	streams map[string]*stream
}

// Option configures a Tracker.
type Option func(*Tracker)

// WithWindow sets the recent-error window size (minimum 2).
func WithWindow(n int) Option {
	return func(t *Tracker) {
		if n < 2 {
			n = 2
		}
		t.window = n
	}
}

// WithMinBaseline sets how many samples must have aged out of the window
// before drift tests run (minimum 2). A small baseline makes the detector
// eager; the default waits for one full window of history.
func WithMinBaseline(n int) Option {
	return func(t *Tracker) {
		if n < 2 {
			n = 2
		}
		t.minBaseline = n
	}
}

// WithAlpha sets the drift p-value threshold (0 < alpha < 1).
func WithAlpha(a float64) Option {
	return func(t *Tracker) {
		if a > 0 && a < 1 {
			t.alpha = a
		}
	}
}

// WithConfirm sets the debounce depth: how many consecutive significant
// tests enter drift, and how many consecutive non-significant tests leave
// it (minimum 1; 1 means every test flips state directly).
func WithConfirm(n int) Option {
	return func(t *Tracker) {
		if n < 1 {
			n = 1
		}
		t.confirm = n
	}
}

// WithCostRatio sets the asymmetric cost ratio: how many seconds of
// over-prediction one second of under-prediction is worth in the tail
// composite and the mean asymmetric cost (stats.AsymCost). Values at or
// below zero keep the default.
func WithCostRatio(r float64) Option {
	return func(t *Tracker) {
		if r > 0 {
			t.costRatio = r
		}
	}
}

// WithOnDrift installs f, called once each time a key's detector
// transitions into drift (not on every drifting sample). f runs outside
// the tracker's lock; it may call back into the tracker.
func WithOnDrift(f func(key string, d Drift)) Option {
	return func(t *Tracker) { t.onDrift = f }
}

// New creates an empty tracker.
func New(opts ...Option) *Tracker {
	t := &Tracker{
		window:      DefaultWindow,
		minBaseline: DefaultMinBaseline,
		alpha:       DefaultAlpha,
		confirm:     DefaultConfirm,
		costRatio:   stats.DefaultCostRatio,
		streams:     make(map[string]*stream),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Window returns the configured recent-error window size.
func (t *Tracker) Window() int { return t.window }

// CostRatio returns the configured asymmetric cost ratio.
func (t *Tracker) CostRatio() float64 { return t.costRatio }

// DriftState returns the latest drift state for key, or a zero Drift if
// the key is unknown or has not run a drift test yet.
func (t *Tracker) DriftState(key string) Drift {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.streams[key]; ok {
		return s.drift
	}
	return Drift{}
}

// Reset discards all accumulated state for key. The re-selection
// controller calls it after switching predictors so the stream scores the
// new regime from scratch — keeping the old baseline would hold the drift
// detector in alarm against history the new predictor never produced.
func (t *Tracker) Reset(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.streams, key)
}

// Record feeds one completion under key: the run time that was predicted
// for the job and the run time it actually achieved, both in seconds.
func (t *Tracker) Record(key string, predicted, actual float64) {
	if math.IsNaN(predicted) || math.IsNaN(actual) {
		return
	}
	e := predicted - actual
	var fired *Drift
	t.mu.Lock()
	s, ok := t.streams[key]
	if !ok {
		s = &stream{}
		t.streams[key] = s
	}
	s.scoreSample(e)
	// Window update: a full ring evicts its oldest error into the baseline.
	if len(s.ring) < t.window {
		s.ring = append(s.ring, e)
		s.win.Add(e)
	} else {
		old := s.ring[s.pos]
		s.ring[s.pos] = e
		s.pos = (s.pos + 1) % t.window
		s.win.Remove(old)
		s.win.Add(e)
		s.base.Add(old)
	}
	// Drift test, once the window is full and the baseline is deep enough.
	if s.win.N == t.window && s.base.N >= t.minBaseline {
		if r, err := stats.WelchTMoments(s.win, s.base); err == nil {
			if r.P < t.alpha {
				s.hot++
				s.cold = 0
			} else {
				s.cold++
				s.hot = 0
			}
			was := s.drift.Drifting
			drifting := was
			if !was && s.hot >= t.confirm {
				drifting = true
			} else if was && s.cold >= t.confirm {
				drifting = false
			}
			s.drift = Drift{
				T: r.T, P: r.P,
				WindowN: s.win.N, BaselineN: s.base.N,
				WindowMean: s.win.Mean, BaselineMean: s.base.Mean,
				Drifting: drifting,
			}
			if drifting && !was && t.onDrift != nil {
				d := s.drift
				fired = &d
			}
		}
	}
	t.mu.Unlock()
	if fired != nil {
		t.onDrift(key, *fired)
	}
}

// KeySnapshot summarizes one key's accuracy, shaped for /v1/accuracy.
// Errors are signed predicted − actual in seconds; the quantiles are over
// absolute errors (TARE's tail view).
type KeySnapshot struct {
	Count        int64   `json:"count"`
	MeanError    float64 `json:"meanErrorSeconds"`
	RMSError     float64 `json:"rmsErrorSeconds"`
	MeanAbsError float64 `json:"meanAbsErrorSeconds"`
	MaxAbsError  float64 `json:"maxAbsErrorSeconds"`
	P50AbsError  float64 `json:"p50AbsErrorSeconds"`
	P90AbsError  float64 `json:"p90AbsErrorSeconds"`
	P99AbsError  float64 `json:"p99AbsErrorSeconds"`
	Over         int64   `json:"over"`
	Under        int64   `json:"under"`
	Exact        int64   `json:"exact"`
	Drift        Drift   `json:"drift"`

	// Tail view (tail.go): signed-error quantiles composed from the
	// over/under magnitude histograms, asymmetric costs, and the
	// TARE-style tail-weighted composites. WindowTailScore covers only
	// the recent drift window and is what the shadow scoreboard ranks by.
	P50Error         float64 `json:"p50ErrorSeconds"`
	P90Error         float64 `json:"p90ErrorSeconds"`
	P99Error         float64 `json:"p99ErrorSeconds"`
	OverCostSeconds  float64 `json:"overCostSeconds"`
	UnderCostSeconds float64 `json:"underCostSeconds"`
	MeanAsymCost     float64 `json:"meanAsymCostSeconds"`
	CostRatio        float64 `json:"costRatio"`
	TailScore        float64 `json:"tailScore"`
	WindowTailScore  float64 `json:"windowTailScore"`
	WindowCount      int     `json:"windowCount"`
}

// snapshotLocked builds one key's snapshot; the caller holds the lock.
// ratio is the tracker's asymmetric cost ratio.
func (s *stream) snapshotLocked(ratio float64) KeySnapshot {
	hs := s.absErr.Snapshot()
	ks := KeySnapshot{
		Count:        int64(s.err.N),
		MeanAbsError: hs.Mean,
		MaxAbsError:  hs.Max,
		P50AbsError:  hs.P50,
		P90AbsError:  hs.P90,
		P99AbsError:  hs.P99,
		Over:         s.over,
		Under:        s.under,
		Exact:        s.exact,
		Drift:        s.drift,
	}
	if s.err.N > 0 {
		n := float64(s.err.N)
		ks.MeanError = s.err.Mean
		// E[e²] = M2/n + mean²: the RMS error from the same Welford state
		// that provides the mean, no second pass over the stream.
		ks.RMSError = math.Sqrt(s.err.M2/n + s.err.Mean*s.err.Mean)
	}
	s.tailSnapshotLocked(&ks, ratio)
	return ks
}

// Snapshot returns every key's summary. The map is a fresh copy.
func (t *Tracker) Snapshot() map[string]KeySnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]KeySnapshot, len(t.streams))
	for k, s := range t.streams {
		out[k] = s.snapshotLocked(t.costRatio)
	}
	return out
}

// Keys returns the tracked keys in sorted order.
func (t *Tracker) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.streams))
	for k := range t.streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Publish refreshes the tracker's gauges on reg: per key,
// accuracy.<key>.{count, mean_error_seconds, rms_error_seconds,
// p99_abs_error_seconds, over, under, drift_p, drifting}. Metrics
// handlers call it before snapshotting the registry, mirroring
// histstore.RefreshMetrics.
func (t *Tracker) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for k, ks := range t.Snapshot() {
		prefix := "accuracy." + k + "."
		reg.Gauge(prefix + "count").SetInt(ks.Count)
		reg.Gauge(prefix + "mean_error_seconds").Set(ks.MeanError)
		reg.Gauge(prefix + "rms_error_seconds").Set(ks.RMSError)
		reg.Gauge(prefix + "p99_abs_error_seconds").Set(ks.P99AbsError)
		reg.Gauge(prefix + "over").SetInt(ks.Over)
		reg.Gauge(prefix + "under").SetInt(ks.Under)
		reg.Gauge(prefix + "p50_error_seconds").Set(ks.P50Error)
		reg.Gauge(prefix + "p90_error_seconds").Set(ks.P90Error)
		reg.Gauge(prefix + "p99_error_seconds").Set(ks.P99Error)
		reg.Gauge(prefix + "mean_asym_cost_seconds").Set(ks.MeanAsymCost)
		reg.Gauge(prefix + "tail_score").Set(ks.TailScore)
		reg.Gauge(prefix + "window_tail_score").Set(ks.WindowTailScore)
		reg.Gauge(prefix + "drift_p").Set(ks.Drift.P)
		var drifting float64
		if ks.Drift.Drifting {
			drifting = 1
		}
		reg.Gauge(prefix + "drifting").Set(drifting)
	}
}
