package accuracy

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Reselector closes the observability loop into control: it scores the
// serving predictor on every completion, shadow-scores the whole stable
// beside it, and — when the serving stream's Welch-t drift detector
// confirms a distribution shift — switches the serving predictor to the
// shadow scoreboard's winner.
//
// Two guards keep the controller from flapping:
//
//   - hysteresis: the winner's window tail score must undercut the
//     incumbent's by a configured fraction, so two statistically
//     indistinguishable predictors never trade places on noise;
//   - min-dwell: after a switch, no further switch is considered until a
//     configured number of completions have passed, so one drifting
//     window cannot drive a cascade while the fresh serving stream is
//     still warming.
//
// Every switch emits a structured SwitchEvent (bounded ring), a trace
// span on the caller's context ("accuracy.reselect"), an optional
// OnSwitch callback, and counters published as accuracy.reselect.*.
// After a switch the serving stream is Reset: its baseline described the
// old predictor's error distribution, and holding the new predictor in
// alarm against it would retrigger immediately.
//
// All notions of time are caller-supplied (the simulator passes sim
// time; the service passes wall time from its own clock); the controller
// itself never reads a clock, so simulation runs stay deterministic.
type Reselector struct {
	serving *Tracker
	shadow  *Shadow
	sw      *predict.Switchable
	cfg     ReselectConfig

	mu             sync.Mutex
	completions    int64
	lastSwitch     int64 // completions at the most recent switch
	switches       int64
	considered     int64 // drift was confirmed and a switch was evaluated
	heldDwell      int64 // evaluation skipped: inside the dwell period
	heldImproving  int64 // drift reflects improvement, not deterioration
	heldIncumbent  int64 // incumbent already leads the scoreboard
	heldHysteresis int64 // winner existed but missed the hysteresis margin
	events         []SwitchEvent
}

// ReselectConfig tunes the controller; zero values take the defaults.
type ReselectConfig struct {
	// Key is the serving stream's tracker key (default "serving").
	Key string
	// Hysteresis is the fractional margin the challenger must win by:
	// switch only if challenger < incumbent·(1−Hysteresis). Default 0.1.
	Hysteresis float64
	// MinDwell is the minimum number of completions between switches.
	// Default 2× the serving tracker's window.
	MinDwell int64
	// MaxEvents bounds the retained switch-event ring. Default 32.
	MaxEvents int
	// Frozen disables switching entirely: the pipeline still scores the
	// serving predictor and shadow-trains the stable — the scoreboard and
	// drift telemetry stay live — but the serving predictor never changes.
	// This is the service's shadow-only observability mode.
	Frozen bool
	// OnSwitch, when set, is called after each switch, outside the
	// controller's lock.
	OnSwitch func(SwitchEvent)
}

// SwitchEvent is the structured record of one predictor switch.
type SwitchEvent struct {
	Seq         int64   `json:"seq"`
	At          float64 `json:"at"` // caller-supplied time (sim seconds or unix seconds)
	From        string  `json:"from"`
	To          string  `json:"to"`
	FromScore   float64 `json:"fromScore"` // incumbent's window tail score at the switch
	ToScore     float64 `json:"toScore"`   // winner's window tail score at the switch
	Drift       Drift   `json:"drift"`     // the serving-stream drift state that triggered it
	Completions int64   `json:"completions"`
}

// DefaultHysteresis and DefaultMaxEvents are the ReselectConfig defaults.
const (
	DefaultHysteresis = 0.1
	DefaultMaxEvents  = 32
)

// NewReselector wires a controller over the switchable serving predictor
// sw, the shadow stable, and a serving tracker (whose drift detector is
// the trigger). serving may be nil for a fresh default tracker.
func NewReselector(sw *predict.Switchable, shadow *Shadow, serving *Tracker, cfg ReselectConfig) *Reselector {
	if serving == nil {
		serving = New()
	}
	if cfg.Key == "" {
		cfg.Key = "serving"
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = DefaultHysteresis
	}
	if cfg.MinDwell <= 0 {
		cfg.MinDwell = 2 * int64(serving.Window())
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &Reselector{serving: serving, shadow: shadow, sw: sw, cfg: cfg}
}

// Serving returns the serving-stream tracker (for publication).
func (r *Reselector) Serving() *Tracker { return r.serving }

// Shadow returns the shadow stable.
func (r *Reselector) Shadow() *Shadow { return r.shadow }

// Switchable returns the serving predictor handle.
func (r *Reselector) Switchable() *predict.Switchable { return r.sw }

// ObserveAt feeds one completion through the whole pipeline at the
// caller-supplied time now: score the serving predictor, shadow-score and
// train the stable, then evaluate re-selection if the serving stream is
// in confirmed drift. A span is attached to ctx when it carries one.
func (r *Reselector) ObserveAt(ctx context.Context, now float64, j *workload.Job) {
	actual := float64(j.RunTime)
	r.mu.Lock()
	est := float64(predict.Estimate(r.sw, j, 0, predict.DefaultRuntime))
	r.serving.Record(r.cfg.Key, est, actual)
	r.shadow.ScoreAndObserve(j, actual)
	r.completions++
	ev := r.maybeReselectLocked(now)
	r.mu.Unlock()
	if ev != nil {
		_, sp := trace.StartSpan(ctx, "accuracy.reselect")
		sp.SetAttr("from", ev.From)
		sp.SetAttr("to", ev.To)
		sp.SetAttrInt("seq", ev.Seq)
		sp.SetAttrInt("completions", ev.Completions)
		sp.End()
		if r.cfg.OnSwitch != nil {
			r.cfg.OnSwitch(*ev)
		}
	}
}

// maybeReselectLocked evaluates one potential switch; the caller holds
// r.mu. It returns the event when a switch happened.
func (r *Reselector) maybeReselectLocked(now float64) *SwitchEvent {
	if r.cfg.Frozen {
		return nil
	}
	d := r.serving.DriftState(r.cfg.Key)
	if !d.Drifting {
		return nil
	}
	if r.completions-r.lastSwitch < r.cfg.MinDwell {
		r.heldDwell++
		return nil
	}
	// Only deteriorations justify a switch. The Welch-t detector is
	// two-sided: a predictor whose recent window scores BETTER than its
	// lifetime baseline (warm-up, a regime it happens to like) is also
	// statistically "drifting", and abandoning an improving predictor is
	// exactly the flap hysteresis exists to prevent.
	ratio := r.serving.CostRatio()
	if !(stats.AsymCost(d.WindowMean, ratio) > stats.AsymCost(d.BaselineMean, ratio)) {
		r.heldImproving++
		return nil
	}
	r.considered++
	board := r.shadow.Scoreboard()
	if len(board) == 0 || !board[0].Eligible {
		return nil
	}
	best := board[0]
	cur := r.sw.Name()
	if best.Name == cur {
		r.heldIncumbent++
		return nil
	}
	// Hysteresis against the incumbent's own shadow score. An incumbent
	// missing from the stable (or not yet eligible) cannot defend itself;
	// the confirmed drift alone justifies the switch.
	var curScore float64
	for _, e := range board {
		if e.Name == cur {
			if e.Eligible {
				curScore = e.Score
				if !(best.Score < curScore*(1-r.cfg.Hysteresis)) {
					r.heldHysteresis++
					return nil
				}
			}
			break
		}
	}
	to := r.shadow.Member(best.Name)
	if to == nil {
		return nil
	}
	r.sw.Use(to)
	// The serving stream's history belongs to the old predictor; scoring
	// the successor against it would hold the detector in alarm.
	r.serving.Reset(r.cfg.Key)
	r.switches++
	r.lastSwitch = r.completions
	ev := SwitchEvent{
		Seq: r.switches, At: now,
		From: cur, To: best.Name,
		FromScore: curScore, ToScore: best.Score,
		Drift: d, Completions: r.completions,
	}
	r.events = append(r.events, ev)
	if len(r.events) > r.cfg.MaxEvents {
		r.events = r.events[len(r.events)-r.cfg.MaxEvents:]
	}
	return &ev
}

// Switched returns the predictor a switch has installed in place of base,
// or nil while base serves. Stable members such as Gibbons and Downey are
// not safe for concurrent use, so the returned predictor runs each call
// under the controller's mutex, the one ObserveAt holds while it trains
// the stable. While base serves, the caller predicts with base directly
// and takes no lock; base must therefore be concurrency-safe.
func (r *Reselector) Switched(base predict.Predictor) predict.Predictor {
	cur := r.sw.Current()
	if cur == base {
		return nil
	}
	return lockedMember{mu: &r.mu, p: cur}
}

// lockedMember serializes a stable member's calls with the stable's
// training on the controller's mutex.
type lockedMember struct {
	mu *sync.Mutex
	p  predict.Predictor
}

func (m lockedMember) Name() string { return m.p.Name() }

func (m lockedMember) Predict(j *workload.Job, age int64) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p.Predict(j, age)
}

func (m lockedMember) Observe(j *workload.Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.p.Observe(j)
}

// Events returns a copy of the retained switch events, oldest first.
func (r *Reselector) Events() []SwitchEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SwitchEvent(nil), r.events...)
}

// Switches returns the number of switches performed so far.
func (r *Reselector) Switches() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.switches
}

// Publish refreshes the accuracy.reselect.* counter family on reg.
func (r *Reselector) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.mu.Lock()
	switches, considered := r.switches, r.considered
	heldDwell, heldHyst := r.heldDwell, r.heldHysteresis
	heldInc, heldImp := r.heldIncumbent, r.heldImproving
	completions := r.completions
	r.mu.Unlock()
	reg.Gauge("accuracy.reselect.switches").SetInt(switches)
	reg.Gauge("accuracy.reselect.considered").SetInt(considered)
	reg.Gauge("accuracy.reselect.held_dwell").SetInt(heldDwell)
	reg.Gauge("accuracy.reselect.held_hysteresis").SetInt(heldHyst)
	reg.Gauge("accuracy.reselect.held_incumbent").SetInt(heldInc)
	reg.Gauge("accuracy.reselect.held_improving").SetInt(heldImp)
	reg.Gauge("accuracy.reselect.completions").SetInt(completions)
}

// Reselector doubles as a predict.Predictor so the simulator can drive
// the full observe→score→reselect pipeline with no engine changes: the
// engine's one Observe per completion becomes the controller tick, with
// the job's own end time as the event clock.

// Name reports the currently serving predictor's name.
func (r *Reselector) Name() string { return r.sw.Name() }

// Predict delegates to the serving predictor.
func (r *Reselector) Predict(j *workload.Job, age int64) (int64, bool) {
	return r.sw.Predict(j, age)
}

// Observe implements predict.Predictor over ObserveAt with the job's end
// time as the event clock and no trace context.
func (r *Reselector) Observe(j *workload.Job) {
	r.ObserveAt(context.Background(), float64(j.EndTime), j)
}

var _ predict.Predictor = (*Reselector)(nil)
