// Package admission closes the loop the paper leaves open: its wait-time
// predictor (§3, §5) is consumed offline, but a production scheduler would
// run the estimate at each arrival and decide — before the job ever queues
// — whether admitting it can meet the job's service-level objective.
//
// The AdmissionController here does exactly that. On arrival it estimates
// the job's queue wait against the live scheduler state (the state-based
// predictor of §5 when it has matching history, the §3 forward simulation
// otherwise) and compares the estimate with the job's SLO class budget:
//
//   - every job belongs to an SLO class (interactive / standard / batch by
//     default) with a wait budget;
//   - a headroom multiplier widens or tightens every budget at once — the
//     operator's knob for trading shed rate against SLO attainment;
//   - classes marked sheddable are rejected when their estimated wait
//     exceeds the (headroom-scaled) budget, optionally after trying to
//     overflow into a designated lower-SLO class's remaining budget;
//   - classes not marked sheddable are admitted anyway but counted, so
//     over-budget admissions are visible;
//   - per-class token budgets cap how many admissions a class may consume
//     per window, so a flood in one class cannot starve the rest.
//
// The decision entry point (Decide) carries a // hotpath: contract: it is
// pure arithmetic over atomics — no locks, no clock reads — so it can sit
// on a scheduler's submission path. The wait estimation (EvaluateCtx) does
// the forward simulation and is traced as an "admission.decide" span.
//
// The shape of the controller follows the inference-sim iter-14
// PredictiveSLOAdmission design (SNIPPETS.md): physics-informed admission
// using the same predictions that drive the scheduler, per-class budgets,
// a headroom knob, and never shedding traffic whose class forbids it.
package admission

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// ClassConfig is the SLO contract of one admission class.
type ClassConfig struct {
	// WaitBudgetSec is the class's wait SLO in seconds: a job whose
	// estimated wait exceeds Headroom × WaitBudgetSec is over budget.
	// Zero means the class has no wait SLO (every estimate is within
	// budget).
	WaitBudgetSec int64 `json:"waitBudgetSec"`
	// AlwaysAdmit bypasses both the budget and the token cap — for
	// critical traffic that must never be shed (the iter-14 rule:
	// "Critical: ALWAYS admit").
	AlwaysAdmit bool `json:"alwaysAdmit,omitempty"`
	// Sheddable jobs are rejected when over budget; non-sheddable jobs
	// are admitted anyway and counted as over-budget admissions.
	Sheddable bool `json:"sheddable,omitempty"`
	// TokensPerWindow caps admissions of this class per token window
	// (0 = uncapped). Tokens are consumed only by admitted jobs.
	TokensPerWindow int64 `json:"tokensPerWindow,omitempty"`
}

// Config assembles an AdmissionController.
type Config struct {
	// Classes maps class names to their SLO contracts. Required.
	Classes map[string]ClassConfig
	// DefaultClass receives jobs whose class label is empty or unknown.
	// It must be a key of Classes. Empty selects "standard" when present,
	// otherwise construction fails.
	DefaultClass string
	// Headroom multiplies every budget at decision time: 1.0 admits up to
	// the exact budget, 2.0 admits estimates up to twice the budget, 0.5
	// sheds anything beyond half. Zero defaults to 1.0; negative values
	// are rejected.
	Headroom float64
	// OverflowClass, when set, names the class whose remaining budget and
	// tokens an over-budget sheddable job may fall back to before being
	// shed (admitted with Overflow=true). Must be a key of Classes.
	OverflowClass string
	// TokenWindowSec is the token-replenishment window in seconds
	// (default 3600). Windows are anchored to the decision clock passed
	// into Decide, so simulated and wall-clock deployments both work.
	TokenWindowSec int64
	// Classifier extracts a job's class label; nil uses Job.Class.
	// Labels not present in Classes fall back to DefaultClass.
	Classifier func(j *workload.Job) string

	// TotalNodes is the machine size the wait estimates simulate against.
	TotalNodes int
	// Policy is the scheduling policy the forward simulation replays.
	Policy sim.Policy
	// Predictor supplies the assumed durations of queued and running jobs
	// for the forward simulation (the predictor under test, §3).
	Predictor predict.Predictor
	// Decision supplies the estimates the simulated scheduler itself uses
	// (maximum run times in the paper's deployed configuration). Nil uses
	// Predictor.
	Decision predict.Predictor
	// DefaultRT is the estimate of last resort (0 = predict.DefaultRuntime).
	DefaultRT int64
	// StatePred, when non-nil, is consulted first: if the state-based
	// predictor (§5) has history for the current scheduler state, its
	// estimate is used and the forward simulation is skipped. Feed it
	// realized waits with RecordStart (Attach wires this automatically).
	StatePred *waitpred.StatePredictor
	// Metrics, when non-nil, receives the admission.* counters and gauges.
	Metrics *obs.Registry
}

// Reason explains an admission decision.
type Reason string

// The decision reasons, in rough order of desirability.
const (
	// ReasonAlways: the class is marked AlwaysAdmit.
	ReasonAlways Reason = "always"
	// ReasonWithinBudget: the estimated wait fits the headroom-scaled budget.
	ReasonWithinBudget Reason = "within_budget"
	// ReasonNoPrediction: no wait estimate was available; the controller
	// fails open (an admission controller that sheds blind is worse than
	// none).
	ReasonNoPrediction Reason = "no_prediction"
	// ReasonOverBudget: over budget but the class is not sheddable.
	ReasonOverBudget Reason = "over_budget"
	// ReasonOverflow: over its own budget but admitted into the overflow
	// class's remaining budget and tokens.
	ReasonOverflow Reason = "overflow"
	// ReasonShedBudget: over budget and sheddable — rejected.
	ReasonShedBudget Reason = "shed_budget"
	// ReasonShedTokens: the class exhausted its admission tokens for the
	// current window — rejected.
	ReasonShedTokens Reason = "shed_tokens"
)

// Decision is the outcome of one admission evaluation.
type Decision struct {
	// Admit reports whether the job may enter the queue.
	Admit bool `json:"admit"`
	// Class is the SLO class the job was filed under.
	Class string `json:"class"`
	// Reason explains the outcome.
	Reason Reason `json:"reason"`
	// Source names the wait estimator used: "state" (§5 state-based),
	// "forward" (§3 forward simulation), or "none".
	Source string `json:"source,omitempty"`
	// PredictedWaitSec is the estimated queue wait (0 when Source is "none").
	PredictedWaitSec int64 `json:"predictedWaitSec"`
	// BudgetSec is the class's base wait budget.
	BudgetSec int64 `json:"budgetSec"`
	// EffectiveBudgetSec is the headroom-scaled budget the estimate was
	// compared against.
	EffectiveBudgetSec int64 `json:"effectiveBudgetSec"`
	// Overflow reports admission via the overflow class.
	Overflow bool `json:"overflow,omitempty"`
}

// classState is one class's runtime state: its config, its token bucket,
// and its cached per-class counters. Token state is atomics-only so the
// decision path takes no locks.
type classState struct {
	cfg         ClassConfig
	name        string
	effBudget   int64 // Headroom × WaitBudgetSec, precomputed
	windowStart atomic.Int64
	taken       atomic.Int64
	admitted    *obs.Counter
	shed        *obs.Counter
}

// Controller decides admission per SLO class from online wait estimates.
// All methods are safe for concurrent use; Decide is lock-free.
type Controller struct {
	cfg Config
	// bounded by the validated Config: the class table is populated once in
	// New from cfg.Classes and never grows afterward
	classes     map[string]*classState
	defaultCls  *classState
	overflowCls *classState // nil when no overflow is configured
	tokenWindow int64

	mDecisions    *obs.Counter
	mAdmitted     *obs.Counter
	mShed         *obs.Counter
	mShedBudget   *obs.Counter
	mShedTokens   *obs.Counter
	mOverflow     *obs.Counter
	mOverBudget   *obs.Counter
	mNoPrediction *obs.Counter
	mStateEst     *obs.Counter
	mForwardEst   *obs.Counter
}

// Validate checks the configuration without mutating it: the class table,
// budgets, headroom, machine size, and the policy/predictor wiring must all
// be coherent before a controller is built from them. Fields with a
// documented zero-value default (DefaultClass, Headroom, TokenWindowSec,
// Decision, DefaultRT) are treated as unset rather than invalid; New applies
// those defaults after validation. Callers assembling a Config from
// operator input (flags, environment, request bodies) should call Validate
// themselves so a bad knob is rejected before it reaches New.
func (cfg Config) Validate() error {
	if len(cfg.Classes) == 0 {
		return fmt.Errorf("admission: no classes configured")
	}
	if cfg.Headroom < 0 {
		return fmt.Errorf("admission: negative headroom %g", cfg.Headroom)
	}
	if math.IsNaN(cfg.Headroom) || math.IsInf(cfg.Headroom, 0) {
		return fmt.Errorf("admission: headroom %g must be finite", cfg.Headroom)
	}
	dc := cfg.DefaultClass
	if dc == "" {
		dc = "standard" // the default New will apply; it must still exist
	}
	if _, ok := cfg.Classes[dc]; !ok {
		return fmt.Errorf("admission: default class %q not configured", dc)
	}
	if cfg.OverflowClass != "" {
		if _, ok := cfg.Classes[cfg.OverflowClass]; !ok {
			return fmt.Errorf("admission: overflow class %q not configured", cfg.OverflowClass)
		}
	}
	if cfg.TotalNodes <= 0 {
		return fmt.Errorf("admission: nonpositive machine size %d", cfg.TotalNodes)
	}
	if cfg.Policy == nil {
		return fmt.Errorf("admission: no scheduling policy configured")
	}
	if cfg.Predictor == nil {
		return fmt.Errorf("admission: no run-time predictor configured")
	}
	for name, cc := range cfg.Classes {
		if cc.WaitBudgetSec < 0 {
			return fmt.Errorf("admission: class %q has negative wait budget", name)
		}
		if cc.TokensPerWindow < 0 {
			return fmt.Errorf("admission: class %q has negative token budget", name)
		}
	}
	return nil
}

// New validates the configuration, applies the documented defaults, and
// builds a controller. The class table it installs is consulted on every
// subsequent admission decision, so the configuration must come through
// Validate (called here, and again by flag-parsing callers before they
// hand the config over).
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = 1.0
	}
	if cfg.DefaultClass == "" {
		cfg.DefaultClass = "standard"
	}
	if cfg.TokenWindowSec <= 0 {
		cfg.TokenWindowSec = 3600
	}
	if cfg.Decision == nil {
		cfg.Decision = cfg.Predictor
	}
	if cfg.DefaultRT <= 0 {
		cfg.DefaultRT = predict.DefaultRuntime
	}

	c := &Controller{cfg: cfg, classes: make(map[string]*classState, len(cfg.Classes)), tokenWindow: cfg.TokenWindowSec}
	reg := cfg.Metrics
	counter := func(name string) *obs.Counter {
		if reg == nil {
			return new(obs.Counter) // unregistered but functional, so Decide never nil-checks
		}
		return reg.Counter(name)
	}
	// Deterministic registration order keeps metric snapshots stable.
	names := make([]string, 0, len(cfg.Classes))
	for name := range cfg.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cc := cfg.Classes[name]
		st := &classState{
			cfg:       cc,
			name:      name,
			effBudget: int64(cfg.Headroom * float64(cc.WaitBudgetSec)),
			admitted:  counter("admission.class." + name + ".admitted"),
			shed:      counter("admission.class." + name + ".shed"),
		}
		st.windowStart.Store(-1 << 62) // first decision opens the first window
		c.classes[name] = st
	}
	c.defaultCls = c.classes[cfg.DefaultClass]
	if cfg.OverflowClass != "" {
		c.overflowCls = c.classes[cfg.OverflowClass]
	}
	c.mDecisions = counter("admission.decisions")
	c.mAdmitted = counter("admission.admitted")
	c.mShed = counter("admission.shed")
	c.mShedBudget = counter("admission.shed_budget")
	c.mShedTokens = counter("admission.shed_tokens")
	c.mOverflow = counter("admission.overflow")
	c.mOverBudget = counter("admission.over_budget")
	c.mNoPrediction = counter("admission.no_prediction")
	c.mStateEst = counter("admission.estimates_state")
	c.mForwardEst = counter("admission.estimates_forward")
	if reg != nil {
		reg.Gauge("admission.headroom").Set(cfg.Headroom)
		reg.Gauge("admission.classes").SetInt(int64(len(cfg.Classes)))
		reg.Gauge("admission.token_window_seconds").SetInt(cfg.TokenWindowSec)
	}
	return c, nil
}

// Headroom returns the controller's headroom multiplier.
func (c *Controller) Headroom() float64 { return c.cfg.Headroom }

// classOf resolves the job's class state, falling back to the default
// class for empty or unknown labels.
func (c *Controller) classOf(j *workload.Job) *classState {
	label := ""
	if c.cfg.Classifier != nil {
		label = c.cfg.Classifier(j)
	} else {
		label = j.Class
	}
	if st, ok := c.classes[label]; ok {
		return st
	}
	return c.defaultCls
}

// takeToken consumes one admission token from the class's current window,
// reporting whether one was available. Classes without a token cap always
// succeed. The window rolls forward lazily off the decision clock; all
// state is atomics, no locks.
func (st *classState) takeToken(now, window int64) bool {
	if st.cfg.TokensPerWindow <= 0 {
		return true
	}
	for {
		ws := st.windowStart.Load()
		if now-ws < window {
			break
		}
		if st.windowStart.CompareAndSwap(ws, now) {
			st.taken.Store(0)
			break
		}
	}
	return st.taken.Add(1) <= st.cfg.TokensPerWindow
}

// Decide is the pure admission decision: given a job and its wait
// estimate (havePrediction=false when no estimator could produce one), it
// applies the class budget, headroom, token, and overflow rules and
// updates the admission.* counters. It is the entry point a scheduler
// calls on its submission path, so it must not stall: all state it
// touches is atomic, and the decision clock is the caller's (simulated
// or wall) time.
//
// hotpath: no-lock no-alloc no-clock
func (c *Controller) Decide(now int64, j *workload.Job, predictedWait int64, havePrediction bool) Decision {
	st := c.classOf(j)
	c.mDecisions.Inc()
	d := Decision{
		Class:              st.name,
		PredictedWaitSec:   predictedWait,
		BudgetSec:          st.cfg.WaitBudgetSec,
		EffectiveBudgetSec: st.effBudget,
	}
	if !havePrediction {
		d.PredictedWaitSec = 0
	}

	admit := func(reason Reason, counted *classState) Decision {
		d.Admit = true
		d.Reason = reason
		c.mAdmitted.Inc()
		counted.admitted.Inc()
		return d
	}
	shed := func(reason Reason) Decision {
		d.Admit = false
		d.Reason = reason
		c.mShed.Inc()
		st.shed.Inc()
		if reason == ReasonShedTokens {
			c.mShedTokens.Inc()
		} else {
			c.mShedBudget.Inc()
		}
		return d
	}

	if st.cfg.AlwaysAdmit {
		return admit(ReasonAlways, st)
	}
	switch {
	case !havePrediction:
		if !st.takeToken(now, c.tokenWindow) {
			return shed(ReasonShedTokens)
		}
		c.mNoPrediction.Inc()
		return admit(ReasonNoPrediction, st)
	case st.cfg.WaitBudgetSec == 0 || predictedWait <= st.effBudget:
		if !st.takeToken(now, c.tokenWindow) {
			return shed(ReasonShedTokens)
		}
		return admit(ReasonWithinBudget, st)
	case !st.cfg.Sheddable:
		if !st.takeToken(now, c.tokenWindow) {
			return shed(ReasonShedTokens)
		}
		c.mOverBudget.Inc()
		return admit(ReasonOverBudget, st)
	}
	// Over budget and sheddable: try the overflow class, then shed.
	if of := c.overflowCls; of != nil && of != st &&
		(of.cfg.WaitBudgetSec == 0 || predictedWait <= of.effBudget) &&
		of.takeToken(now, c.tokenWindow) {
		d.Overflow = true
		c.mOverflow.Inc()
		return admit(ReasonOverflow, of)
	}
	return shed(ReasonShedBudget)
}

// decisionEst is the estimator the simulated scheduler (and the state
// capture) uses — the same estimates the real scheduler would schedule by.
func (c *Controller) decisionEst(j *workload.Job, age int64) int64 {
	return predict.Estimate(c.cfg.Decision, j, age, c.cfg.DefaultRT)
}

// estimateWait produces the job's wait estimate for the current scheduler
// state: the state-based predictor when it has matching history, the
// forward simulation otherwise. queue must not contain target (the job is
// being admitted, not yet queued).
func (c *Controller) estimateWait(ctx context.Context, now int64, target *workload.Job,
	queue, running []*workload.Job) (wait int64, ok bool, source string) {

	if sp := c.cfg.StatePred; sp != nil {
		st := waitpred.CaptureState(now, queue, running, c.cfg.TotalNodes, c.decisionEst)
		jobWork := int64(target.Nodes) * c.decisionEst(target, 0)
		if w, ok := sp.PredictWait(st, target, jobWork); ok {
			c.mStateEst.Inc()
			return w, true, "state"
		}
	}
	vq := make([]*workload.Job, 0, len(queue)+1)
	vq = append(vq, queue...)
	vq = append(vq, target)
	start, err := waitpred.PredictStartCtx(ctx, now, target, vq, running,
		c.cfg.TotalNodes, c.cfg.Policy, c.cfg.Predictor, c.cfg.Decision, c.cfg.DefaultRT)
	if err != nil {
		return 0, false, "none"
	}
	c.mForwardEst.Inc()
	wait = start - now
	if wait < 0 {
		wait = 0
	}
	return wait, true, "forward"
}

// EvaluateCtx estimates the target's wait against the given scheduler
// state and decides admission, recording the whole evaluation as an
// "admission.decide" span (class, estimate source, predicted wait,
// budget, verdict) when ctx carries an active trace. queue is the current
// queue in arrival order WITHOUT the target; running is the running set.
func (c *Controller) EvaluateCtx(ctx context.Context, now int64, target *workload.Job,
	queue, running []*workload.Job) Decision {

	ctx, span := trace.StartSpan(ctx, "admission.decide")
	wait, ok, source := c.estimateWait(ctx, now, target, queue, running)
	d := c.Decide(now, target, wait, ok)
	d.Source = source
	if span != nil {
		span.SetAttr("class", d.Class)
		span.SetAttr("reason", string(d.Reason))
		span.SetAttr("source", d.Source)
		span.SetAttrInt("predicted_wait_seconds", d.PredictedWaitSec)
		span.SetAttrInt("budget_seconds", d.EffectiveBudgetSec)
		if d.Admit {
			span.SetAttrInt("admit", 1)
		} else {
			span.SetAttrInt("admit", 0)
		}
		span.End()
	}
	return d
}

// Attach wires the controller into simulator options: arrivals pass
// through EvaluateCtx, and — when a state predictor is configured — realized
// waits of admitted jobs feed back into it at start time, closing the §5
// learning loop online. Existing OnStart/OnShed handlers are preserved.
// The binding assumes the single-threaded simulator event loop.
func (c *Controller) Attach(opts *sim.Options) {
	type pendingState struct {
		state   waitpred.State
		jobWork int64
	}
	pending := make(map[int]pendingState)
	opts.Admission = func(now int64, j *workload.Job, queue, running []*workload.Job, free, total int) bool {
		d := c.EvaluateCtx(context.Background(), now, j, queue, running)
		if d.Admit && c.cfg.StatePred != nil {
			st := waitpred.CaptureState(now, queue, running, total, c.decisionEst)
			pending[j.ID] = pendingState{state: st, jobWork: int64(j.Nodes) * c.decisionEst(j, 0)}
		}
		return d.Admit
	}
	prevStart := opts.OnStart
	opts.OnStart = func(now int64, j *workload.Job) {
		if p, ok := pending[j.ID]; ok {
			c.cfg.StatePred.ObserveWait(p.state, j, p.jobWork, j.WaitTime())
			delete(pending, j.ID)
		}
		if prevStart != nil {
			prevStart(now, j)
		}
	}
}
