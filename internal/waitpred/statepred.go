package waitpred

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// This file implements the ALTERNATIVE wait-time prediction method the
// paper proposes as future work (§5): "use the current state of the
// scheduling system (number of applications in each queue, time of day,
// etc.) and historical information on queue wait times during similar past
// states to predict queue wait times. We hope this technique will improve
// wait-time prediction error, particularly for the LWF algorithm, which has
// a large built-in error using the technique presented here."
//
// The mechanism mirrors the run-time predictor: templates select features
// of the (scheduler state, job) pair; agreeing states form categories of
// observed wait times; the estimate with the smallest confidence interval
// wins. Waits are learned when jobs START (that is when a wait becomes
// known), so the predictor is as online as the run-time one.

// StateFeature is one feature a state template may select.
type StateFeature uint8

const (
	// FeatQueueLen is the number of queued applications, log₂-bucketed.
	FeatQueueLen StateFeature = iota
	// FeatQueuedWork is the total queued work (node-seconds by the
	// scheduler's own estimates), log₄-bucketed.
	FeatQueuedWork
	// FeatFreeFrac is the fraction of free nodes in 20% buckets.
	FeatFreeFrac
	// FeatTimeOfDay is the submission hour in 6-hour buckets.
	FeatTimeOfDay
	// FeatDayKind distinguishes weekday from weekend submissions.
	FeatDayKind
	// FeatJobNodes is the job's node request, log₂-bucketed.
	FeatJobNodes
	// FeatJobWork is the job's estimated work (nodes × scheduler estimate),
	// log₄-bucketed — the feature that lets LWF states discriminate "will
	// be overtaken" from "will overtake".
	FeatJobWork
	// FeatJobQueue is the job's submission queue (SDSC-style traces).
	FeatJobQueue

	// NumStateFeatures counts the features.
	NumStateFeatures = 8
)

// String implements fmt.Stringer.
func (f StateFeature) String() string {
	switch f {
	case FeatQueueLen:
		return "qlen"
	case FeatQueuedWork:
		return "qwork"
	case FeatFreeFrac:
		return "free"
	case FeatTimeOfDay:
		return "tod"
	case FeatDayKind:
		return "day"
	case FeatJobNodes:
		return "jnodes"
	case FeatJobWork:
		return "jwork"
	case FeatJobQueue:
		return "jqueue"
	}
	return fmt.Sprintf("feat(%d)", uint8(f))
}

// StateMask is a bit set of state features.
type StateMask uint16

// StateMaskOf builds a StateMask from features.
func StateMaskOf(fs ...StateFeature) StateMask {
	var m StateMask
	for _, f := range fs {
		m |= 1 << f
	}
	return m
}

// Has reports membership.
func (m StateMask) Has(f StateFeature) bool { return m&(1<<f) != 0 }

// String renders like "(qlen,free,jwork)".
func (m StateMask) String() string {
	var parts []string
	for f := StateFeature(0); f < NumStateFeatures; f++ {
		if m.Has(f) {
			parts = append(parts, f.String())
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// State captures the scheduler at a submission instant.
type State struct {
	Now        int64 // seconds since trace start
	QueueLen   int
	QueuedWork int64 // node-seconds, by the scheduler's own estimates
	FreeNodes  int
	TotalNodes int
}

// CaptureState builds a State from the live queue and running set, using
// est for the scheduler's work estimates.
func CaptureState(now int64, queue, running []*workload.Job, total int,
	est func(j *workload.Job, age int64) int64) State {
	s := State{Now: now, QueueLen: len(queue), TotalNodes: total, FreeNodes: total}
	for _, r := range running {
		s.FreeNodes -= r.Nodes
	}
	for _, q := range queue {
		s.QueuedWork += int64(q.Nodes) * est(q, 0)
	}
	return s
}

// StateTemplate selects features and bounds category history.
type StateTemplate struct {
	Feats      StateMask
	MaxHistory int // 0 = unlimited
}

// String implements fmt.Stringer.
func (t StateTemplate) String() string {
	if t.MaxHistory > 0 {
		return fmt.Sprintf("%s h=%d", t.Feats, t.MaxHistory)
	}
	return t.Feats.String()
}

// log2Bucket buckets v ≥ 0 as 0, 1, 2, 3–4, 5–8, … (index = ⌈log₂ v⌉).
func log2Bucket(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 0
	for (int64(1) << b) < v {
		b++
	}
	return b + 1 // shift so that v=0 and v=1 differ
}

// key builds the category key for a (state, job) pair.
func (t StateTemplate) key(idx int, s State, j *workload.Job, jobWork int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", idx)
	add := func(v int) { fmt.Fprintf(&b, "|%d", v) }
	if t.Feats.Has(FeatQueueLen) {
		add(log2Bucket(int64(s.QueueLen)))
	}
	if t.Feats.Has(FeatQueuedWork) {
		add(log2Bucket(s.QueuedWork) / 2) // log₄ buckets
	}
	if t.Feats.Has(FeatFreeFrac) {
		frac := 0
		if s.TotalNodes > 0 {
			frac = 5 * s.FreeNodes / s.TotalNodes // 20% buckets
		}
		add(frac)
	}
	if t.Feats.Has(FeatTimeOfDay) {
		add(int(s.Now/3600%24) / 6)
	}
	if t.Feats.Has(FeatDayKind) {
		day := int(s.Now/86400) % 7
		if day >= 5 {
			add(1)
		} else {
			add(0)
		}
	}
	if t.Feats.Has(FeatJobNodes) {
		add(log2Bucket(int64(j.Nodes)))
	}
	if t.Feats.Has(FeatJobWork) {
		add(log2Bucket(jobWork) / 2)
	}
	if t.Feats.Has(FeatJobQueue) {
		b.WriteByte('|')
		b.WriteString(j.Queue)
	}
	return b.String()
}

// scategory is a bounded ring of observed waits with O(1) aggregates.
type scategory struct {
	maxHistory int
	waits      []float64
	head       int
	n          int
	sum, sum2  float64
}

func (c *scategory) add(w float64) {
	if c.maxHistory > 0 && len(c.waits) == c.maxHistory {
		old := c.waits[c.head]
		c.sum -= old
		c.sum2 -= old * old
		c.n--
		c.waits[c.head] = w
		c.head = (c.head + 1) % c.maxHistory
	} else {
		c.waits = append(c.waits, w)
	}
	c.n++
	c.sum += w
	c.sum2 += w * w
}

// estimate returns the mean wait and CI half-width at the given level.
func (c *scategory) estimate(level float64) (mean, half float64, ok bool) {
	if c.n < 2 {
		return 0, 0, false
	}
	mean = c.sum / float64(c.n)
	v := (c.sum2 - c.sum*mean) / float64(c.n-1)
	if v < 0 {
		v = 0
	}
	if v == 0 {
		return mean, 0, true
	}
	tq := stats.TQuantile(0.5+level/2, float64(c.n-1))
	return mean, tq * math.Sqrt(v/float64(c.n)), true
}

// StatePredictor predicts queue wait times from similar past scheduler
// states.
type StatePredictor struct {
	templates []StateTemplate
	level     float64
	cats      map[string]*scategory
}

// DefaultStateTemplates is a nested feature hierarchy from most to least
// specific, analogous to core.DefaultTemplates.
func DefaultStateTemplates(hasQueues bool) []StateTemplate {
	ts := []StateTemplate{
		{Feats: StateMaskOf(FeatQueueLen, FeatQueuedWork, FeatFreeFrac, FeatJobWork), MaxHistory: 2048},
		{Feats: StateMaskOf(FeatQueuedWork, FeatJobWork), MaxHistory: 2048},
		{Feats: StateMaskOf(FeatQueueLen, FeatJobNodes), MaxHistory: 2048},
		{Feats: StateMaskOf(FeatQueuedWork, FeatTimeOfDay), MaxHistory: 4096},
		{Feats: StateMaskOf(FeatQueueLen), MaxHistory: 4096},
		{Feats: 0, MaxHistory: 8192},
	}
	if hasQueues {
		ts = append([]StateTemplate{
			{Feats: StateMaskOf(FeatJobQueue, FeatQueuedWork, FeatJobWork), MaxHistory: 2048},
			{Feats: StateMaskOf(FeatJobQueue, FeatQueueLen), MaxHistory: 4096},
		}, ts...)
	}
	return ts
}

// NewStatePredictor creates a state-based wait predictor.
func NewStatePredictor(templates []StateTemplate) *StatePredictor {
	return &StatePredictor{
		templates: append([]StateTemplate(nil), templates...),
		level:     0.90,
		cats:      make(map[string]*scategory),
	}
}

// SetLevel sets the confidence level for the category interval contest.
// Levels are clamped into (0, maxStateLevel]: a level ≥ 1 would put the t
// quantile at +Inf, making every category's half-width infinite and the
// contest degenerate, and a level ≤ 0 would invert the interval. The
// admission controller exposes this as a knob, so out-of-range operator
// input must degrade to the nearest meaningful level instead of poisoning
// every estimate.
func (p *StatePredictor) SetLevel(level float64) {
	switch {
	case level >= maxStateLevel:
		p.level = maxStateLevel
	case level <= 0:
		p.level = 0.5
	default:
		p.level = level
	}
}

// Level returns the (clamped) confidence level in use.
func (p *StatePredictor) Level() float64 { return p.level }

// maxStateLevel caps the confidence level strictly below 1 so that the
// t-quantile stays finite.
const maxStateLevel = 0.9999

// PredictWait predicts the wait of job j submitted in state s, where
// jobWork is the scheduler's estimated work for j (nodes × estimate).
// The smallest-confidence-interval category estimate wins.
func (p *StatePredictor) PredictWait(s State, j *workload.Job, jobWork int64) (int64, bool) {
	best := math.Inf(1)
	var bestMean float64
	found := false
	for i, t := range p.templates {
		c, ok := p.cats[t.key(i, s, j, jobWork)]
		if !ok {
			continue
		}
		mean, half, ok := c.estimate(p.level)
		if !ok || mean < 0 {
			continue
		}
		if !found || half < best {
			found = true
			best = half
			bestMean = mean
		}
	}
	if !found {
		return 0, false
	}
	w := int64(math.Round(bestMean))
	if w < 0 {
		w = 0
	}
	return w, true
}

// ObserveWait records the realized wait of a job that was submitted in
// state s (call when the job starts).
func (p *StatePredictor) ObserveWait(s State, j *workload.Job, jobWork, wait int64) {
	for i, t := range p.templates {
		key := t.key(i, s, j, jobWork)
		c, ok := p.cats[key]
		if !ok {
			c = &scategory{maxHistory: t.MaxHistory}
			p.cats[key] = c
		}
		c.add(float64(wait))
	}
}

// Categories returns the number of state categories stored.
func (p *StatePredictor) Categories() int { return len(p.cats) }
