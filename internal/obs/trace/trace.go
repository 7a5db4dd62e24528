// Package trace is a dependency-free, context-propagated span tracer for
// the prediction service's hot paths. A root span opens at the HTTP edge
// ("http.predict"), child spans open at each stage the request passes
// through — template matching and estimate selection in core, shard and
// WAL operations in histstore, the forward scheduler simulation in
// waitpred — and when the root ends, the completed span tree is either
// kept in a bounded ring of recent traces (exported at /v1/traces) or
// discarded, so a slow prediction decomposes into the stage that made it
// slow.
//
// Two sampling rules decide what the ring keeps, mirroring how the
// accuracy layer watches the error tail rather than the mean: every trace
// at least as slow as the slow threshold is kept unconditionally (the tail
// is the signal), and the rest are kept with a configured probability
// drawn from a deterministic, tracer-local splitmix64 sequence — no global
// math/rand, no time seeding, so repolint's detrand invariant holds and
// two runs over the same request sequence keep the same traces.
//
// The package never reads the wall clock itself: span timestamps come from
// an injected Now function, frozen by default (durations read as zero and
// slow sampling never fires, which is exactly right for deterministic
// simulations). The cmd/ edges opt into real time with WithWallClock.
// A nil *Tracer, a disabled tracer, and a nil *Span are all inert: every
// method is nil-safe and the disabled StartRoot/StartChild path does no
// allocation, keeping the instrumented hot paths within their overhead
// budget when tracing is off.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults for New; see the corresponding options.
const (
	DefaultCapacity = 64  // traces retained in the ring
	DefaultMaxSpans = 128 // spans recorded per trace before dropping
)

// Tracer owns the sampling configuration and the ring of recent traces.
// All methods are safe for concurrent use.
type Tracer struct {
	now        func() time.Time
	sampleRate float64       // probability of keeping a fast trace
	slow       time.Duration // keep every trace at least this slow (0 disables)
	capacity   int           // ring size in traces
	maxSpans   int           // per-trace span bound
	enabled    atomic.Bool
	rng        atomic.Uint64 // splitmix64 state for sampling decisions
	nextID     atomic.Uint64 // trace id counter

	mu   sync.Mutex
	ring []Trace // newest appended; bounded to capacity
	next int     // ring write position once full

	metrics atomic.Pointer[tracerMetrics]
}

// tracerMetrics caches the tracer's obs instrument handles.
type tracerMetrics struct {
	spans         *obs.Counter
	spansDropped  *obs.Counter
	tracesKept    *obs.Counter
	tracesDropped *obs.Counter
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithNow injects the clock used for span timestamps. The default is a
// frozen clock (every duration reads zero), which keeps deterministic
// callers deterministic; inject time.Now at the cmd/ edges for real
// timings.
func WithNow(now func() time.Time) Option {
	return func(t *Tracer) {
		if now != nil {
			t.now = now
		}
	}
}

// WithWallClock sets the tracer's clock to the real time.Now — the opt-in
// the cmd/ binaries use. The tracer itself is held to the repository's
// wallclock invariant, so the default clock stays frozen and real time is
// confined to this explicitly requested edge.
func WithWallClock() Option {
	return WithNow(time.Now) //lint:allow wallclock the cmd/ edges opt into real span timing explicitly; the default tracer clock stays frozen
}

// WithSampleRate sets the probability (clamped to [0, 1]) of keeping a
// trace that finished under the slow threshold. Zero keeps only slow
// traces.
func WithSampleRate(p float64) Option {
	return func(t *Tracer) {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		t.sampleRate = p
	}
}

// WithSlowThreshold keeps every trace whose root duration is at least d,
// regardless of the sample rate. Zero disables slow sampling.
func WithSlowThreshold(d time.Duration) Option {
	return func(t *Tracer) {
		if d < 0 {
			d = 0
		}
		t.slow = d
	}
}

// WithCapacity bounds the ring of recent kept traces (minimum 1).
func WithCapacity(n int) Option {
	return func(t *Tracer) {
		if n < 1 {
			n = 1
		}
		t.capacity = n
	}
}

// WithMaxSpans bounds the spans recorded per trace (minimum 2: a root and
// one child); spans beyond the bound are counted as dropped, not recorded.
func WithMaxSpans(n int) Option {
	return func(t *Tracer) {
		if n < 2 {
			n = 2
		}
		t.maxSpans = n
	}
}

// WithSeed reseeds the sampling sequence (the default seed is zero, so two
// identically configured tracers make identical sampling decisions).
func WithSeed(seed uint64) Option {
	return func(t *Tracer) { t.rng.Store(seed) }
}

// New creates an enabled tracer. With no options it keeps nothing (sample
// rate zero, slow threshold disabled) on a frozen clock — configure at
// least one sampling rule to retain traces.
func New(opts ...Option) *Tracer {
	t := &Tracer{
		now:      func() time.Time { return time.Time{} },
		capacity: DefaultCapacity,
		maxSpans: DefaultMaxSpans,
	}
	for _, o := range opts {
		o(t)
	}
	t.enabled.Store(true)
	return t
}

// SetMetrics registers the tracer's counters on reg: trace.spans,
// trace.spans.dropped, trace.traces.kept, trace.traces.dropped. A nil
// registry detaches them.
func (t *Tracer) SetMetrics(reg *obs.Registry) {
	if t == nil {
		return
	}
	if reg == nil {
		t.metrics.Store(nil)
		return
	}
	t.metrics.Store(&tracerMetrics{
		spans:         reg.Counter("trace.spans"),
		spansDropped:  reg.Counter("trace.spans.dropped"),
		tracesKept:    reg.Counter("trace.traces.kept"),
		tracesDropped: reg.Counter("trace.traces.dropped"),
	})
}

// Enabled reports whether StartRoot currently opens traces. A nil tracer
// is disabled.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled toggles tracing at run time; in-flight traces complete
// normally.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// randFloat draws the next deterministic sample in [0, 1) from the
// tracer-local splitmix64 sequence.
func (t *Tracer) randFloat() float64 {
	x := t.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Attr is one span attribute, stringly typed for stable JSON.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is one exported span: its position in the trace's span list,
// its parent's index (-1 for the root), and timings as offsets from the
// trace start.
type SpanData struct {
	Name            string  `json:"name"`
	Parent          int     `json:"parent"`
	StartSeconds    float64 `json:"startSeconds"`
	DurationSeconds float64 `json:"durationSeconds"`
	Attrs           []Attr  `json:"attrs,omitempty"`
}

// Trace is one exported span tree, as served by /v1/traces.
type Trace struct {
	ID              string     `json:"id"`
	Root            string     `json:"root"`
	DurationSeconds float64    `json:"durationSeconds"`
	Reason          string     `json:"reason"` // "slow" or "sampled"
	SpansDropped    int        `json:"spansDropped,omitempty"`
	Spans           []SpanData `json:"spans"`
}

// liveSpan is a span being recorded.
type liveSpan struct {
	name       string
	parent     int
	start, end time.Time
	ended      bool
	attrs      []Attr
}

// activeTrace accumulates one request's spans until the root ends.
type activeTrace struct {
	tracer  *Tracer
	start   time.Time
	mu      sync.Mutex
	spans   []liveSpan
	dropped int
}

// Span is a handle on one live span. The zero of usefulness: a nil *Span
// accepts every method call and does nothing, so instrumented code never
// branches on "is tracing on".
type Span struct {
	at  *activeTrace
	idx int
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span; a nil span
// returns ctx unchanged.
//
// hotpath: exempt nil span returns ctx unchanged; the WithValue allocation happens only for sampled traces
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span in ctx, or nil.
//
// hotpath: exempt ctxKey is an empty struct, so the interface conversion in Value is pointer-free and allocation-free
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the active span in ctx and returns a context
// carrying it. With no active span (tracing off, or no root opened) it
// returns ctx unchanged and a nil span.
//
// hotpath: exempt no active span means no lock and no allocation; sampled traces opt out of the steady-state path
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := SpanFromContext(ctx).StartChild(name)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}

// StartRoot opens a new trace rooted at name and returns a context
// carrying the root span. When the tracer is nil or disabled it returns
// ctx unchanged and a nil span.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	now := t.now()
	at := &activeTrace{tracer: t, start: now}
	at.spans = append(at.spans, liveSpan{name: name, parent: -1, start: now})
	if m := t.metrics.Load(); m != nil {
		m.spans.Inc()
	}
	sp := &Span{at: at, idx: 0}
	return ContextWithSpan(ctx, sp), sp
}

// StartChild opens a child span. On a nil span, or once the trace's span
// bound is reached, it returns nil (and the overflow is counted).
//
// hotpath: exempt nil-receiver fast path is two branches; only spans of sampled traces pay the lock
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	at := s.at
	t := at.tracer
	now := t.now()
	at.mu.Lock()
	if len(at.spans) >= t.maxSpans {
		at.dropped++
		at.mu.Unlock()
		if m := t.metrics.Load(); m != nil {
			m.spansDropped.Inc()
		}
		return nil
	}
	idx := len(at.spans)
	at.spans = append(at.spans, liveSpan{name: name, parent: s.idx, start: now})
	at.mu.Unlock()
	if m := t.metrics.Load(); m != nil {
		m.spans.Inc()
	}
	return &Span{at: at, idx: idx}
}

// SetAttr attaches a key/value attribute to the span.
//
// hotpath: exempt nil-receiver fast path; attribute storage is paid only by sampled traces
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.at.mu.Lock()
	sp := &s.at.spans[s.idx]
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	s.at.mu.Unlock()
}

// SetAttrInt attaches an integer attribute to the span.
//
// hotpath: exempt nil-receiver fast path; FormatInt runs only for sampled traces
func (s *Span) SetAttrInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// End closes the span. Ending the root finalizes the trace: unfinished
// children are closed at the root's end time, the sampling rules decide
// whether the trace enters the ring, and the handle set becomes inert.
// Double End is harmless.
//
// hotpath: exempt nil-receiver fast path; finalization cost belongs to sampled traces
func (s *Span) End() {
	if s == nil {
		return
	}
	at := s.at
	t := at.tracer
	now := t.now()
	at.mu.Lock()
	sp := &at.spans[s.idx]
	if !sp.ended {
		sp.ended = true
		sp.end = now
	}
	if s.idx != 0 {
		at.mu.Unlock()
		return
	}
	// Root ended: close stragglers at the root's end and export.
	for i := range at.spans {
		if !at.spans[i].ended {
			at.spans[i].ended = true
			at.spans[i].end = now
		}
	}
	dur := at.spans[0].end.Sub(at.spans[0].start)
	tr := Trace{
		Root:            at.spans[0].name,
		DurationSeconds: dur.Seconds(),
		SpansDropped:    at.dropped,
		Spans:           make([]SpanData, len(at.spans)),
	}
	for i, ls := range at.spans {
		tr.Spans[i] = SpanData{
			Name:            ls.name,
			Parent:          ls.parent,
			StartSeconds:    ls.start.Sub(at.start).Seconds(),
			DurationSeconds: ls.end.Sub(ls.start).Seconds(),
			Attrs:           ls.attrs,
		}
	}
	at.mu.Unlock()
	t.finish(tr, dur)
}

// finish applies the sampling rules and pushes a kept trace into the ring.
func (t *Tracer) finish(tr Trace, dur time.Duration) {
	m := t.metrics.Load()
	switch {
	case t.slow > 0 && dur >= t.slow:
		tr.Reason = "slow"
	case t.sampleRate > 0 && t.randFloat() < t.sampleRate:
		tr.Reason = "sampled"
	default:
		if m != nil {
			m.tracesDropped.Inc()
		}
		return
	}
	tr.ID = formatID(t.nextID.Add(1))
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % t.capacity
	}
	t.mu.Unlock()
	if m != nil {
		m.tracesKept.Inc()
	}
}

// formatID renders a trace id as 16 zero-padded lowercase hex digits, the
// format of fmt's "%016x", without boxing the id into an interface.
func formatID(id uint64) string {
	var buf [16]byte
	n := len(strconv.AppendUint(buf[:0], id, 16))
	copy(buf[16-n:], buf[:n])
	for i := 0; i < 16-n; i++ {
		buf[i] = '0'
	}
	return string(buf[:])
}

// Recent returns the kept traces, newest first. A nil tracer returns nil.
func (t *Tracer) Recent() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	// The ring is ordered oldest→newest starting at next (once full) or at
	// 0 (while filling); walk it backwards.
	for i := len(t.ring) - 1; i >= 0; i-- {
		out = append(out, t.ring[(t.next+i)%len(t.ring)])
	}
	return out
}

// Pretty renders the trace as an indented tree with microsecond timings,
// for terminals and the trace-demo target.
func (tr Trace) Pretty() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s %.1fµs (%s)\n",
		tr.ID, tr.Root, tr.DurationSeconds*1e6, tr.Reason)
	depth := make([]int, len(tr.Spans))
	for i, sp := range tr.Spans {
		if sp.Parent >= 0 && sp.Parent < i {
			depth[i] = depth[sp.Parent] + 1
		}
		fmt.Fprintf(&b, "%s%s %.1fµs", strings.Repeat("  ", depth[i]+1),
			sp.Name, sp.DurationSeconds*1e6)
		for _, a := range sp.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
	}
	if tr.SpansDropped > 0 {
		fmt.Fprintf(&b, "  (%d spans dropped over the per-trace bound)\n", tr.SpansDropped)
	}
	return b.String()
}
