package core

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/histstore"
	"repro/internal/obs/trace"
	"repro/internal/predict"
	"repro/internal/workload"
)

// DefaultConfidence is the confidence level of the interval used to rank
// category estimates.
const DefaultConfidence = 0.90

// Prediction is a detailed prediction outcome, exposed for analysis tools
// and tests; scheduling code uses the plain Predictor interface.
type Prediction struct {
	Seconds  int64   // predicted total run time
	Interval float64 // confidence-interval half-width, seconds
	Template int     // index of the winning template
	Category string  // winning category key
	N        int     // points in the winning category
}

// Predictor is the paper's run-time predictor: it maintains a category
// database per template and predicts via the smallest-confidence-interval
// category estimate (§2.1, steps 1–3).
//
// The category database always lives in a sharded histstore.Store: a
// memory-only one by default, or the store passed with WithStore (durable
// when it was opened with histstore.Open, in which case every observation
// is journaled for crash recovery). Observe and Predict are therefore
// safe for concurrent use — writes serialize per shard, predictions are
// lock-free snapshot loads — and completions stream in as O(templates)
// incremental updates. The offline experiments and the qwaitd daemon run
// the same code path.
type Predictor struct {
	templates  []Template
	level      float64
	store      *histstore.Store
	name       string
	firstMatch bool

	onStoreErr func(error)  // called on store insert failures (WAL errors)
	storeErr   atomic.Value // sticky first insert error, boxed as storedErr
}

// catRef is a resolved category and the key string it is stored under, so
// a detailed prediction can report the winning key without rendering it
// again. A nil c is a miss (cached as such within one batch).
type catRef struct {
	c   *histstore.Category
	key string
}

// storedErr boxes store insert failures in one concrete type, as
// atomic.Value requires every stored value to share.
type storedErr struct{ err error }

// Option configures a Predictor.
type Option func(*Predictor)

// WithConfidence sets the confidence level (0 < level < 1) used for the
// interval that ranks category estimates.
func WithConfidence(level float64) Option {
	return func(p *Predictor) {
		if level > 0 && level < 1 {
			p.level = level
		}
	}
}

// WithName overrides the predictor's reported name (useful when comparing
// several template sets in one experiment).
func WithName(name string) Option {
	return func(p *Predictor) { p.name = name }
}

// WithFirstMatch switches the estimate selection from the paper's
// smallest-confidence-interval rule to Gibbons-style first-match: templates
// are tried in order and the first valid estimate wins. This exists for the
// ablation of DESIGN.md §5.2.
func WithFirstMatch() Option {
	return func(p *Predictor) { p.firstMatch = true }
}

// WithStore keeps the predictor's category database in st instead of a
// fresh memory-only store, so a caller can share it, snapshot it, or open
// it durably (Observe then journals through the store's WAL). A nil st
// keeps the default.
func WithStore(st *histstore.Store) Option {
	return func(p *Predictor) {
		if st != nil {
			p.store = st
		}
	}
}

// WithStoreErrorHandler installs f as the handler for store insert
// failures (write-ahead-log errors surfaced by Observe, whose interface
// signature cannot return them). The first error is always retained and
// exposed by StoreErr, handler or not; the handler additionally receives
// every failure as it happens.
func WithStoreErrorHandler(f func(error)) Option {
	return func(p *Predictor) { p.onStoreErr = f }
}

// New creates a Predictor with the given template set, backed by a
// memory-only histstore.Store unless WithStore supplies one. An empty
// template set is legal but never predicts.
func New(templates []Template, opts ...Option) *Predictor {
	p := &Predictor{
		templates: append([]Template(nil), templates...),
		level:     DefaultConfidence,
		store:     histstore.New(),
		name:      "smith",
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// NewDefault creates a Predictor with DefaultTemplates for a workload.
func NewDefault(w *workload.Workload, opts ...Option) *Predictor {
	return New(DefaultTemplates(w.Chars, w.HasMaxRT), opts...)
}

// Name implements predict.Predictor.
func (p *Predictor) Name() string { return p.name }

// Templates returns a copy of the predictor's template set.
func (p *Predictor) Templates() []Template {
	return append([]Template(nil), p.templates...)
}

// Store returns the backing store.
func (p *Predictor) Store() *histstore.Store { return p.store }

// StoreErr returns the first store insert failure seen by Observe (nil
// when none has occurred): a write-ahead-log error, or a completion the
// store refuses (see histstore.Point.Validate), which leaves the history
// unchanged. It is recorded whether or not a WithStoreErrorHandler is
// installed, so callers that stream many observations (e.g. trace
// warming) can check once at the end.
func (p *Predictor) StoreErr() error {
	if v, ok := p.storeErr.Load().(storedErr); ok {
		return v.err
	}
	return nil
}

// recordStoreErr retains the first store insert failure for StoreErr.
func (p *Predictor) recordStoreErr(err error) {
	p.storeErr.CompareAndSwap(nil, storedErr{err})
}

// Categories returns the number of categories currently stored.
func (p *Predictor) Categories() int { return p.store.Categories() }

// HistorySize returns the total number of data points stored across all
// categories — the predictor's working-set size, reported as a gauge by
// the observability layer.
func (p *Predictor) HistorySize() int { return p.store.Points() }

// Predict implements predict.Predictor: apply every template to the job,
// compute an estimate with a confidence interval from each category that
// can provide a valid one, and return the estimate with the smallest
// interval (paper step 2).
//
// hotpath: no-lock no-alloc no-clock
func (p *Predictor) Predict(j *workload.Job, age int64) (int64, bool) {
	pr, ok := p.predictDetailed(context.Background(), nil, j, age, nil)
	if !ok {
		return 0, false
	}
	return pr.Seconds, true
}

// PredictDetailed is Predict with full diagnostic detail. The winning
// category key is the string the store's category handle carries, so
// reporting it copies no bytes.
//
// The hotpath contract below is the static half of
// TestPredictAllocationFree (DESIGN.md §10–§11): no call path
// from here may acquire a mutex, block on a channel, read the wall clock,
// or allocate. Category keys are rendered into a stack buffer and probe
// the category tables without becoming strings, and the estimate streams
// over the category. Two allocation sites remain, each with a sited
// //lint:allow justification: a key longer than the stack buffer, and the
// regression templates' sample buffer. The store's metrics clock sits
// behind a nil guard, and the t-quantile memo's first-touch fill is an
// exempt warm-up boundary.
//
// hotpath: no-lock no-alloc no-clock
func (p *Predictor) PredictDetailed(j *workload.Job, age int64) (Prediction, bool) {
	return p.predictDetailed(context.Background(), nil, j, age, nil)
}

// PredictDetailedCtx is PredictDetailed under the trace active in ctx: the
// whole prediction becomes a "core.predict" span whose children decompose
// it into per-template "template_match" work (category lookup through the
// store's "histstore.view" spans, then "estimate"). Without an active
// trace it is exactly PredictDetailed — the span plumbing short-circuits
// on nil before allocating anything.
func (p *Predictor) PredictDetailedCtx(ctx context.Context, j *workload.Job, age int64) (Prediction, bool) {
	ctx, sp := trace.StartSpan(ctx, "core.predict")
	if sp == nil {
		return p.predictDetailed(ctx, nil, j, age, nil)
	}
	pr, ok := p.predictDetailed(ctx, sp, j, age, nil)
	if ok {
		sp.SetAttrInt("seconds", pr.Seconds)
		sp.SetAttr("category", pr.Category)
		sp.SetAttrInt("n", int64(pr.N))
	} else {
		sp.SetAttr("hit", "false")
	}
	sp.End()
	return pr, ok
}

// BatchItem is one job in a batch prediction request.
type BatchItem struct {
	Job *workload.Job
	Age int64 // seconds the job has already been running (0 at submit)
}

// BatchResult pairs one batch item's prediction with its validity: OK is
// false when no template produced a usable estimate (exactly Predict's
// second return).
type BatchResult struct {
	Prediction
	OK bool
}

// PredictDetailedBatchCtx predicts for many jobs in one call, amortizing
// category resolution: within the batch every distinct category key is
// looked up in the store at most once, so all items are served from one
// consistent snapshot of each category even while observations stream in
// concurrently. Results are positional with items. Under a trace active in
// ctx the batch becomes a "core.predict_batch" span whose children are the
// per-item "core.predict" spans, each decomposed exactly as
// PredictDetailedCtx decomposes a single prediction.
//
// hotpath: no-lock no-alloc no-clock
func (p *Predictor) PredictDetailedBatchCtx(ctx context.Context, items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items)) //lint:allow hotpath one result slice per batch is the API contract; amortized across len(items) predictions
	ctx, bsp := trace.StartSpan(ctx, "core.predict_batch")
	if bsp != nil {
		bsp.SetAttrInt("jobs", int64(len(items)))
	}
	var cache map[string]catRef
	if len(items) > 1 {
		cache = make(map[string]catRef, len(p.templates)) //lint:allow hotpath one snapshot cache per batch buys at-most-once store lookups
	}
	for i, it := range items {
		if it.Job == nil {
			continue
		}
		ictx, sp := trace.StartSpan(ctx, "core.predict")
		pr, ok := p.predictDetailed(ictx, sp, it.Job, it.Age, cache)
		if sp != nil {
			if ok {
				sp.SetAttrInt("seconds", pr.Seconds)
				sp.SetAttr("category", pr.Category)
				sp.SetAttrInt("n", int64(pr.N))
			} else {
				sp.SetAttr("hit", "false")
			}
			sp.End()
		}
		out[i] = BatchResult{Prediction: pr, OK: ok}
	}
	if bsp != nil {
		bsp.End()
	}
	return out
}

// lookup resolves a rendered category key against the backing store: a
// lock-free snapshot load, recorded as a "histstore.view" child span when
// tsp is an open template_match span.
func (p *Predictor) lookup(ctx context.Context, tsp *trace.Span, key []byte) catRef {
	var r catRef
	if tsp != nil {
		r.c, r.key, _ = p.store.GetCtx(trace.ContextWithSpan(ctx, tsp), key)
	} else {
		r.c, r.key, _ = p.store.Get(key)
	}
	return r
}

// predictDetailed is the shared prediction body; sp, when non-nil, is the
// open "core.predict" span receiving per-template children. cache, when
// non-nil, memoizes store lookups (including misses) across the calls of
// one batch; single predictions pass nil and pay no cache overhead.
//
// Each template's key is rendered into one stack buffer and indexes the
// category tables directly (m[string(b)] does not allocate). The category
// lookup is a lock-free snapshot load (store.Get) and the estimate
// consumes the category's finalized moments or streams over its points —
// the predict hot path acquires no mutexes and builds no strings.
func (p *Predictor) predictDetailed(ctx context.Context, sp *trace.Span, j *workload.Job, age int64, cache map[string]catRef) (Prediction, bool) {
	var kb [keyBufSize]byte
	best := Prediction{Interval: math.Inf(1), Template: -1}
	found := false
	for i, t := range p.templates {
		if t.Relative && j.MaxRunTime <= 0 {
			continue
		}
		key := t.AppendKey(kb[:0], i, j)
		var (
			val, half float64
			ok        bool
			n         int
		)
		tsp := sp.StartChild("template_match")
		var r catRef
		if cache != nil {
			var hit bool
			if r, hit = cache[string(key)]; !hit {
				r = p.lookup(ctx, tsp, key)
				cache[string(key)] = r //lint:allow hotpath batch-local snapshot cache, bounded by the template count
			}
		} else {
			r = p.lookup(ctx, tsp, key)
		}
		if r.c != nil {
			esp := tsp.StartChild("estimate")
			val, half, ok = estimateCategory(r.c, t, j.Nodes, age, p.level)
			n = r.c.Size()
			esp.End()
		}
		endTemplateSpan(tsp, i, key, r.key, ok)
		if !ok {
			continue
		}
		// Map the estimate back to seconds.
		sec, halfSec := val, half
		if t.Relative {
			sec *= float64(j.MaxRunTime)
			halfSec *= float64(j.MaxRunTime)
		}
		if sec <= 0 || math.IsNaN(sec) {
			continue
		}
		// A candidate the job has already outlived is certainly wrong, not
		// merely uncertain; prefer age-consistent estimates (the templates
		// with the running-time attribute provide them).
		if age > 0 && int64(sec) <= age {
			continue
		}
		if !found || halfSec < best.Interval {
			found = true
			best = Prediction{
				Seconds:  int64(math.Round(sec)),
				Interval: halfSec,
				Template: i,
				Category: r.key,
				N:        n,
			}
		}
		if found && p.firstMatch {
			break
		}
	}
	if !found {
		return Prediction{}, false
	}
	if best.Seconds < 1 {
		best.Seconds = 1
	}
	return best, true
}

// endTemplateSpan annotates and ends a template_match span (a no-op for
// the nil span of an untraced prediction).
//
// hotpath: exempt span plumbing runs only when a trace is sampled; the key string is built for the span attribute alone
func endTemplateSpan(tsp *trace.Span, i int, key []byte, stored string, ok bool) {
	if tsp == nil {
		return
	}
	if stored == "" {
		stored = string(key)
	}
	tsp.SetAttrInt("template", int64(i))
	tsp.SetAttr("category", stored)
	if !ok {
		tsp.SetAttr("hit", "false")
	}
	tsp.End()
}

// Observe implements predict.Predictor: insert the completed job into the
// category of every template, creating categories as needed (paper step 3).
// Each insert is an O(1) streaming update (journaled when the store is
// durable); insert failures — including a job the store refuses, such as
// one without a positive run time — are recorded for StoreErr and go to
// the configured error handler, because this interface method cannot
// return them.
func (p *Predictor) Observe(j *workload.Job) {
	p.observe(context.Background(), j)
}

// ObserveCtx is Observe under the trace active in ctx: the fan-out across
// templates becomes a "core.observe" span whose children are the store's
// per-category "histstore.insert" spans (including WAL appends for durable
// stores). Without an active trace it is exactly Observe.
func (p *Predictor) ObserveCtx(ctx context.Context, j *workload.Job) {
	ctx, sp := trace.StartSpan(ctx, "core.observe")
	p.observe(ctx, j)
	sp.End()
}

func (p *Predictor) observe(ctx context.Context, j *workload.Job) {
	var kb [keyBufSize]byte
	pt := pointOf(j)
	for i, t := range p.templates {
		err := p.store.Insert(ctx, t.AppendKey(kb[:0], i, j), t.MaxHistory, pt)
		if err != nil {
			p.recordStoreErr(err)
			if p.onStoreErr != nil {
				p.onStoreErr(err)
			}
		}
	}
}

// Static check.
var _ predict.Predictor = (*Predictor)(nil)
