package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/workload"
)

// span is one timed call into a layer. Times are offsets from the
// recorder's base; parent is the index of the enclosing span (-1 for a
// root) and req the request the span belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

// recorder keeps spans in memory for one single-goroutine traced replay.
// Spans nest by call order: begin pushes, end pops.
type recorder struct {
	base  time.Time
	spans []span
	open  []int
	req   int
	// hits and calls count core predictions made under the recorder and
	// how many of them the history could answer.
	hits, calls int
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.base), Parent: parent, Req: r.req})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	r.spans[id].End = time.Since(r.base)
	r.open = r.open[:len(r.open)-1]
}

// span opens a span and returns the func that closes it; on a nil
// recorder both are no-ops, so untraced replays run the same code.
func (r *recorder) span(name string) func() {
	if r == nil {
		return noop
	}
	id := r.begin(name)
	return func() { r.end(id) }
}

func noop() {}

// predicted counts one core prediction.
func (r *recorder) predicted(ok bool) {
	if r == nil {
		return
	}
	r.calls++
	if ok {
		r.hits++
	}
}

// root opens the root span of request req.
func (r *recorder) root(req int, name string) int {
	r.req = req
	return r.begin(name)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are merged first).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			st, en := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if en <= st {
				continue
			}
			if st > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		covered += curEnd - curStart
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStats aggregates a recording by span name.
type layerStats struct {
	self  map[string][]float64 // per-span self time, microseconds
	total map[string][]float64 // per-span duration, microseconds
	// perReq sums the self time of every non-root span of a request,
	// excluding names in skip, keyed by request id (microseconds).
	perReq map[int]float64
	// under counts spans by (ancestor name, span name).
	under map[[2]string]int
}

func aggregate(spans []span, skip map[string]bool) layerStats {
	self := selfTimes(spans)
	ls := layerStats{
		self:   map[string][]float64{},
		total:  map[string][]float64{},
		perReq: map[int]float64{},
		under:  map[[2]string]int{},
	}
	for i, s := range spans {
		us := func(d time.Duration) float64 { return float64(d) / 1e3 }
		ls.self[s.Name] = append(ls.self[s.Name], us(self[i]))
		ls.total[s.Name] = append(ls.total[s.Name], us(s.End-s.Start))
		if s.Parent >= 0 && !skip[s.Name] {
			ls.perReq[s.Req] += us(self[i])
		}
		for p := s.Parent; p >= 0; p = spans[p].Parent {
			if !nameAbove(spans, s.Parent, p) {
				ls.under[[2]string{spans[p].Name, s.Name}]++
			}
		}
	}
	return ls
}

// nameAbove reports whether a span between from (inclusive) and p
// (exclusive) on the ancestor chain has the same name as p, so recursive
// layers count each descendant once.
func nameAbove(spans []span, from, p int) bool {
	for q := from; q != p; q = spans[q].Parent {
		if spans[q].Name == spans[p].Name {
			return true
		}
	}
	return false
}

// count returns the number of spans with the given name.
func (ls layerStats) count(name string) int { return len(ls.total[name]) }

// writeSpans writes the recording as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}

// tracedPolicy is a transparent sim.Policy wrapper that records every Pick
// as a "sched.pick" span.
type tracedPolicy struct {
	inner sim.Policy
	rec   *recorder
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	id := p.rec.begin("sched.pick")
	out := p.inner.Pick(now, queue, running, free, total, est)
	p.rec.end(id)
	return out
}

// tracedPredictor is a transparent predict.Predictor wrapper around the
// core predictor, recording Predict and Observe as "core.predict" and
// "core.observe" spans.
type tracedPredictor struct {
	inner predict.Predictor
	rec   *recorder
}

func (p tracedPredictor) Name() string { return p.inner.Name() }

func (p tracedPredictor) Predict(j *workload.Job, age int64) (int64, bool) {
	id := p.rec.begin("core.predict")
	sec, ok := p.inner.Predict(j, age)
	p.rec.end(id)
	p.rec.predicted(ok)
	return sec, ok
}

func (p tracedPredictor) Observe(j *workload.Job) {
	id := p.rec.begin("core.observe")
	p.inner.Observe(j)
	p.rec.end(id)
}
