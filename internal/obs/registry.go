// Package obs is the repository's observability substrate: a dependency-free
// metrics registry (atomic counters, gauges, and latency histograms with
// quantile snapshots) plus a leveled structured logger.
//
// The paper's predictor is an operational service — schedulers query it at
// every submission (§1) — so the reproduction needs first-class measurement
// of prediction latencies, category growth, GA search progress, and
// simulator throughput before any scaling work can be trusted. Every type
// here is safe for concurrent use; the record paths (Counter.Inc, Gauge.Set,
// Histogram.Observe) are lock-free so instrumentation never serializes the
// hot paths it measures.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up or down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named metrics. Lookup is guarded by a read-write mutex;
// the metrics themselves are atomic, so steady-state instrumentation (the
// instrument handle is usually cached by the caller) never contends.
type Registry struct {
	mu sync.RWMutex
	// The metric tables are guarded by mu and grow one entry per distinct
	// metric name.

	// bounded by the static metric-name set: every registration site passes
	// a literal name or one derived from startup configuration (admission
	// classes, accuracy streams), never from request data
	counters map[string]*Counter
	// bounded by the static metric-name set (see counters)
	gauges map[string]*Gauge
	// bounded by the static metric-name set (see counters)
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry, shaped
// for JSON (the /v1/metrics endpoint returns exactly this).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Names are sorted only by the JSON
// encoder; the maps are fresh copies safe to retain.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Names returns the sorted names of all registered metrics (for tests and
// periodic log lines).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
