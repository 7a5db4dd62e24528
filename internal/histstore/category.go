// Package histstore is the online category-history store behind the
// paper's prediction technique. Every completed job is inserted into the
// category of each matching template (§2.1 step 3), and predictions are
// means or regressions over those categories — so at production scale the
// category database is the hot shared state: millions of inserts streaming
// in while every submission fans out into dozens of category reads.
//
// The store keeps that state
//
//   - incremental: each category carries Welford count/mean/M2 moments
//     (stats.Moments) maintained across insertion and ring-buffer eviction,
//     so the paper's mean predictions and confidence intervals are O(1)
//     per category instead of a batch recompute;
//   - concurrent: categories are sharded by key hash, each shard
//     publishing an immutable copy-on-write view through an atomic
//     pointer, so predictions are lock-free pointer loads from any number
//     of goroutines while inserts serialize only against other inserts to
//     the same shard;
//   - durable: an append-only write-ahead log records every insert before
//     it is applied, and periodic snapshots (written to a temporary file
//     and atomically renamed) bound recovery time; recovery is snapshot
//     load + WAL replay, and the WAL is compacted after each snapshot.
//
// The package is deliberately ignorant of jobs and templates: keys are
// opaque byte strings (internal/core renders them from template/value
// combinations) and values are Points. internal/core layers the paper's
// estimate selection on top: every template predictor keeps its category
// database in a Store, memory-only (New) or durable (Open).
package histstore

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Point is one completed job's contribution to a category.
type Point struct {
	// RunTime is the absolute run time in seconds.
	RunTime float64
	// Ratio is RunTime divided by the user-supplied maximum run time, or
	// NaN when the job carried no maximum.
	Ratio float64
	// Nodes is the job's node count (a float so regressions can consume
	// it directly).
	Nodes float64
}

// Validate reports whether the point may enter a category: run time and
// node count must be positive and finite (Ratio may be NaN for jobs
// without a user-supplied maximum). Store.Insert enforces this on the
// write path so the WAL and snapshots never hold a point that recovery
// would reject — recovery-time validation must never be the first gate
// for data the write path accepted.
//
// taint: sanitizer rejects non-positive and non-finite points before they are journaled
func (p Point) Validate() error {
	if !(p.RunTime > 0) || math.IsInf(p.RunTime, 0) {
		return fmt.Errorf("histstore: point run time %v must be positive and finite", p.RunTime)
	}
	if !(p.Nodes > 0) || math.IsInf(p.Nodes, 0) {
		return fmt.Errorf("histstore: point node count %v must be positive and finite", p.Nodes)
	}
	return nil
}

// Category is the bounded history of one (template, value-combination)
// pair: a ring buffer of the most recent points plus running Welford
// moments over the current contents, for absolute run times and for
// run-time/maximum ratios. The moments are finalized (mean and variance
// materialized) on every mutation, so the predict path reads them with two
// plain loads instead of re-deriving them per request.
//
// A Category is not internally synchronized. Insert mutates one in place,
// which is only safe before it is shared; the Store treats every
// published category as immutable and mutates through cowInsert, which
// returns a successor snapshot — that is what makes the store's read path
// lock-free.
type Category struct {
	maxHistory int // 0 = unlimited
	points     []Point
	head       int // ring start when bounded and full

	abs stats.Moments // moments of Point.RunTime
	rat stats.Moments // moments of Point.Ratio (NaN-skipping)

	// Finalized aggregates, recomputed by finalize() after every
	// mutation: the MeanVar() of abs and rat at observe time, bit-for-bit
	// what a read-time MeanVar() on the same moments would return.
	absMean, absVar float64
	ratMean, ratVar float64
}

// NewCategory creates an empty category retaining at most maxHistory
// points (0 = unlimited).
func NewCategory(maxHistory int) *Category {
	if maxHistory < 0 {
		maxHistory = 0
	}
	return &Category{maxHistory: maxHistory}
}

// MaxHistory returns the category's history bound (0 = unlimited).
func (c *Category) MaxHistory() int { return c.maxHistory }

// Size returns the number of points currently stored.
func (c *Category) Size() int { return len(c.points) }

// Abs returns the running moments of the absolute run times.
func (c *Category) Abs() *stats.Moments { return &c.abs }

// Rat returns the running moments of the run-time/maximum ratios.
func (c *Category) Rat() *stats.Moments { return &c.rat }

// AbsStats returns the finalized absolute-run-time aggregates: the mean,
// variance, and sample count materialized at observe time. The values are
// bit-for-bit Abs().MeanVar() and Abs().N.
func (c *Category) AbsStats() (mean, variance float64, n int) {
	return c.absMean, c.absVar, c.abs.N
}

// RatStats returns the finalized run-time/maximum-ratio aggregates,
// bit-for-bit Rat().MeanVar() and Rat().N.
func (c *Category) RatStats() (mean, variance float64, n int) {
	return c.ratMean, c.ratVar, c.rat.N
}

// finalize materializes the moment aggregates the predict path consumes.
// Called after every mutation and restore, so readers of a published
// category never touch MeanVar.
func (c *Category) finalize() {
	c.absMean, c.absVar = c.abs.MeanVar()
	c.ratMean, c.ratVar = c.rat.MeanVar()
}

// Insert adds a completed job's point, evicting the oldest point when the
// bounded history is full (paper step 3(b)ii). Moments are updated
// incrementally: the evicted point is removed before the new one is added,
// so they always describe exactly the ring's current contents.
func (c *Category) Insert(p Point) {
	if c.maxHistory > 0 && len(c.points) == c.maxHistory {
		old := c.points[c.head]
		c.abs.Remove(old.RunTime)
		c.rat.Remove(old.Ratio)
		c.points[c.head] = p
		c.head = (c.head + 1) % c.maxHistory
	} else {
		c.points = append(c.points, p)
	}
	c.abs.Add(p.RunTime)
	c.rat.Add(p.Ratio)
	c.finalize()
}

// cowInsert returns a successor snapshot with p inserted, leaving c
// untouched — the Store's copy-on-write path. The arithmetic is exactly
// Insert's (the moments are copied by value and stepped identically), so a
// chain of cowInserts is bit-for-bit a chain of Inserts.
//
// While the ring is still filling, the clone appends to the shared backing
// array instead of copying: the new element lands at index len(c.points),
// which is past the length of every previously published snapshot, so no
// reader can observe the write. Only the writer (serialized by the shard
// mutex) extends the array, always from the newest snapshot, so two clones
// never contend for the same slot. Once the bounded ring is full, eviction
// must overwrite a slot readers can see, and the clone degrades to a full
// O(maxHistory) copy — the price of keeping readers lock-free, paid by the
// rare writes instead of the dominant reads.
func (c *Category) cowInsert(p Point) *Category {
	nc := &Category{maxHistory: c.maxHistory, head: c.head, abs: c.abs, rat: c.rat}
	if c.maxHistory > 0 && len(c.points) == c.maxHistory {
		nc.points = make([]Point, c.maxHistory)
		copy(nc.points, c.points)
		old := nc.points[nc.head]
		nc.abs.Remove(old.RunTime)
		nc.rat.Remove(old.Ratio)
		nc.points[nc.head] = p
		nc.head = (nc.head + 1) % nc.maxHistory
	} else {
		nc.points = append(c.points, p)
	}
	nc.abs.Add(p.RunTime)
	nc.rat.Add(p.Ratio)
	nc.finalize()
	return nc
}

// ForEach visits every stored point (order unspecified).
func (c *Category) ForEach(f func(Point)) {
	for _, p := range c.points {
		f(p)
	}
}

// persistState is the category's full durable state: the raw ring slice
// (in storage order, with the head index), plus both moment sets verbatim.
// Snapshots persist the moments rather than rebuilding them from the
// points because the live moments are the product of the category's whole
// add/evict history; rebuilding from the surviving points alone would
// drift from the live values in the low bits and break the store's
// bit-for-bit recovery guarantee.
type persistState struct {
	MaxHistory int
	Head       int
	Points     []Point
	Abs, Rat   stats.Moments
}

// state captures the category's durable state. The points slice is a copy.
func (c *Category) state() persistState {
	return persistState{
		MaxHistory: c.maxHistory,
		Head:       c.head,
		Points:     append([]Point(nil), c.points...),
		Abs:        c.abs,
		Rat:        c.rat,
	}
}

// restoreCategory rebuilds a category from persisted state, validating the
// ring invariants.
//
// taint: sanitizer rejects persisted state whose ring shape or points are invalid
func restoreCategory(ps persistState) (*Category, error) {
	if ps.MaxHistory < 0 {
		return nil, fmt.Errorf("histstore: negative maxHistory %d", ps.MaxHistory)
	}
	if ps.MaxHistory > 0 && len(ps.Points) > ps.MaxHistory {
		return nil, fmt.Errorf("histstore: %d points exceed history bound %d",
			len(ps.Points), ps.MaxHistory)
	}
	if ps.Head != 0 && (ps.MaxHistory == 0 || ps.Head < 0 || ps.Head >= ps.MaxHistory) {
		return nil, fmt.Errorf("histstore: ring head %d out of range for history %d",
			ps.Head, ps.MaxHistory)
	}
	for _, p := range ps.Points {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("histstore: invalid point %+v: %w", p, err)
		}
	}
	c := NewCategory(ps.MaxHistory)
	c.points = append(c.points, ps.Points...)
	c.head = ps.Head
	c.abs = ps.Abs
	c.rat = ps.Rat
	c.finalize()
	return c, nil
}
