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
func (p Point) Validate() error {
	if !(p.RunTime > 0) || math.IsInf(p.RunTime, 0) {
		return fmt.Errorf("histstore: point run time %v must be positive and finite", p.RunTime)
	}
	if !(p.Nodes > 0) || math.IsInf(p.Nodes, 0) {
		return fmt.Errorf("histstore: point node count %v must be positive and finite", p.Nodes)
	}
	return nil
}

// chunkSize is the number of points in every full chunk of a category
// ring. An eviction copies one chunk plus the spine of chunk pointers, so
// the constant trades the chunk copy (chunkSize points) against the spine
// copy (maxHistory/chunkSize pointers): at 128, a full 16384-point ring
// costs a 3 KiB chunk and a 1 KiB spine per insert.
const chunkSize = 128

// Category is the bounded history of one (template, value-combination)
// pair: a ring buffer of the most recent points plus running Welford
// moments over the current contents, for absolute run times and for
// run-time/maximum ratios. The moments are finalized (mean and variance
// materialized) on every mutation, so the predict path reads them with two
// plain loads instead of re-deriving them per request.
//
// The ring's slots are stored in chunks: slot i lives in full[i/chunkSize]
// while that chunk exists, and the slots past the full chunks live in
// tail, which grows like an append-built slice up to chunkSize points
// (so a category with a few points pays for a few points, not a chunk).
// Full chunks and the spine that holds them are shared between successive
// snapshots and copied only when an eviction rewrites one of their slots.
//
// A Category is not internally synchronized. Insert mutates one in place,
// which is only safe before it is shared; the Store treats every
// published category as immutable and mutates through cowInsert, which
// returns a successor snapshot — that is what makes the store's read path
// lock-free.
type Category struct {
	maxHistory int                 // 0 = unlimited
	full       []*[chunkSize]Point // slots [0, len(full)*chunkSize)
	tail       []Point             // the slots after them, at most chunkSize
	head       int                 // ring start when bounded and full

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
func (c *Category) Size() int { return len(c.full)*chunkSize + len(c.tail) }

// isFull reports whether the ring is bounded and at its bound, so the next
// insert evicts the point in the head slot.
func (c *Category) isFull() bool {
	return c.maxHistory > 0 && c.Size() == c.maxHistory
}

// slot returns the storage for ring slot i (0 <= i < Size()).
func (c *Category) slot(i int) *Point {
	if k := i / chunkSize; k < len(c.full) {
		return &c.full[k][i%chunkSize]
	}
	return &c.tail[i-len(c.full)*chunkSize]
}

// push appends p at slot Size() of a ring that is not full. The write
// lands past the length every earlier snapshot sharing this storage was
// published with: a full tail moves onto the spine (as a chunk pointer at
// index len(full)) and a fresh chunk-sized tail starts, otherwise p is
// appended to the tail, which grows like any append-built slice while it
// is the first chunk.
func (c *Category) push(p Point) {
	if len(c.tail) == chunkSize {
		c.full = append(c.full, (*[chunkSize]Point)(c.tail))
		c.tail = make([]Point, 0, chunkSize)
	}
	c.tail = append(c.tail, p)
}

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
	if c.isFull() {
		c.evict(c.slot(c.head), p)
	} else {
		c.push(p)
	}
	c.abs.Add(p.RunTime)
	c.rat.Add(p.Ratio)
	c.finalize()
}

// evict replaces the oldest point, stored at s (the head slot), with p and
// advances the head, removing the old point from the moments first.
func (c *Category) evict(s *Point, p Point) {
	c.abs.Remove(s.RunTime)
	c.rat.Remove(s.Ratio)
	*s = p
	c.head = (c.head + 1) % c.maxHistory
}

// cowInsert returns a successor snapshot with p inserted, leaving c
// untouched — the Store's copy-on-write path. The arithmetic is exactly
// Insert's (the moments are copied by value and stepped identically), so a
// chain of cowInserts is bit-for-bit a chain of Inserts.
//
// While the ring is still filling, the successor shares c's spine and tail
// and pushes past their published lengths, which no reader of an earlier
// snapshot can observe. Only the writer (serialized by the shard mutex)
// extends the storage, always from the newest snapshot, so two successors
// never contend for the same slot. Once the bounded ring is full, eviction
// must overwrite a slot readers can see, so the successor copies what
// holds that slot: the spine and the one full chunk, or the tail. That is
// O(chunkSize + maxHistory/chunkSize) per insert — at most three
// allocations counting the successor itself — and every other chunk stays
// shared.
func (c *Category) cowInsert(p Point) *Category {
	nc := &Category{maxHistory: c.maxHistory, full: c.full, tail: c.tail,
		head: c.head, abs: c.abs, rat: c.rat}
	if !c.isFull() {
		nc.push(p)
	} else {
		if k := c.head / chunkSize; k < len(c.full) {
			nc.full = make([]*[chunkSize]Point, len(c.full))
			copy(nc.full, c.full)
			chunk := *c.full[k]
			nc.full[k] = &chunk
		} else {
			nc.tail = make([]Point, len(c.tail))
			copy(nc.tail, c.tail)
		}
		nc.evict(nc.slot(nc.head), p)
	}
	nc.abs.Add(p.RunTime)
	nc.rat.Add(p.Ratio)
	nc.finalize()
	return nc
}

// ForEach visits every stored point in slot (storage) order: slot 0 to
// Size()-1, which is not chronological once a bounded ring has wrapped.
// The order is part of the contract: callers that fold floating-point sums
// over the points (core's age-conditioned mean and regressions) get
// bit-identical results only because every storage layout, and a category
// restored from a snapshot, visits the same slots in the same order.
func (c *Category) ForEach(f func(Point)) {
	for _, chunk := range c.full {
		for i := range chunk {
			f(chunk[i])
		}
	}
	for _, p := range c.tail {
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

// state captures the category's durable state, its ring flattened into
// one slice in slot order.
func (c *Category) state() persistState {
	points := make([]Point, 0, c.Size())
	c.ForEach(func(p Point) { points = append(points, p) })
	return persistState{
		MaxHistory: c.maxHistory,
		Head:       c.head,
		Points:     points,
		Abs:        c.abs,
		Rat:        c.rat,
	}
}

// restoreCategory rebuilds a category from persisted state, validating the
// ring invariants.
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
	if ps.Head != 0 && len(ps.Points) != ps.MaxHistory {
		// A live ring moves its head only once it is full; a head on a
		// filling ring would make the next evictions skip the oldest point.
		return nil, fmt.Errorf("histstore: ring head %d on a ring holding %d of %d points",
			ps.Head, len(ps.Points), ps.MaxHistory)
	}
	c := NewCategory(ps.MaxHistory)
	for _, p := range ps.Points {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("histstore: invalid point %+v: %w", p, err)
		}
		c.push(p)
	}
	c.head = ps.Head
	c.abs = ps.Abs
	c.rat = ps.Rat
	c.finalize()
	return c, nil
}
