package histstore

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// DefaultShards is the default shard count. Category keys hash uniformly
// (user/executable/queue combinations), so 64 shards keep write collisions
// rare well past the point where the WAL, not the locks, bounds insert
// throughput.
const DefaultShards = 64

// The store's read side is lock-free by copy-on-write: each shard
// publishes an immutable view through an atomic pointer, and every write
// builds replacement state off to the side before swapping it in. The
// structure is two-level so the two write frequencies pay for themselves
// separately:
//
//   - shardView maps keys to category handles. The map is immutable once
//     published and is cloned-and-swapped only when a key is added or
//     replaced (rare after warm-up), so the steady-state insert never
//     clones a map.
//   - catHandle carries the current immutable *Category for one key. Every
//     insert clones the category (see Category.cowInsert for why the clone
//     is usually an O(1) shared-backing append) and swaps the handle's
//     pointer.
//
// Readers therefore do two atomic loads and one map lookup — no mutex, no
// allocation — and always observe a category that was fully built before
// publication. Writers serialize per shard on a plain Mutex. Memory
// reclamation is the garbage collector's: a reader that loaded an old view
// keeps it alive until it is done, and nothing ever mutates a published
// view, so there is no torn state and no ABA hazard to manage.

// shard is one write-serialization domain of the category map.
type shard struct {
	mu   sync.Mutex                // serializes writers (clone-and-swap)
	view atomic.Pointer[shardView] // swapped under mu
}

// shardView is one shard's immutable key table. The map must never be
// mutated after it is published; writers clone it to add or replace a key.
type shardView struct {
	// bounded by Store.maxCats: applyLocked refuses to publish a new key
	// once nCats reaches the cap, so the union of all shards' tables stays
	// finite no matter what keys the observe path is fed; Put, the other
	// publish path, reinstalls snapshots that were written under the same cap
	cats map[string]*catHandle
}

// catHandle is the mutation point for one category: inserts swap cur to
// the next immutable snapshot while the handle itself stays in the map, so
// per-point writes never have to republish the key table. key is the
// category's key string, shared with the key table, so a reader that
// probed with a rendered byte key can report the key without copying it.
type catHandle struct {
	key string

	// cur is replaced only while the owning shard's mu is held; it cannot
	// carry a "swapped under" annotation because its guard lives in a
	// different struct, which is exactly why inserts route through the
	// shard's writer mutex before touching it.
	cur atomic.Pointer[Category]
}

// loadView returns the shard's current immutable view.
func (sh *shard) loadView() *shardView { return sh.view.Load() }

// Store is the concurrency-safe category-statistics store. Reads
// (Get/Categories) are lock-free: they follow per-shard copy-on-write
// snapshots and can run in parallel with any number of writers. Inserts
// take one shard's writer mutex. A store opened with Open additionally
// journals every insert to a write-ahead log and can persist snapshots;
// a store from New is memory-only.
type Store struct {
	shards []shard
	seed   maphash.Seed

	// maxCats caps the total number of categories (keys) across all
	// shards; 0 disables the cap. Without it, a stream of never-repeating
	// keys — a misconfigured template or a hostile observe feed — grows
	// the key tables without bound for the life of the daemon.
	maxCats int

	// Aggregate sizes, maintained on the insert path so gauges and
	// capacity planning never need a full sweep.
	nCats   atomic.Int64
	nPoints atomic.Int64

	wal     *wal       // nil for memory-only stores
	dir     string     // snapshot/WAL directory; "" for memory-only
	walSync bool       // fsync the WAL after every append
	snapMu  sync.Mutex // serializes Snapshot callers
	metrics atomic.Pointer[storeMetrics]
}

// storeMetrics caches obs instrument handles for the store's hot paths.
// Every instrument here is internally atomic, so recording on the read
// path keeps it lock-free.
type storeMetrics struct {
	categories  *obs.Gauge
	points      *obs.Gauge
	walRecords  *obs.Counter
	walBytes    *obs.Gauge
	walErrors   *obs.Counter
	snapSeconds *obs.Histogram
	insertLat   *obs.Histogram
	predictLat  *obs.Histogram
}

// Option configures a Store.
type Option func(*Store)

// WithShards sets the shard count (rounded up to a power of two; minimum 1).
func WithShards(n int) Option {
	return func(s *Store) {
		if n < 1 {
			n = 1
		}
		p := 1
		for p < n {
			p <<= 1
		}
		s.shards = make([]shard, p)
	}
}

// DefaultMaxCategories is the default cap on the total number of
// categories a store will hold. The paper's template sets produce at most
// a few thousand categories per workload; a store that reaches a million
// distinct keys is being fed garbage, and refusing the million-and-first
// is strictly better than growing until the daemon is OOM-killed.
const DefaultMaxCategories = 1 << 20

// ErrCategoryLimit is returned by Insert when creating one more category
// would exceed the store's cap (WithMaxCategories). Points for existing
// categories are unaffected.
var ErrCategoryLimit = errors.New("histstore: category limit reached")

// WithMaxCategories caps the total number of categories (0 disables the
// cap; the default is DefaultMaxCategories).
func WithMaxCategories(n int) Option {
	return func(s *Store) {
		if n < 0 {
			n = 0
		}
		s.maxCats = n
	}
}

// WithSync makes a durable store fsync the WAL after every append. The
// default flushes each record to the operating system (surviving a process
// kill) without forcing it to the device (an OS crash can lose the tail);
// WithSync trades insert throughput for device-level durability.
func WithSync() Option {
	return func(s *Store) { s.walSync = true }
}

// New creates a memory-only store (no WAL, no snapshots). Open creates a
// durable one.
func New(opts ...Option) *Store {
	s := &Store{
		shards:  make([]shard, DefaultShards),
		seed:    maphash.MakeSeed(),
		maxCats: DefaultMaxCategories,
	}
	for _, o := range opts {
		o(s)
	}
	empty := &shardView{cats: map[string]*catHandle{}}
	for i := range s.shards {
		s.shards[i].view.Store(empty)
	}
	return s
}

// SetMetrics registers the store's metrics on reg and starts recording.
// Call once, before concurrent use; a nil registry detaches metrics.
func (s *Store) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.metrics.Store(nil)
		return
	}
	m := &storeMetrics{
		categories:  reg.Gauge("histstore.categories"),
		points:      reg.Gauge("histstore.points"),
		walRecords:  reg.Counter("histstore.wal.records"),
		walBytes:    reg.Gauge("histstore.wal.bytes"),
		walErrors:   reg.Counter("histstore.wal.errors"),
		snapSeconds: reg.Histogram("histstore.snapshot.seconds"),
		insertLat:   reg.Histogram("histstore.insert.latency_seconds"),
		predictLat:  reg.Histogram("histstore.predict.latency_seconds"),
	}
	s.metrics.Store(m)
	s.refreshGauges(m)
}

// refreshGauges pushes the current aggregate sizes into the gauges.
func (s *Store) refreshGauges(m *storeMetrics) {
	if m == nil {
		return
	}
	m.categories.SetInt(s.nCats.Load())
	m.points.SetInt(s.nPoints.Load())
	if s.wal != nil {
		m.walBytes.SetInt(s.wal.size())
	}
}

// RefreshMetrics re-publishes the size gauges (categories, points, WAL
// bytes); handlers that serve metrics snapshots call it first.
func (s *Store) RefreshMetrics() { s.refreshGauges(s.metrics.Load()) }

// shardOf returns the shard owning a rendered key.
func (s *Store) shardOf(key []byte) *shard { return s.shardAt(maphash.Bytes(s.seed, key)) }

// shardAt returns the shard owning a key whose hash under s.seed is h.
// maphash.String and maphash.Bytes agree on equal contents, so a string
// key and its rendered bytes land on the same shard.
func (s *Store) shardAt(h uint64) *shard { return &s.shards[h&uint64(len(s.shards)-1)] }

// Insert records one completed-job point under key, creating the category
// (with the given history bound) on first use. Like Get, it takes the key
// as rendered bytes and indexes the tables without converting them; only
// a new category copies the key into the string it is stored under.
// Invalid points (see Point.Validate) are rejected up front, before they
// can reach memory or the WAL. For durable stores the point is appended
// to the WAL before it is applied — the write-ahead contract — and a WAL
// append failure leaves the in-memory state unchanged so memory never
// runs ahead of the log.
func (s *Store) Insert(key []byte, maxHistory int, p Point) error {
	return s.insert(nil, key, maxHistory, p)
}

// InsertCtx is Insert with the shard operation recorded as a child span of
// the trace active in ctx ("histstore.insert", with a nested
// "histstore.wal_append" around the journal write for durable stores).
// Without an active trace it is exactly Insert.
func (s *Store) InsertCtx(ctx context.Context, key []byte, maxHistory int, p Point) error {
	_, sp := trace.StartSpan(ctx, "histstore.insert")
	if sp != nil {
		sp.SetAttr("category", string(key))
		defer sp.End()
	}
	return s.insert(sp, key, maxHistory, p)
}

// insert is the shared Insert body; sp, when non-nil, receives a child
// span around the WAL append (the usual suspect when an insert is slow).
func (s *Store) insert(sp *trace.Span, key []byte, maxHistory int, p Point) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	sh := s.shardOf(key)
	sh.mu.Lock()
	// Check the category cap before journaling: a rejected insert must not
	// leave a record the next replay would also have to reject.
	if err := s.roomFor(sh, key); err != nil {
		sh.mu.Unlock()
		return err
	}
	if s.wal != nil {
		wsp := sp.StartChild("histstore.wal_append")
		err := s.wal.append(key, maxHistory, p)
		wsp.End()
		if err != nil {
			sh.mu.Unlock()
			if m != nil {
				m.walErrors.Inc()
			}
			return fmt.Errorf("histstore: wal append: %w", err)
		}
	}
	aerr := s.applyLocked(sh, key, maxHistory, p)
	sh.mu.Unlock()
	if aerr != nil {
		return aerr
	}
	if m != nil {
		m.insertLat.Observe(time.Since(start).Seconds())
		if s.wal != nil {
			m.walRecords.Inc()
		}
		s.refreshGauges(m)
	}
	return nil
}

// roomFor reports whether key can be inserted under the category cap:
// nil for existing keys, and for new keys while the store-wide count is
// below maxCats. The caller holds sh's writer mutex, so the answer stays
// true through the subsequent applyLocked for this shard's keys.
func (s *Store) roomFor(sh *shard, key []byte) error {
	if s.maxCats <= 0 {
		return nil
	}
	if _, ok := sh.loadView().cats[string(key)]; ok {
		return nil
	}
	if s.nCats.Load() >= int64(s.maxCats) {
		return fmt.Errorf("%w (%d categories; raise WithMaxCategories or fix the category key template)",
			ErrCategoryLimit, s.maxCats)
	}
	return nil
}

// applyLocked inserts a point into a shard whose writer mutex the caller
// holds: clone the current category snapshot (or start a new one), insert
// off to the side, and publish with an atomic swap. Readers racing with
// this observe either the old snapshot or the fully built new one. The
// only error is ErrCategoryLimit, when publishing a new key would exceed
// the store's category cap. A new category is the only place the rendered
// key becomes a string.
//
// taint: sink publishes the key and point into the live category table
func (s *Store) applyLocked(sh *shard, key []byte, maxHistory int, p Point) error {
	v := sh.loadView()
	if h, ok := v.cats[string(key)]; ok {
		c := h.cur.Load()
		before := c.Size()
		nc := c.cowInsert(p)
		h.cur.Store(nc)
		s.nPoints.Add(int64(nc.Size() - before))
		return nil
	}
	if err := s.roomFor(sh, key); err != nil {
		return err
	}
	c := NewCategory(maxHistory)
	c.Insert(p)
	h := &catHandle{key: string(key)}
	h.cur.Store(c)
	sh.view.Store(v.withKey(h.key, h))
	s.nCats.Add(1)
	s.nPoints.Add(int64(c.Size()))
	return nil
}

// withKey clones the view's key table with key bound to h.
func (v *shardView) withKey(key string, h *catHandle) *shardView {
	cats := make(map[string]*catHandle, len(v.cats)+1)
	for k, old := range v.cats {
		cats[k] = old
	}
	cats[key] = h
	return &shardView{cats: cats}
}

// Get returns the current immutable snapshot of the category stored under
// key, and the key string the store holds it under. The lookup is
// lock-free (two atomic loads and a map probe) and allocation-free: the
// caller renders the key into its own buffer, and the store indexes its
// table with it without converting it to a string. The returned category
// is never mutated afterwards — an insert racing with Get builds and
// publishes a successor snapshot instead — so the caller may read it for
// as long as it likes, but must not modify it.
//
// hotpath: no-lock no-alloc no-clock
func (s *Store) Get(key []byte) (c *Category, stored string, ok bool) {
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now() //lint:allow hotpath self-instrumentation: the predict-latency metric needs the clock; skipped when metrics are off
	}
	c, stored, ok = s.get(key)
	if m != nil {
		m.predictLat.Observe(time.Since(start).Seconds()) //lint:allow hotpath self-instrumentation clock read; skipped when metrics are off
	}
	return c, stored, ok
}

// GetCtx is Get with the lookup recorded as a child span of the trace
// active in ctx ("histstore.view", category and hit attributes). Without
// an active trace it is exactly Get.
//
// hotpath: exempt span plumbing runs only when a trace is sampled; untraced requests take Get directly
func (s *Store) GetCtx(ctx context.Context, key []byte) (*Category, string, bool) {
	sp := trace.SpanFromContext(ctx).StartChild("histstore.view")
	if sp == nil {
		return s.Get(key)
	}
	c, stored, ok := s.Get(key)
	if ok {
		sp.SetAttr("category", stored)
	} else {
		sp.SetAttr("category", string(key))
		sp.SetAttr("hit", "false")
	}
	sp.End()
	return c, stored, ok
}

// get is the uninstrumented snapshot lookup.
func (s *Store) get(key []byte) (*Category, string, bool) {
	h, ok := s.shardOf(key).loadView().cats[string(key)]
	if !ok {
		return nil, "", false
	}
	return h.cur.Load(), h.key, true
}

// Put installs a fully built category under key, replacing any existing
// one. The store takes ownership: the caller must not mutate c after Put.
// It is the snapshot-load path and does not journal: the snapshot it
// restores from already makes the state recoverable.
//
// taint: sink installs a fully built category into the live table without journaling
func (s *Store) Put(key string, c *Category) {
	c.finalize()
	sh := s.shardAt(maphash.String(s.seed, key))
	sh.mu.Lock()
	v := sh.loadView()
	if h, ok := v.cats[key]; ok {
		old := h.cur.Load()
		s.nPoints.Add(int64(c.Size() - old.Size()))
		h.cur.Store(c)
		sh.mu.Unlock()
		return
	}
	h := &catHandle{key: key}
	h.cur.Store(c)
	sh.view.Store(v.withKey(key, h))
	s.nCats.Add(1)
	s.nPoints.Add(int64(c.Size()))
	sh.mu.Unlock()
}

// Categories returns the number of categories currently stored.
func (s *Store) Categories() int { return int(s.nCats.Load()) }

// Points returns the total number of points stored across all categories.
func (s *Store) Points() int { return int(s.nPoints.Load()) }

// ForEach visits every (key, category) pair, one shard snapshot at a time,
// in an unspecified order. The visit is lock-free: each category is the
// immutable snapshot current when its shard's view was loaded, so a
// concurrent insert is either fully visible or fully absent, never torn.
// f must not mutate the category.
func (s *Store) ForEach(f func(key string, c *Category)) {
	for i := range s.shards {
		for k, h := range s.shards[i].loadView().cats {
			f(k, h.cur.Load())
		}
	}
}

// sortedKeys returns every category key in sorted order (deterministic
// snapshot layout and tests).
func (s *Store) sortedKeys() []string {
	keys := make([]string, 0, s.Categories())
	for i := range s.shards {
		for k := range s.shards[i].loadView().cats {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
