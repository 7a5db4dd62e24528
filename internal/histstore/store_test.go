package histstore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func pt(rt, maxRT, nodes float64) Point {
	ratio := math.NaN()
	if maxRT > 0 {
		ratio = rt / maxRT
	}
	return Point{RunTime: rt, Ratio: ratio, Nodes: nodes}
}

func TestStoreInsertAndGet(t *testing.T) {
	s := New()
	if err := s.Insert(context.Background(), []byte("k1"), 0, pt(100, 200, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(context.Background(), []byte("k1"), 0, pt(120, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(context.Background(), []byte("k2"), 0, pt(7, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Categories() != 2 || s.Points() != 3 {
		t.Fatalf("categories=%d points=%d, want 2/3", s.Categories(), s.Points())
	}
	c, _, ok := s.Get([]byte("k1"))
	if !ok {
		t.Fatal("k1 missing")
	}
	if mean, _ := c.Abs().MeanVar(); c.Size() != 2 || mean != 110 {
		t.Fatalf("k1: n=%d mean=%v, want 2/110", c.Size(), mean)
	}
	if _, _, ok := s.Get([]byte("nope")); ok {
		t.Fatal("missing key reported present")
	}
	// Ratio moments only count points that carried a maximum.
	if c.Rat().N != 1 {
		t.Fatalf("ratio n = %d, want 1", c.Rat().N)
	}
}

// TestStoreGetByteKey checks the read-side contract: a rendered byte key
// finds the category inserted under its string form (the shard hash of
// the bytes matches the string's), Get reports the key the store holds,
// Put-installed categories carry their key too, and a lookup allocates
// nothing.
func TestStoreGetByteKey(t *testing.T) {
	s := New(WithShards(16))
	for i := 0; i < 64; i++ {
		if err := s.Insert(context.Background(), fmt.Appendf(nil, "%d|user%d", i%5, i), 0, pt(float64(10+i), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Put("put|key", NewCategory(0))
	for _, k := range []string{"0|user0", "3|user63", "put|key"} {
		buf := append(make([]byte, 0, 32), k...)
		c, stored, ok := s.Get(buf)
		if !ok || c == nil || stored != k {
			t.Fatalf("Get(%q) = %v, %q, %v", k, c, stored, ok)
		}
		if n := testing.AllocsPerRun(50, func() { s.Get(buf) }); n != 0 {
			t.Errorf("Get(%q): %v allocs per run, want 0", k, n)
		}
	}
	if c, stored, ok := s.Get([]byte("0|nobody")); ok || c != nil || stored != "" {
		t.Fatalf("missing key: %v, %q, %v", c, stored, ok)
	}
}

func TestStoreBoundedEviction(t *testing.T) {
	s := New(WithShards(4))
	for i := 0; i < 10; i++ {
		if err := s.Insert(context.Background(), []byte("k"), 4, pt(100, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.Insert(context.Background(), []byte("k"), 4, pt(500, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Points() != 4 {
		t.Fatalf("points = %d, want history bound 4", s.Points())
	}
	c, _, _ := s.Get([]byte("k"))
	if mean, v := c.Abs().MeanVar(); mean != 500 || v != 0 {
		t.Fatalf("post-eviction moments = (%v, %v), want (500, 0)", mean, v)
	}
}

// TestCategoryMomentsMatchRecompute hammers a bounded category and checks
// the incremental Welford moments against a from-scratch recomputation of
// the surviving ring contents.
func TestCategoryMomentsMatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCategory(32)
	for i := 0; i < 10_000; i++ {
		rt := float64(1 + rng.Intn(100000))
		maxRT := 0.0
		if rng.Intn(3) > 0 {
			maxRT = rt + float64(rng.Intn(100000))
		}
		c.Insert(pt(rt, maxRT, 1))
	}
	var abs, rat []float64
	c.ForEach(func(p Point) {
		abs = append(abs, p.RunTime)
		if !math.IsNaN(p.Ratio) {
			rat = append(rat, p.Ratio)
		}
	})
	checkMoments := func(name string, n int, mean, variance float64, vals []float64) {
		t.Helper()
		var sum float64
		for _, v := range vals {
			sum += v
		}
		wantMean := sum / float64(len(vals))
		var m2 float64
		for _, v := range vals {
			m2 += (v - wantMean) * (v - wantMean)
		}
		wantVar := m2 / float64(len(vals)-1)
		if n != len(vals) {
			t.Fatalf("%s: n=%d, recount %d", name, n, len(vals))
		}
		if math.Abs(mean-wantMean) > 1e-9*(1+math.Abs(wantMean)) {
			t.Fatalf("%s: mean %v, want %v", name, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 1e-6*(1+math.Abs(wantVar)) {
			t.Fatalf("%s: variance %v, want %v", name, variance, wantVar)
		}
	}
	am, av := c.Abs().MeanVar()
	checkMoments("abs", c.Abs().N, am, av, abs)
	rm, rv := c.Rat().MeanVar()
	checkMoments("rat", c.Rat().N, rm, rv, rat)
}

func TestStorePutAndForEach(t *testing.T) {
	s := New()
	c := NewCategory(2)
	c.Insert(pt(10, 0, 1))
	c.Insert(pt(20, 0, 1))
	s.Put("a", c)
	if err := s.Insert(context.Background(), []byte("b"), 0, pt(5, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Categories() != 2 || s.Points() != 3 {
		t.Fatalf("categories=%d points=%d", s.Categories(), s.Points())
	}
	// Replacing a key keeps the aggregate counts right.
	s.Put("a", NewCategory(0))
	if s.Categories() != 2 || s.Points() != 1 {
		t.Fatalf("after replace: categories=%d points=%d, want 2/1", s.Categories(), s.Points())
	}
	seen := map[string]int{}
	s.ForEach(func(k string, c *Category) { seen[k] = c.Size() })
	if len(seen) != 2 || seen["a"] != 0 || seen["b"] != 1 {
		t.Fatalf("ForEach saw %v", seen)
	}
}

// TestStoreConcurrentInsertPredict drives parallel writers and readers
// through the sharded maps; run under -race this is the store's
// concurrency-safety proof.
func TestStoreConcurrentInsertPredict(t *testing.T) {
	s := New(WithShards(8))
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	const (
		writers = 4
		readers = 4
		keys    = 37
		inserts = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < inserts; i++ {
				k := fmt.Appendf(nil, "cat-%d", rng.Intn(keys))
				if err := s.Insert(context.Background(), k, 16, pt(float64(1+rng.Intn(1000)), 0, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < inserts; i++ {
				k := fmt.Sprintf("cat-%d", rng.Intn(keys))
				if c, _, ok := s.Get([]byte(k)); ok {
					mean, _ := c.Abs().MeanVar()
					if c.Size() > 0 && (math.IsNaN(mean) || mean <= 0) {
						t.Errorf("key %s: mean %v with %d points", k, mean, c.Size())
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if s.Categories() != keys {
		t.Fatalf("categories = %d, want %d", s.Categories(), keys)
	}
	if s.Points() != keys*16 {
		t.Fatalf("points = %d, want every category at its bound (%d)", s.Points(), keys*16)
	}
	s.RefreshMetrics()
	snap := reg.Snapshot()
	if snap.Gauges["histstore.categories"] != float64(keys) {
		t.Fatalf("categories gauge = %v", snap.Gauges["histstore.categories"])
	}
	if snap.Histograms["histstore.insert.latency_seconds"].Count != writers*inserts {
		t.Fatalf("insert latency count = %d", snap.Histograms["histstore.insert.latency_seconds"].Count)
	}
	// The lookup latency histogram counts traced lookups only: the
	// readers' untraced Gets above read no clock and record nothing.
	if n := snap.Histograms["histstore.predict.latency_seconds"].Count; n != 0 {
		t.Fatalf("predict latency count after untraced reads = %d, want 0", n)
	}
	tr := trace.New(trace.WithSampleRate(1))
	const traced = 5
	for i := 0; i < traced; i++ {
		ctx, root := tr.StartRoot(context.Background(), "test.get")
		s.GetCtx(ctx, []byte(fmt.Sprintf("cat-%d", i)))
		root.End()
	}
	s.GetCtx(context.Background(), []byte("cat-0")) // untraced: not counted
	if n := reg.Snapshot().Histograms["histstore.predict.latency_seconds"].Count; n != traced {
		t.Fatalf("predict latency count after %d traced lookups = %d", traced, n)
	}
}

func TestWithShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {64, 64}, {65, 128}} {
		s := New(WithShards(tc.in))
		if len(s.shards) != tc.want {
			t.Errorf("WithShards(%d) -> %d shards, want %d", tc.in, len(s.shards), tc.want)
		}
	}
}

// TestRestoreCategoryValidation: snapshot recovery refuses persisted
// category state whose points or ring shape no live category could have,
// and restores a valid ring with its persisted moments verbatim.
func TestRestoreCategoryValidation(t *testing.T) {
	if _, err := restoreCategory(persistState{MaxHistory: 2, Points: []Point{{RunTime: -1, Nodes: 1}}}); err == nil {
		t.Error("negative run time accepted")
	}
	if _, err := restoreCategory(persistState{MaxHistory: 2, Points: make([]Point, 3)}); err == nil {
		t.Error("points beyond history bound accepted")
	}
	if _, err := restoreCategory(persistState{MaxHistory: 2, Head: 5,
		Points: []Point{{RunTime: 1, Nodes: 1, Ratio: math.NaN()}}}); err == nil {
		t.Error("out-of-range head accepted")
	}
	if _, err := restoreCategory(persistState{MaxHistory: 4, Head: 1,
		Points: []Point{pt(1, 0, 1), pt(2, 0, 1)}}); err == nil {
		t.Error("ring head on a ring that is not full accepted")
	}
	live := NewCategory(2)
	for _, p := range []Point{pt(10, 0, 1), pt(20, 40, 2), pt(30, 60, 1)} {
		live.Insert(p)
	}
	c, err := restoreCategory(live.state())
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 || c.Abs().N != 2 || c.Rat().N != 2 {
		t.Fatalf("restored category: size=%d absN=%d ratN=%d", c.Size(), c.Abs().N, c.Rat().N)
	}
	m, v, n := c.AbsStats()
	lm, lv, ln := live.AbsStats()
	if math.Float64bits(m) != math.Float64bits(lm) || math.Float64bits(v) != math.Float64bits(lv) || n != ln {
		t.Fatalf("restored abs stats (%v, %v, %d), live (%v, %v, %d)", m, v, n, lm, lv, ln)
	}
}

// TestInsertRejectsInvalidPoints: the write path refuses every point that
// recovery (restoreCategory) would reject, so a durable store can never
// journal or snapshot data that bricks its own next boot.
func TestInsertRejectsInvalidPoints(t *testing.T) {
	bad := []Point{
		{RunTime: 0, Ratio: math.NaN(), Nodes: 1},
		{RunTime: -5, Ratio: math.NaN(), Nodes: 1},
		{RunTime: math.NaN(), Ratio: math.NaN(), Nodes: 1},
		{RunTime: math.Inf(1), Ratio: math.NaN(), Nodes: 1},
		{RunTime: 10, Ratio: math.NaN(), Nodes: 0},
		{RunTime: 10, Ratio: math.NaN(), Nodes: -2},
		{RunTime: 10, Ratio: math.NaN(), Nodes: math.NaN()},
	}
	s := New()
	for _, p := range bad {
		if err := s.Insert(context.Background(), []byte("k"), 0, p); err == nil {
			t.Errorf("invalid point %+v accepted", p)
		}
	}
	if s.Categories() != 0 || s.Points() != 0 {
		t.Fatalf("rejected points mutated the store: %d categories, %d points",
			s.Categories(), s.Points())
	}
}

// TestMemoryStoreWALRecordsMetricSilent: a memory-only store journals
// nothing, so the WAL-records counter must stay at zero across inserts.
func TestMemoryStoreWALRecordsMetricSilent(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	for i := 0; i < 5; i++ {
		if err := s.Insert(context.Background(), []byte("k"), 0, pt(100, 200, 4)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counters["histstore.wal.records"]; n != 0 {
		t.Fatalf("wal.records = %d on a memory-only store, want 0", n)
	}
}
