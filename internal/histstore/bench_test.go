package histstore

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// benchKeys precomputes a realistic key population: a few thousand
// (template, value-combination) categories, zipf-free uniform access,
// rendered the way the predictor hands keys to the store — as byte slices
// prepared before the timed loop.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "%d|u%d|e%d", i%12, i%997, i%311)
	}
	return keys
}

// History bounds: the streaming benchmarks' categories, and the largest
// default bound.
const (
	benchBound    = 1024
	fullRingBound = 16384
)

// insert is the unit the insert benchmarks time: one point, its run time
// drawn from rng, into category k under bound.
func insert(tb testing.TB, s *Store, k []byte, bound int, rng *rand.Rand) {
	if err := s.Insert(context.Background(), k, bound, pt(float64(1+rng.Intn(5000)), 6000, 8)); err != nil {
		tb.Fatal(err)
	}
}

// insertRandom is one streaming insert, into a category drawn from keys.
func insertRandom(tb testing.TB, s *Store, keys [][]byte, rng *rand.Rand) {
	insert(tb, s, keys[rng.Intn(len(keys))], benchBound, rng)
}

// readRandom is one category read as the predictor makes it: a lock-free
// Get of a key drawn from keys, then the category's finalized moments.
func readRandom(s *Store, keys [][]byte, rng *rand.Rand) {
	if c, _, ok := s.Get(keys[rng.Intn(len(keys))]); ok {
		_, _, _ = c.AbsStats()
	}
}

// warmStore fills s with 1<<14 seeded streaming inserts over 4096 keys, the
// history the read benchmarks probe, and returns the keys.
func warmStore(tb testing.TB, s *Store) [][]byte {
	tb.Helper()
	keys := benchKeys(4096)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<14; i++ {
		insertRandom(tb, s, keys, rng)
	}
	return keys
}

// fullRings fills 16 categories of s to fullRingBound points, so every
// further insert into them evicts, and returns their keys.
func fullRings(tb testing.TB, s *Store, rng *rand.Rand) [][]byte {
	tb.Helper()
	keys := benchKeys(16)
	for _, k := range keys {
		for i := 0; i < fullRingBound; i++ {
			insert(tb, s, k, fullRingBound, rng)
		}
	}
	return keys
}

// BenchmarkStoreInsert measures parallel streaming inserts into the
// sharded in-memory store — the per-completion cost of the online path.
func BenchmarkStoreInsert(b *testing.B) {
	s := New()
	keys := benchKeys(4096)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		for pb.Next() {
			insertRandom(b, s, keys, rng)
		}
	})
}

// BenchmarkStoreInsertFullRing measures steady-state inserts into rings at
// the largest default history bound: 16 categories pre-filled to 16384
// points, so every timed insert evicts — the write path of a long-running
// daemon, where each copy-on-write successor copies what holds the head
// slot.
func BenchmarkStoreInsertFullRing(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	keys := fullRings(b, s, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert(b, s, keys[i%len(keys)], fullRingBound, rng)
	}
}

// BenchmarkStoreInsertPredict interleaves writers and readers 1:4 — the
// production mix, where every submission triggers a fan-out of category
// reads while completions stream in. Each goroutine draws write or read
// per operation from its own rng, so the mix holds at every -cpu,
// including a single goroutine.
func BenchmarkStoreInsertPredict(b *testing.B) {
	s := New()
	keys := warmStore(b, s)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		for pb.Next() {
			if rng.Intn(5) == 0 {
				insertRandom(b, s, keys, rng)
			} else {
				readRandom(s, keys, rng)
			}
		}
	})
}

// BenchmarkStoreGet measures one lock-free category read — a pointer load
// of the shard view plus a map probe — against a warmed store. This is the
// unit the predict fan-out multiplies by the template count, and it must
// stay allocation-free.
func BenchmarkStoreGet(b *testing.B) {
	s := New()
	keys := warmStore(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _, ok := s.Get(keys[i%len(keys)])
		if ok {
			_, _, _ = c.AbsStats()
		}
	}
}

// BenchmarkStoreGetParallel is BenchmarkStoreGet under concurrent readers
// (run with -cpu 1,2,4,8): reads are independent atomic loads of immutable
// snapshots, so per-op time should not degrade as readers are added.
func BenchmarkStoreGetParallel(b *testing.B) {
	s := New()
	keys := warmStore(b, s)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		for pb.Next() {
			readRandom(s, keys, rng)
		}
	})
}

// BenchmarkStoreInsertDurable is BenchmarkStoreInsert through the WAL —
// the journaling overhead per insert (flush-per-record, no fsync).
func BenchmarkStoreInsertDurable(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := benchKeys(4096)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		for pb.Next() {
			insertRandom(b, s, keys, rng)
		}
	})
}

// BenchmarkSnapshot measures snapshotting a populated store (the
// stop-the-writers pause an operator pays per checkpoint).
func BenchmarkSnapshot(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	keys := benchKeys(2048)
	for i := 0; i < 1<<15; i++ {
		insert(b, s, keys[rng.Intn(len(keys))], 64, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocationCeilings holds the allocs/op of the store benchmarks above
// as ceilings on the operations they time, run serially. Store.Get alone is
// held at zero by TestStoreGetByteKey. The parallel benchmarks' per-op work
// is the serial read and insert. Streaming inserts amortize their
// allocations (a category header per insert, a tail chunk or key-table
// clone now and then), so their rows average a fixed seeded sequence of
// 4096 inserts into a warmed store.
func TestAllocationCeilings(t *testing.T) {
	mem := New()
	keys := warmStore(t, mem)
	dur, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	warmStore(t, dur)
	rng := rand.New(rand.NewSource(2))
	ring := New()
	ringKeys := fullRings(t, ring, rng)
	i := 0
	for _, c := range []struct {
		name    string
		runs    int
		ceiling float64
		op      func()
	}{
		{"read (StoreGetParallel; StoreInsertPredict's reads)", 100, 0, func() { readRandom(mem, keys, rng) }},
		{"StoreInsert", 4096, 1, func() { insertRandom(t, mem, keys, rng) }},
		{"StoreInsertDurable", 4096, 3, func() { insertRandom(t, dur, keys, rng) }},
		{"StoreInsertFullRing", 100, 3, func() { insert(t, ring, ringKeys[i%len(ringKeys)], fullRingBound, rng); i++ }},
	} {
		if n := testing.AllocsPerRun(c.runs, c.op); n > c.ceiling {
			t.Errorf("%s: %v allocs per op, ceiling %v", c.name, n, c.ceiling)
		}
	}
}
