package histstore

import (
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
			k := keys[rng.Intn(len(keys))]
			if err := s.Insert(k, 1024, pt(float64(1+rng.Intn(5000)), 6000, 8)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreInsertFullRing measures steady-state inserts into rings at
// the largest default history bound: 16 categories pre-filled to 16384
// points, so every timed insert evicts — the write path of a long-running
// daemon, where each copy-on-write successor copies what holds the head
// slot.
func BenchmarkStoreInsertFullRing(b *testing.B) {
	const bound = 16384
	s := New()
	keys := benchKeys(16)
	rng := rand.New(rand.NewSource(1))
	for _, k := range keys {
		for i := 0; i < bound; i++ {
			if err := s.Insert(k, bound, pt(float64(1+rng.Intn(5000)), 6000, 8)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert(keys[i%len(keys)], bound, pt(float64(1+rng.Intn(5000)), 6000, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreInsertPredict interleaves writers and readers 1:4 — the
// production mix, where every submission triggers a fan-out of category
// reads while completions stream in.
func BenchmarkStoreInsertPredict(b *testing.B) {
	s := New()
	keys := benchKeys(4096)
	warm := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<14; i++ {
		k := keys[warm.Intn(len(keys))]
		if err := s.Insert(k, 1024, pt(float64(1+warm.Intn(5000)), 6000, 8)); err != nil {
			b.Fatal(err)
		}
	}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ctr.Add(1)
		rng := rand.New(rand.NewSource(id))
		write := id%5 == 0
		for pb.Next() {
			i := rng.Intn(len(keys))
			if write {
				if err := s.Insert(keys[i], 1024, pt(float64(1+rng.Intn(5000)), 6000, 8)); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if c, _, ok := s.Get(keys[i]); ok {
				mean, v := c.Abs().MeanVar()
				_ = mean
				_ = v
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
	keys := benchKeys(4096)
	warm := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<14; i++ {
		k := keys[warm.Intn(len(keys))]
		if err := s.Insert(k, 1024, pt(float64(1+warm.Intn(5000)), 6000, 8)); err != nil {
			b.Fatal(err)
		}
	}
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
	keys := benchKeys(4096)
	warm := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<14; i++ {
		k := keys[warm.Intn(len(keys))]
		if err := s.Insert(k, 1024, pt(float64(1+warm.Intn(5000)), 6000, 8)); err != nil {
			b.Fatal(err)
		}
	}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		for pb.Next() {
			c, _, ok := s.Get(keys[rng.Intn(len(keys))])
			if ok {
				_, _, _ = c.AbsStats()
			}
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
			k := keys[rng.Intn(len(keys))]
			if err := s.Insert(k, 1024, pt(float64(1+rng.Intn(5000)), 6000, 8)); err != nil {
				b.Fatal(err)
			}
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
		k := keys[rng.Intn(len(keys))]
		if err := s.Insert(k, 64, pt(float64(1+rng.Intn(5000)), 6000, 8)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
