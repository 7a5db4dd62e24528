package histstore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/stats"
)

// catFingerprint is everything observable about a category, floats as
// their IEEE-754 bits: the ForEach sequence (when seq is set), the head,
// both moment sets and the finalized stats.
type catFingerprint struct {
	seq      []uint64
	head     int
	abs, rat [3]uint64
	stats    [6]uint64
}

func momentBits(m *stats.Moments) [3]uint64 {
	return [3]uint64{uint64(m.N), math.Float64bits(m.Mean), math.Float64bits(m.M2)}
}

func fingerprint(c *Category, seq bool) catFingerprint {
	f := catFingerprint{head: c.head, abs: momentBits(c.Abs()), rat: momentBits(c.Rat())}
	am, av, an := c.AbsStats()
	rm, rv, rn := c.RatStats()
	f.stats = [6]uint64{math.Float64bits(am), math.Float64bits(av), uint64(an),
		math.Float64bits(rm), math.Float64bits(rv), uint64(rn)}
	if seq {
		f.seq = pointBits(c)
	}
	return f
}

// pointBits is c's ForEach sequence as raw bits.
func pointBits(c *Category) []uint64 {
	out := make([]uint64, 0, 3*c.Size())
	c.ForEach(func(p Point) {
		out = append(out, math.Float64bits(p.RunTime), math.Float64bits(p.Ratio), math.Float64bits(p.Nodes))
	})
	return out
}

func equalFingerprints(a, b catFingerprint) bool {
	return a.head == b.head && a.abs == b.abs && a.rat == b.rat && a.stats == b.stats &&
		slices.Equal(a.seq, b.seq)
}

func mustEqualFingerprints(t *testing.T, what string, want, got catFingerprint) {
	t.Helper()
	if want.head != got.head || want.abs != got.abs || want.rat != got.rat || want.stats != got.stats {
		t.Fatalf("%s: head/moments/stats diverged:\n want %+v\n got  %+v", what,
			[]any{want.head, want.abs, want.rat, want.stats}, []any{got.head, got.abs, got.rat, got.stats})
	}
	if len(want.seq) != len(got.seq) {
		t.Fatalf("%s: %d vs %d point words", what, len(want.seq), len(got.seq))
	}
	for i := range want.seq {
		if want.seq[i] != got.seq[i] {
			t.Fatalf("%s: point word %d (slot %d) diverged", what, i, i/3)
		}
	}
}

// flatRing is the reference ring layout: one slice in slot order, the
// oldest point overwritten in place once the bound is reached. Every
// storage layout must visit the same slots in the same order.
type flatRing struct {
	max, head int
	points    []Point
}

func (r *flatRing) insert(p Point) {
	if r.max > 0 && len(r.points) == r.max {
		r.points[r.head] = p
		r.head = (r.head + 1) % r.max
		return
	}
	r.points = append(r.points, p)
}

func (r *flatRing) bits() []uint64 {
	out := make([]uint64, 0, 3*len(r.points))
	for _, p := range r.points {
		out = append(out, math.Float64bits(p.RunTime), math.Float64bits(p.Ratio), math.Float64bits(p.Nodes))
	}
	return out
}

// TestCOWInsertMatchesInsert: a chain of copy-on-write inserts is
// bit-for-bit a chain of in-place inserts — ForEach sequence, head, both
// moment sets and finalized stats — on bounds around the chunk size and
// at the largest default bound, through several wraps of each bounded
// ring with NaN ratios mixed in. Both chains visit the slots of the flat
// reference ring in its order, and every snapshot kept along the way
// still yields its own sequence and stats after all later inserts. A ring
// restored from its persisted state matches and keeps matching.
func TestCOWInsertMatchesInsert(t *testing.T) {
	for _, h := range []int{0, 1, 2, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 5, 16384} {
		t.Run(fmt.Sprint(h), func(t *testing.T) {
			n := 3*h + 2*chunkSize + 7 // wraps every bounded ring at least three times
			// Full sequences are compared every stride steps (every step on
			// small rings); head, moments and stats on every step.
			stride := 1 + h/64
			rng := rand.New(rand.NewSource(int64(h) + 1))
			inPlace := NewCategory(h)
			cow := NewCategory(h)
			ref := &flatRing{max: h}
			type kept struct {
				step int
				c    *Category
				fp   catFingerprint
			}
			var snaps []kept
			// A reader re-reads each kept snapshot while the writer goes on
			// inserting, so under -race a write into storage a published
			// snapshot can see is reported where it happens.
			toReader := make(chan kept, 16)
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for s := range toReader {
					if fp := fingerprint(s.c, true); !equalFingerprints(s.fp, fp) {
						t.Errorf("snapshot from step %d changed under a concurrent reader", s.step)
					}
				}
			}()
			// Stop the reader before the subtest returns, also when a check
			// below fails it early.
			defer func() { close(toReader); <-readerDone }()
			for step := 1; step <= n; step++ {
				maxRT := float64(1 + rng.Intn(8000))
				if rng.Intn(4) == 0 {
					maxRT = 0 // NaN ratio
				}
				p := pt(float64(1+rng.Intn(5000)), maxRT, float64(1+rng.Intn(64)))
				inPlace.Insert(p)
				cow = cow.cowInsert(p)
				ref.insert(p)

				seq := step%stride == 0 || step > n-3
				want := fingerprint(inPlace, seq)
				got := fingerprint(cow, seq)
				what := fmt.Sprintf("step %d", step)
				mustEqualFingerprints(t, what, want, got)
				if cow.Size() != len(ref.points) || cow.head != ref.head {
					t.Fatalf("%s: size/head %d/%d, flat ring %d/%d", what, cow.Size(), cow.head, len(ref.points), ref.head)
				}
				if seq {
					mustEqualFingerprints(t, what+" vs flat ring", catFingerprint{seq: ref.bits(), head: ref.head,
						abs: want.abs, rat: want.rat, stats: want.stats}, got)
				}
				if step%(7*stride) == 1 || step == h || step == h+1 || step == h+chunkSize {
					snaps = append(snaps, kept{step, cow, fingerprint(cow, true)})
					toReader <- snaps[len(snaps)-1]
				}
			}
			for _, s := range snaps {
				mustEqualFingerprints(t, fmt.Sprintf("snapshot from step %d", s.step), s.fp, fingerprint(s.c, true))
			}

			// A ring restored from its flattened state is the same ring,
			// and keeps inserting like it.
			restored, err := restoreCategory(cow.state())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*chunkSize+3; i++ {
				mustEqualFingerprints(t, fmt.Sprintf("restored, insert %d", i), fingerprint(cow, true), fingerprint(restored, true))
				p := pt(float64(1+rng.Intn(5000)), 6000, 4)
				cow, restored = cow.cowInsert(p), restored.cowInsert(p)
			}
		})
	}
}

// TestFullRingInsertCost pins the copy-on-write cost of eviction: a
// steady-state insert into a full 16384-point ring allocates at most 8 KiB
// in at most three allocations (successor, spine, one chunk), where a
// whole-ring copy would be 384 KiB.
func TestFullRingInsertCost(t *testing.T) {
	c := NewCategory(16384)
	for i := 0; i < 16384+17; i++ {
		c.Insert(pt(float64(1+i%977), 6000, 8))
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c = c.cowInsert(pt(float64(1+i%613), 6000, 8))
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b > 8<<10 {
		t.Errorf("full-ring insert allocates %d bytes, want <= 8 KiB", b)
	}
	if a := testing.AllocsPerRun(n, func() { c = c.cowInsert(pt(42, 6000, 8)) }); a > 3 {
		t.Errorf("full-ring insert makes %v allocations, want <= 3", a)
	}
}
