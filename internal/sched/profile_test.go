package sched

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestProfileBasics(t *testing.T) {
	p := NewProfile(100, 8)
	if p.Start() != 100 {
		t.Fatalf("Start = %d", p.Start())
	}
	if p.FreeAt(100) != 8 || p.FreeAt(1e9) != 8 {
		t.Fatal("fresh profile should be fully free forever")
	}
}

func TestProfileAllocate(t *testing.T) {
	p := NewProfile(0, 8)
	if err := p.Allocate(10, 20, 3); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    int64
		want int
	}{
		{0, 8}, {9, 8}, {10, 5}, {15, 5}, {19, 5}, {20, 8}, {100, 8},
	}
	for _, c := range cases {
		if got := p.FreeAt(c.t); got != c.want {
			t.Errorf("FreeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestProfileAllocateOverlapping(t *testing.T) {
	p := NewProfile(0, 8)
	if err := p.Allocate(0, 100, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(50, 150, 4); err != nil {
		t.Fatal(err)
	}
	if got := p.FreeAt(75); got != 0 {
		t.Errorf("FreeAt(75) = %d, want 0", got)
	}
	// Third allocation overlapping the exhausted window must fail.
	if err := p.Allocate(60, 70, 1); err == nil {
		t.Fatal("over-allocation should fail")
	}
	// And must not have modified the profile.
	if got := p.FreeAt(65); got != 0 {
		t.Errorf("failed allocation modified profile: FreeAt(65) = %d", got)
	}
	if got := p.FreeAt(120); got != 4 {
		t.Errorf("FreeAt(120) = %d, want 4", got)
	}
}

func TestProfileAllocateErrors(t *testing.T) {
	p := NewProfile(100, 8)
	if err := p.Allocate(50, 150, 1); err == nil {
		t.Error("allocation before profile start should fail")
	}
	if err := p.Allocate(200, 200, 1); err == nil {
		t.Error("empty allocation should fail")
	}
	if err := p.Allocate(200, 300, 0); err == nil {
		t.Error("zero-node allocation should fail")
	}
	if err := p.Allocate(200, 300, 9); err == nil {
		t.Error("allocation larger than machine should fail")
	}
}

func TestEarliestFitImmediate(t *testing.T) {
	p := NewProfile(0, 8)
	if got := p.EarliestFit(0, 100, 8); got != 0 {
		t.Fatalf("empty machine: EarliestFit = %d", got)
	}
}

func TestEarliestFitAfterRelease(t *testing.T) {
	p := NewProfile(0, 8)
	// 6 nodes busy until t=50.
	if err := p.Allocate(0, 50, 6); err != nil {
		t.Fatal(err)
	}
	// 2 nodes fit immediately.
	if got := p.EarliestFit(0, 100, 2); got != 0 {
		t.Errorf("2 nodes: EarliestFit = %d, want 0", got)
	}
	// 4 nodes must wait for the release.
	if got := p.EarliestFit(0, 100, 4); got != 50 {
		t.Errorf("4 nodes: EarliestFit = %d, want 50", got)
	}
}

func TestEarliestFitGapTooShort(t *testing.T) {
	p := NewProfile(0, 8)
	// Full machine busy during [100, 200): a 60-second 8-node job fits in
	// [0,100) only if it ends by 100.
	if err := p.Allocate(100, 200, 8); err != nil {
		t.Fatal(err)
	}
	if got := p.EarliestFit(0, 60, 8); got != 0 {
		t.Errorf("short job: EarliestFit = %d, want 0", got)
	}
	if got := p.EarliestFit(0, 150, 8); got != 200 {
		t.Errorf("long job: EarliestFit = %d, want 200 (gap too short)", got)
	}
	// A job needing exactly the gap fits at 0.
	if got := p.EarliestFit(0, 100, 8); got != 0 {
		t.Errorf("exact-gap job: EarliestFit = %d, want 0", got)
	}
}

func TestEarliestFitFromInsideSegment(t *testing.T) {
	p := NewProfile(0, 8)
	if err := p.Allocate(0, 100, 8); err != nil {
		t.Fatal(err)
	}
	if got := p.EarliestFit(30, 10, 1); got != 100 {
		t.Errorf("EarliestFit(from=30) = %d, want 100", got)
	}
	if got := p.EarliestFit(150, 10, 8); got != 150 {
		t.Errorf("EarliestFit(from=150) = %d, want 150", got)
	}
}

func TestEarliestFitRespectsFutureReservation(t *testing.T) {
	p := NewProfile(0, 8)
	// Reservation of 5 nodes at [40, 90).
	if err := p.Allocate(40, 90, 5); err != nil {
		t.Fatal(err)
	}
	// A 4-node 60-second job cannot start at 0 (would overlap the window
	// with only 3 free); earliest is 90.
	if got := p.EarliestFit(0, 60, 4); got != 90 {
		t.Errorf("EarliestFit = %d, want 90", got)
	}
	// A 3-node job can run through the reservation.
	if got := p.EarliestFit(0, 60, 3); got != 0 {
		t.Errorf("3-node EarliestFit = %d, want 0", got)
	}
}

// Property test: EarliestFit always returns a feasible start, and no earlier
// breakpoint start is feasible.
func TestEarliestFitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		total := 2 + rng.Intn(16)
		p := NewProfile(0, total)
		// Random feasible allocations.
		for k := 0; k < 10; k++ {
			s := int64(rng.Intn(500))
			e := s + 1 + int64(rng.Intn(200))
			n := 1 + rng.Intn(total)
			// Only allocate if feasible.
			feasible := true
			for x := s; x < e; x++ {
				if p.FreeAt(x) < n {
					feasible = false
					break
				}
			}
			if feasible {
				if err := p.Allocate(s, e, n); err != nil {
					t.Fatalf("feasible allocation rejected: %v", err)
				}
			}
		}
		nodes := 1 + rng.Intn(total)
		dur := int64(1 + rng.Intn(100))
		from := int64(rng.Intn(300))
		got := p.EarliestFit(from, dur, nodes)
		if got < from {
			t.Fatalf("EarliestFit %d before from %d", got, from)
		}
		// Feasibility of the result.
		for x := got; x < got+dur; x++ {
			if p.FreeAt(x) < nodes {
				t.Fatalf("EarliestFit returned infeasible start %d (free %d < %d at %d)",
					got, p.FreeAt(x), nodes, x)
			}
		}
		// No earlier integer start is feasible (exhaustive check over the
		// small horizon).
		for s := from; s < got; s++ {
			ok := true
			for x := s; x < s+dur; x++ {
				if p.FreeAt(x) < nodes {
					ok = false
					break
				}
			}
			if ok {
				t.Fatalf("missed earlier feasible start %d < %d", s, got)
			}
		}
	}
}

func TestMinMaxFree(t *testing.T) {
	p := NewProfile(0, 8)
	if err := p.Allocate(10, 20, 5); err != nil {
		t.Fatal(err)
	}
	if p.MaxFree() != 8 || p.MinFree() != 3 {
		t.Fatalf("MaxFree=%d MinFree=%d", p.MaxFree(), p.MinFree())
	}
}

// allocatedProfile is the oracle for runningProfile: the profile that the
// per-job Allocate loops build on a machine of free plus the running nodes,
// with the book's reservations allocated first (as Backfill.Pick
// with a Book once did) and then every running job from now to its estimated end. nil
// when an allocation fails.
func allocatedProfile(now int64, running []*workload.Job, free int, est sim.Estimator, book []Reservation) *Profile {
	capacity := free
	for _, r := range running {
		capacity += r.Nodes
	}
	p := NewProfile(now, capacity)
	if allocateBook(p, now, book) != nil {
		return nil
	}
	for _, r := range running {
		end := r.StartTime + est(r, now-r.StartTime)
		if end <= now {
			end = now + 1
		}
		if err := p.Allocate(now, end, r.Nodes); err != nil {
			return nil
		}
	}
	return p
}

// allocateBook allocates the part of each reservation from now on, as
// Backfill.Pick does with a Book.
func allocateBook(p *Profile, now int64, book []Reservation) error {
	for _, r := range book {
		if err := p.Allocate(max(r.Start, now), r.End, r.Nodes); err != nil {
			return err
		}
	}
	return nil
}

// sameProfile reports whether a and b are both nil, or have the same
// breakpoints and free counts.
func sameProfile(a, b *Profile) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.times, b.times) && slices.Equal(a.free, b.free)
}

// TestRunningProfileMatchesAllocate checks that the running-job profile
// built with one sort is the one the per-job Allocate loop builds — same
// breakpoints, same free counts, same failures — over random running sets
// with tied ends, ends at or before now, free counts of zero and below,
// and jobs holding no nodes. With a random reservation book allocated on
// top (Backfill's order when it has a Book), it must still equal the profile, or the
// failure, of allocating the book first and the running jobs second.
func TestRunningProfileMatchesAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	est := func(j *workload.Job, age int64) int64 { return j.RunTime }
	const now = 1000
	var built, failed int
	for trial := 0; trial < 5000; trial++ {
		running := make([]*workload.Job, rng.Intn(12))
		for i := range running {
			nodes := 1 + rng.Intn(8)
			if rng.Intn(40) == 0 {
				nodes = -rng.Intn(2) // 0 or -1
			}
			running[i] = &workload.Job{
				ID:        i,
				Nodes:     nodes,
				StartTime: now - int64(rng.Intn(6))*10,
				RunTime:   int64(rng.Intn(7)) * 10, // ends in [now-50, now+60]: ties and ends <= now
			}
		}
		free := rng.Intn(6) - 1 // -1..4
		book := make([]Reservation, rng.Intn(3))
		for i := range book {
			s := int64(now - 20 + rng.Intn(60))
			book[i] = Reservation{ID: i, Start: s, End: max(s+1+int64(rng.Intn(40)), now+1), Nodes: 1 + rng.Intn(4)}
		}

		got := runningProfile(now, running, free, est, 0)
		if want := allocatedProfile(now, running, free, est, nil); !sameProfile(got, want) {
			t.Fatalf("trial %d: free %d, running %v: got %+v, want %+v", trial, free, running, got, want)
		}
		if got == nil {
			failed++
		} else {
			built++
		}

		got = runningProfile(now, running, free, est, 2*len(book))
		if got != nil && allocateBook(got, now, book) != nil {
			got = nil
		}
		if want := allocatedProfile(now, running, free, est, book); !sameProfile(got, want) {
			t.Fatalf("trial %d: free %d, running %v, book %v: got %+v, want %+v", trial, free, running, book, got, want)
		}
	}
	if built == 0 || failed == 0 {
		t.Fatalf("random sets built %d profiles and failed %d; want both", built, failed)
	}
}
