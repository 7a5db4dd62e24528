package sched

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestReservationBookAdmission(t *testing.T) {
	var b ReservationBook
	id1, err := b.Add(100, 200, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping claim that fits alongside.
	if _, err := b.Add(150, 250, 2, 8); err != nil {
		t.Fatal(err)
	}
	// Overlapping claim that does not fit.
	if _, err := b.Add(150, 160, 3, 8); err == nil {
		t.Fatal("over-committed reservation admitted")
	}
	// Removing the first frees the capacity.
	if !b.Remove(id1) {
		t.Fatal("remove failed")
	}
	if _, err := b.Add(150, 160, 6, 8); err != nil {
		t.Fatalf("reservation after removal rejected: %v", err)
	}
	if b.Remove(9999) {
		t.Fatal("removing unknown id succeeded")
	}
}

func TestReservationBookValidation(t *testing.T) {
	var b ReservationBook
	if _, err := b.Add(100, 100, 1, 8); err == nil {
		t.Error("empty interval admitted")
	}
	if _, err := b.Add(0, 10, 0, 8); err == nil {
		t.Error("zero nodes admitted")
	}
	if _, err := b.Add(0, 10, 9, 8); err == nil {
		t.Error("oversize reservation admitted")
	}
}

func TestReservationBookActive(t *testing.T) {
	var b ReservationBook
	if _, err := b.Add(0, 100, 1, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(200, 300, 1, 8); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Active(150)); got != 1 {
		t.Fatalf("Active(150) = %d reservations, want 1", got)
	}
	if got := len(b.Active(0)); got != 2 {
		t.Fatalf("Active(0) = %d reservations, want 2", got)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestEarliestSlot(t *testing.T) {
	var b ReservationBook
	if _, err := b.Add(100, 200, 8, 8); err != nil { // whole machine reserved
		t.Fatal(err)
	}
	// A short job fits before the reservation.
	got, err := b.EarliestSlot(0, 100, 4, 8)
	if err != nil || got != 0 {
		t.Fatalf("EarliestSlot = %d, %v; want 0", got, err)
	}
	// A longer one must wait until after it.
	got, err = b.EarliestSlot(0, 150, 4, 8)
	if err != nil || got != 200 {
		t.Fatalf("EarliestSlot = %d, %v; want 200", got, err)
	}
	if _, err := b.EarliestSlot(0, 10, 9, 8); err == nil {
		t.Fatal("oversize slot query should error")
	}
}

func TestReservingBackfillWallsOffReservation(t *testing.T) {
	var b ReservationBook
	// Reserve the whole 4-node machine during [100, 200).
	if _, err := b.Add(100, 200, 4, 4); err != nil {
		t.Fatal(err)
	}
	pol := Backfill{}.WithBook(&b)
	queue := []*workload.Job{
		job(1, 4, 50),  // ends at 50 < 100: may start
		job(2, 4, 150), // would overlap the reservation: must wait
	}
	picked := pol.Pick(0, queue, nil, 4, 4, actualEst)
	if !sameIDs(picked, 1) {
		t.Fatalf("picked %v, want [1]", ids(picked))
	}
	// At t=60 job 2 still cannot start (would run into the reservation).
	picked = pol.Pick(60, queue[1:], nil, 4, 4, actualEst)
	if len(picked) != 0 {
		t.Fatalf("picked %v at t=60, want none", ids(picked))
	}
	// At t=200 the reservation has expired.
	picked = pol.Pick(200, queue[1:], nil, 4, 4, actualEst)
	if !sameIDs(picked, 2) {
		t.Fatalf("picked %v at t=200, want [2]", ids(picked))
	}
}

// TestReservingBackfillWithoutBookEqualsBackfill: a book with no
// reservations walls off nothing, so backfill picks as it does with none,
// and only the name tells the two apart; a nil book is no book at all.
func TestReservingBackfillWithoutBookEqualsBackfill(t *testing.T) {
	running := []*workload.Job{runningJob(10, 2, 0, 100)}
	queue := []*workload.Job{job(1, 4, 500), job(2, 2, 50)}
	for _, plain := range []Backfill{{}, {EASY: true}} {
		withBook := plain.WithBook(&ReservationBook{})
		got, want := withBook.Pick(0, queue, running, 2, 4, actualEst), plain.Pick(0, queue, running, 2, 4, actualEst)
		if !slices.Equal(ids(got), ids(want)) {
			t.Fatalf("%s picked %v, %s picked %v", withBook.Name(), ids(got), plain.Name(), ids(want))
		}
		if withBook.Name() != plain.Name()+"+resv" {
			t.Fatalf("names %q and %q, want the book's to add +resv", withBook.Name(), plain.Name())
		}
		if p := plain.WithBook(nil); p != plain {
			t.Fatalf("WithBook(nil) = %v, want %v", p, plain)
		}
	}
}

func TestReservingBackfillBackfillsAroundReservation(t *testing.T) {
	var b ReservationBook
	if _, err := b.Add(100, 200, 3, 4); err != nil {
		t.Fatal(err)
	}
	pol := Backfill{}.WithBook(&b)
	queue := []*workload.Job{
		job(1, 4, 300), // needs all nodes: blocked until 200, queue-reserved there
		job(2, 1, 80),  // finishes before the advance reservation: backfills now
	}
	picked := pol.Pick(0, queue, nil, 4, 4, actualEst)
	if !sameIDs(picked, 2) {
		t.Fatalf("picked %v, want [2]", ids(picked))
	}
	// A 1-node job fits THROUGH the advance reservation (which leaves one
	// node) but is blocked by job 1's queue reservation at [200, 500).
	long := []*workload.Job{job(1, 4, 300), job(3, 1, 500)}
	picked = pol.Pick(0, long, nil, 4, 4, actualEst)
	if len(picked) != 0 {
		t.Fatalf("picked %v, want none (conservative protection)", ids(picked))
	}
}
