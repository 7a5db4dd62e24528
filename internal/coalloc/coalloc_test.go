package coalloc

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func res(name string, total int) *Resource {
	return &Resource{Name: name, Total: total, Book: &sched.ReservationBook{}}
}

func TestNegotiateImmediate(t *testing.T) {
	a, b := res("a", 64), res("b", 32)
	start, grants, err := Negotiate([]Component{
		{Resource: a, Nodes: 32},
		{Resource: b, Nodes: 16},
	}, 0, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("start = %d, want 0 (both idle)", start)
	}
	if len(grants) != 2 || a.Book.Len() != 1 || b.Book.Len() != 1 {
		t.Fatalf("grants not booked: %v", grants)
	}
}

func TestNegotiateRendezvous(t *testing.T) {
	a, b := res("a", 64), res("b", 32)
	// a is fully reserved until 1000; b until 2000.
	if _, err := a.Book.Add(0, 1000, 64, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Book.Add(0, 2000, 32, 32); err != nil {
		t.Fatal(err)
	}
	start, grants, err := Negotiate([]Component{
		{Resource: a, Nodes: 64},
		{Resource: b, Nodes: 32},
	}, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if start != 2000 {
		t.Fatalf("start = %d, want 2000 (the later machine)", start)
	}
	Release(grants)
	if a.Book.Len() != 1 || b.Book.Len() != 1 {
		t.Fatal("release did not cancel the grants")
	}
}

func TestNegotiatePingPong(t *testing.T) {
	// Alternating busy windows force several rendezvous rounds:
	// a busy [0,100) and [200,300); b busy [100,200) and [300,400).
	a, b := res("a", 8), res("b", 8)
	for _, w := range [][2]int64{{0, 100}, {200, 300}} {
		if _, err := a.Book.Add(w[0], w[1], 8, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range [][2]int64{{100, 200}, {300, 400}} {
		if _, err := b.Book.Add(w[0], w[1], 8, 8); err != nil {
			t.Fatal(err)
		}
	}
	start, _, err := Negotiate([]Component{
		{Resource: a, Nodes: 8},
		{Resource: b, Nodes: 8},
	}, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if start != 400 {
		t.Fatalf("start = %d, want 400 (first window free on both)", start)
	}
}

func TestNegotiatePartialNodes(t *testing.T) {
	// Half-machine components can overlap existing half-machine
	// reservations.
	a, b := res("a", 8), res("b", 8)
	if _, err := a.Book.Add(0, 1000, 4, 8); err != nil {
		t.Fatal(err)
	}
	start, _, err := Negotiate([]Component{
		{Resource: a, Nodes: 4},
		{Resource: b, Nodes: 4},
	}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("start = %d, want 0", start)
	}
}

func TestNegotiateValidation(t *testing.T) {
	a := res("a", 8)
	if _, _, err := Negotiate(nil, 0, 100); err == nil {
		t.Error("no components should error")
	}
	if _, _, err := Negotiate([]Component{{Resource: a, Nodes: 4}}, 0, 0); err == nil {
		t.Error("zero duration should error")
	}
	if _, _, err := Negotiate([]Component{{Resource: a, Nodes: 16}}, 0, 100); err == nil {
		t.Error("oversize component should error")
	}
	if _, _, err := Negotiate([]Component{{Nodes: 4}}, 0, 100); err == nil {
		t.Error("nil resource should error")
	}
}

func TestNegotiateBookingsVisibleToBackfill(t *testing.T) {
	// End to end with the scheduler: after a negotiation, backfill given
	// each machine's book keeps the window clear.
	a := res("a", 4)
	start, _, err := Negotiate([]Component{{Resource: a, Nodes: 4}}, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if start != 100 {
		t.Fatalf("start = %d", start)
	}
	got, err := a.Book.EarliestSlot(0, 150, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 200 {
		t.Fatalf("slot through the booked window = %d, want 200", got)
	}
}

// TestReserveOnLoadedMachines co-allocates on §4's 2x-compressed SDSC
// traces, loaded enough that batch jobs queue: backfill must keep every
// batch job off the reserved nodes of both windows, and walling the nodes
// off must cost the queues some wait.
func TestReserveOnLoadedMachines(t *testing.T) {
	var ws []*workload.Workload
	for i, name := range []string{"SDSC95", "SDSC96"} {
		base, err := workload.Study(name, 10, 42+int64(2+i)*1000)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, workload.Compress(base, 2))
	}
	r, err := Reserve(ws, []int{200, 150}, 6*3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if r.End-r.Start != 3600 || len(r.Grants) != 2 || len(r.Machines) != 2 {
		t.Fatalf("result %+v", r)
	}
	var cost float64
	for _, m := range r.Machines {
		if allowed := m.Resource.Total - m.Reserved; m.PeakInWindow > allowed {
			t.Errorf("%s: %d batch nodes busy inside [%d, %d), only %d unreserved",
				m.Resource.Name, m.PeakInWindow, r.Start, r.End, allowed)
		}
		cost += m.BookedWaitMin - m.PlainWaitMin
	}
	if !(cost > 0) {
		t.Errorf("reservations cost the batch queues %.2f min of mean wait, want > 0", cost)
	}
}
