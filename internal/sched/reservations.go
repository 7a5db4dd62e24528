package sched

import (
	"fmt"
	"sort"
)

// This file implements the paper's second future-work direction (§5):
// "combining queue-based scheduling and reservations. Reservations are one
// way to co-allocate resources in metacomputing systems." A ReservationBook
// holds externally granted advance reservations; Backfill.WithBook
// schedules queued work around them.

// Reservation is a fixed advance claim on nodes during [Start, End).
type Reservation struct {
	ID    int
	Start int64
	End   int64
	Nodes int
}

// ReservationBook is an ordered set of advance reservations. The zero
// value is empty and ready to use. It is not safe for concurrent use.
type ReservationBook struct {
	res    []Reservation
	nextID int
}

// Add admits a reservation after checking it against the machine size and
// every existing reservation: at no instant may reserved nodes exceed
// total. It returns the assigned reservation ID.
func (b *ReservationBook) Add(start, end int64, nodes, total int) (int, error) {
	if end <= start {
		return 0, fmt.Errorf("sched: empty reservation [%d,%d)", start, end)
	}
	if nodes <= 0 || nodes > total {
		return 0, fmt.Errorf("sched: reservation for %d of %d nodes", nodes, total)
	}
	// Admission control via a profile over the overlapping reservations.
	p := NewProfile(start, total)
	for _, r := range b.res {
		if r.End <= start || r.Start >= end {
			continue
		}
		s, e := r.Start, r.End
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if err := p.Allocate(s, e, r.Nodes); err != nil {
			return 0, fmt.Errorf("sched: reservation book inconsistent: %v", err)
		}
	}
	if err := p.Allocate(start, end, nodes); err != nil {
		return 0, fmt.Errorf("sched: reservation rejected: %v", err)
	}
	b.nextID++
	r := Reservation{ID: b.nextID, Start: start, End: end, Nodes: nodes}
	b.res = append(b.res, r)
	sort.Slice(b.res, func(i, j int) bool { return b.res[i].Start < b.res[j].Start })
	return r.ID, nil
}

// Remove cancels a reservation by ID; it reports whether one was removed.
func (b *ReservationBook) Remove(id int) bool {
	for i, r := range b.res {
		if r.ID == id {
			b.res = append(b.res[:i], b.res[i+1:]...)
			return true
		}
	}
	return false
}

// Active returns the reservations overlapping or after t (earlier ones can
// no longer affect scheduling).
func (b *ReservationBook) Active(t int64) []Reservation {
	var out []Reservation
	for _, r := range b.res {
		if r.End > t {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the number of reservations held.
func (b *ReservationBook) Len() int { return len(b.res) }

// EarliestSlot returns the earliest time ≥ from at which `nodes` nodes are
// continuously free for dur seconds given only the book's reservations (no
// queued or running jobs) — the admission query a metascheduler issues
// when negotiating a co-allocation window.
func (b *ReservationBook) EarliestSlot(from, dur int64, nodes, total int) (int64, error) {
	if nodes <= 0 || nodes > total {
		return 0, fmt.Errorf("sched: slot for %d of %d nodes", nodes, total)
	}
	p := NewProfile(from, total)
	for _, r := range b.Active(from) {
		s := r.Start
		if s < from {
			s = from
		}
		if err := p.Allocate(s, r.End, r.Nodes); err != nil {
			return 0, fmt.Errorf("sched: reservation book inconsistent: %v", err)
		}
	}
	return p.EarliestFit(from, dur, nodes), nil
}
