package sched

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// This file implements the paper's second future-work direction (§5):
// "combining queue-based scheduling and reservations. Reservations are one
// way to co-allocate resources in metacomputing systems." A ReservationBook
// holds externally granted advance reservations; ReservingBackfill is the
// backfill algorithm extended to schedule queued work around them.

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

// ReservingBackfill is the backfill algorithm extended with advance
// reservations: reserved node-time is walled off in the availability
// profile, so queued jobs start and backfill only around it, and running
// jobs never conflict with it (admission control is the book's job).
type ReservingBackfill struct {
	Book *ReservationBook
	// EASY selects head-only reservations for queued jobs, as in Backfill.
	EASY bool
}

// Name implements sim.Policy.
func (p ReservingBackfill) Name() string {
	if p.EASY {
		return "Backfill/EASY+resv"
	}
	return "Backfill+resv"
}

// Pick mirrors Backfill.Pick with the book's reservations allocated on top
// of the running jobs.
func (p ReservingBackfill) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	var book []Reservation
	if p.Book != nil {
		book = p.Book.Active(now)
	}
	prof := runningProfile(now, running, free, est, 2*(len(book)+len(queue)))
	if prof == nil {
		return nil
	}
	for _, r := range book {
		s := r.Start
		if s < now {
			s = now
		}
		if err := prof.Allocate(s, r.End, r.Nodes); err != nil {
			// An inadmissible book (e.g. reservations exceeding the
			// currently running jobs' leftover capacity) fails safe.
			return nil
		}
	}

	var picked []*workload.Job
	reserved := false
	for _, j := range queue {
		d := est(j, 0)
		t := prof.EarliestFit(now, d, j.Nodes)
		switch {
		case t == now:
			if err := prof.Allocate(now, now+d, j.Nodes); err != nil {
				continue
			}
			picked = append(picked, j)
		case p.EASY && reserved:
			// Later blocked jobs receive no queue reservation under EASY.
		default:
			if err := prof.Allocate(t, t+d, j.Nodes); err == nil {
				reserved = true
			}
		}
	}
	return picked
}

// Static check.
var _ sim.Policy = ReservingBackfill{}
