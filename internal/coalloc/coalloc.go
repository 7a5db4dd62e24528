// Package coalloc implements the co-allocation negotiation the paper
// motivates in §1 and §5: acquiring simultaneous node allocations on
// several parallel computers for a single multi-component application,
// built on advance reservations (sched.ReservationBook) layered over the
// queue-based schedulers.
//
// The negotiator performs the classic rendezvous iteration: ask every
// resource for its earliest feasible slot at or after a candidate time,
// advance the candidate to the latest answer, and repeat until all
// resources agree; then book the reservations, rolling back on any
// failure.
package coalloc

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Resource is one parallel computer accepting advance reservations.
type Resource struct {
	Name  string
	Total int // machine size in nodes
	Book  *sched.ReservationBook
}

// Component is one piece of a co-allocated application.
type Component struct {
	Resource *Resource
	Nodes    int
}

// Grant records one booked reservation of a successful negotiation.
type Grant struct {
	Resource *Resource
	ID       int
}

// maxRounds bounds the rendezvous iteration; with monotone EarliestSlot
// answers the loop converges in at most a few rounds per reservation, so
// hitting the bound indicates an inconsistent book.
const maxRounds = 1000

// Negotiate finds the earliest common start at or after `from` where every
// component can hold its nodes for `dur` seconds simultaneously, books the
// corresponding reservations, and returns the start time and grants.
// On any booking failure all grants are cancelled and an error returned.
func Negotiate(comps []Component, from, dur int64) (int64, []Grant, error) {
	if len(comps) == 0 {
		return 0, nil, fmt.Errorf("coalloc: no components")
	}
	if dur <= 0 {
		return 0, nil, fmt.Errorf("coalloc: nonpositive duration %d", dur)
	}
	for _, c := range comps {
		if c.Resource == nil || c.Resource.Book == nil {
			return 0, nil, fmt.Errorf("coalloc: component without resource")
		}
		if c.Nodes <= 0 || c.Nodes > c.Resource.Total {
			return 0, nil, fmt.Errorf("coalloc: component needs %d of %d nodes on %s",
				c.Nodes, c.Resource.Total, c.Resource.Name)
		}
	}

	// Rendezvous iteration.
	candidate := from
	for round := 0; round < maxRounds; round++ {
		latest := candidate
		for _, c := range comps {
			t, err := c.Resource.Book.EarliestSlot(candidate, dur, c.Nodes, c.Resource.Total)
			if err != nil {
				return 0, nil, err
			}
			if t > latest {
				latest = t
			}
		}
		if latest == candidate {
			// Agreement: book.
			grants := make([]Grant, 0, len(comps))
			for _, c := range comps {
				id, err := c.Resource.Book.Add(candidate, candidate+dur, c.Nodes, c.Resource.Total)
				if err != nil {
					// Roll back everything booked so far.
					for _, g := range grants {
						g.Resource.Book.Remove(g.ID)
					}
					return 0, nil, fmt.Errorf("coalloc: booking on %s failed: %w",
						c.Resource.Name, err)
				}
				grants = append(grants, Grant{Resource: c.Resource, ID: id})
			}
			return candidate, grants, nil
		}
		candidate = latest
	}
	return 0, nil, fmt.Errorf("coalloc: negotiation did not converge in %d rounds", maxRounds)
}

// Release cancels every grant of a negotiation (e.g. when the application
// finishes early or is aborted).
func Release(grants []Grant) {
	for _, g := range grants {
		g.Resource.Book.Remove(g.ID)
	}
}

// Machine is one machine's outcome of Reserve.
type Machine struct {
	Resource *Resource
	Reserved int // nodes the co-allocation holds
	// Utilization is the batch workload's, scheduled around the book.
	Utilization float64
	// PeakInWindow is the most batch nodes busy at once inside the
	// reserved window; at most Total−Reserved when the book is honoured.
	PeakInWindow int
	// PlainWaitMin and BookedWaitMin are the batch workload's mean wait
	// (minutes) without and with the reservation: their difference is the
	// reservation's cost to the queue.
	PlainWaitMin, BookedWaitMin float64
}

// Result is the outcome of Reserve.
type Result struct {
	Start, End int64
	Grants     []Grant
	Machines   []Machine
}

// Reserve co-allocates nodes[i] nodes of machine i (sized and loaded by
// ws[i]) for dur seconds at the earliest common start at or after from,
// then runs each machine's batch workload under conservative backfill
// with maximum run times, once without and once with its reservation book.
func Reserve(ws []*workload.Workload, nodes []int, from, dur int64) (*Result, error) {
	if len(ws) != len(nodes) {
		return nil, fmt.Errorf("coalloc: %d workloads for %d components", len(ws), len(nodes))
	}
	comps := make([]Component, len(ws))
	for i, w := range ws {
		comps[i] = Component{
			Resource: &Resource{Name: w.Name, Total: w.MachineNodes, Book: &sched.ReservationBook{}},
			Nodes:    nodes[i],
		}
	}
	start, grants, err := Negotiate(comps, from, dur)
	if err != nil {
		return nil, err
	}
	r := &Result{Start: start, End: start + dur, Grants: grants}
	for i, w := range ws {
		c := comps[i]
		plain, err := sim.Run(w, sched.Backfill{}, predict.MaxRuntime{}, sim.Options{})
		if err != nil {
			return nil, err
		}
		booked, err := sim.Run(w, sched.Backfill{}.WithBook(c.Resource.Book), predict.MaxRuntime{}, sim.Options{})
		if err != nil {
			return nil, err
		}
		r.Machines = append(r.Machines, Machine{
			Resource:      c.Resource,
			Reserved:      c.Nodes,
			Utilization:   booked.Utilization,
			PeakInWindow:  peakIn(sim.NodeUsage(booked.Jobs), r.Start, r.End),
			PlainWaitMin:  plain.MeanWaitMinutes(),
			BookedWaitMin: booked.MeanWaitMinutes(),
		})
	}
	return r, nil
}

// peakIn is the highest usage step that overlaps [from, to).
func peakIn(usage []sim.UsagePoint, from, to int64) int {
	peak := 0
	for i, p := range usage {
		if p.Time >= to {
			break
		}
		if i+1 < len(usage) && usage[i+1].Time <= from {
			continue
		}
		if p.Nodes > peak {
			peak = p.Nodes
		}
	}
	return peak
}
