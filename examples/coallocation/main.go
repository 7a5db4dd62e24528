// Co-allocation with advance reservations: the paper's §5 closes with
// "we will expand our work ... to the problem of combining queue-based
// scheduling and reservations. Reservations are one way to co-allocate
// resources in metacomputing systems." This example exercises that
// combination end to end:
//
//  1. two machines each run their own synthetic batch workload under
//     backfill;
//  2. a metascheduler negotiates the earliest simultaneous 1-hour window
//     for a two-component application (coalloc.Negotiate);
//  3. the booked reservations are walled off from the batch queues by
//     backfill given each machine's reservation book, and the simulation
//     verifies that no batch job intrudes on either window.
//
// Run with:
//
//	go run ./examples/coallocation
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/coalloc"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Two machines with their own workloads.
	wa, err := workload.Study("SDSC95", 40, 5)
	if err != nil {
		log.Fatal(err)
	}
	wb, err := workload.Study("SDSC96", 40, 6)
	if err != nil {
		log.Fatal(err)
	}
	ra := &coalloc.Resource{Name: "paragon-95", Total: wa.MachineNodes, Book: &sched.ReservationBook{}}
	rb := &coalloc.Resource{Name: "paragon-96", Total: wb.MachineNodes, Book: &sched.ReservationBook{}}

	// The metascheduler wants 1 hour on 200 + 150 nodes, simultaneously,
	// no earlier than 6 hours into the traces.
	const notBefore = 6 * 3600
	const duration = 3600
	start, grants, err := coalloc.Negotiate([]coalloc.Component{
		{Resource: ra, Nodes: 200},
		{Resource: rb, Nodes: 150},
	}, notBefore, duration)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("negotiated co-allocation: [%d, %d) — %d nodes on %s, %d nodes on %s\n",
		start, start+duration, 200, ra.Name, 150, rb.Name)

	// Run both machines' batch workloads under backfill given each
	// machine's reservation book and check the reservation windows stay
	// clear.
	check := func(w *workload.Workload, r *coalloc.Resource, nodes int) {
		res, err := sim.Run(w, sched.Backfill{}.WithBook(r.Book), predict.MaxRuntime{}, sim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		// True simultaneous peak of batch usage inside the window, by
		// sweeping start/end events clipped to it.
		type ev struct {
			t     int64
			delta int
		}
		var evs []ev
		for _, j := range res.Jobs {
			if j.StartTime < start+duration && j.EndTime > start {
				s, e := j.StartTime, j.EndTime
				if s < start {
					s = start
				}
				if e > start+duration {
					e = start + duration
				}
				evs = append(evs, ev{s, j.Nodes}, ev{e, -j.Nodes})
			}
		}
		sort.Slice(evs, func(i, k int) bool {
			if evs[i].t != evs[k].t {
				return evs[i].t < evs[k].t
			}
			return evs[i].delta < evs[k].delta // releases first
		})
		peak, cur := 0, 0
		for _, e := range evs {
			cur += e.delta
			if cur > peak {
				peak = cur
			}
		}
		fmt.Printf("%s: util %.1f%%, mean wait %.2f min; batch usage inside the window: %d of %d nodes (%d walled off)\n",
			r.Name, 100*res.Utilization, res.MeanWaitMinutes(),
			peak, r.Total, nodes)
		if peak > r.Total-nodes {
			log.Fatalf("%s: reservation violated (%d batch nodes, only %d allowed)",
				r.Name, peak, r.Total-nodes)
		}
	}
	check(wa, ra, 200)
	check(wb, rb, 150)

	// Cost of the reservations: rerun machine A without the book.
	plain, err := sim.Run(wa, sched.Backfill{}, predict.MaxRuntime{}, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	with, err := sim.Run(wa, sched.Backfill{}.WithBook(ra.Book), predict.MaxRuntime{}, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreservation cost on %s: mean batch wait %.2f → %.2f min\n",
		ra.Name, plain.MeanWaitMinutes(), with.MeanWaitMinutes())

	coalloc.Release(grants)
	fmt.Printf("released %d grants; books now hold %d + %d reservations\n",
		len(grants), ra.Book.Len(), rb.Book.Len())
}
