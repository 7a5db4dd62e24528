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
// The cost of the reservations to the batch queues is measured on loaded
// machines by `go run ./cmd/tables futurework-reservations`.
//
// Run with:
//
//	go run ./examples/coallocation
package main

import (
	"fmt"
	"log"

	"repro/internal/coalloc"
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

	// The metascheduler wants 1 hour on 200 + 150 nodes, simultaneously,
	// no earlier than 6 hours into the traces; each machine's batch
	// workload is then backfilled around its reservation book.
	r, err := coalloc.Reserve([]*workload.Workload{wa, wb}, []int{200, 150}, 6*3600, 3600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("negotiated co-allocation: [%d, %d) — %d nodes on %s, %d nodes on %s\n",
		r.Start, r.End, r.Machines[0].Reserved, wa.Name, r.Machines[1].Reserved, wb.Name)

	// The reservation windows must stay clear of batch jobs.
	for _, m := range r.Machines {
		fmt.Printf("%s: util %.1f%%, mean wait %.2f min; batch usage inside the window: %d of %d nodes (%d walled off)\n",
			m.Resource.Name, 100*m.Utilization, m.BookedWaitMin, m.PeakInWindow, m.Resource.Total, m.Reserved)
		if m.PeakInWindow > m.Resource.Total-m.Reserved {
			log.Fatalf("%s: reservation violated (%d batch nodes, only %d allowed)",
				m.Resource.Name, m.PeakInWindow, m.Resource.Total-m.Reserved)
		}
	}

	coalloc.Release(r.Grants)
	fmt.Printf("released %d grants; books now hold %d + %d reservations\n",
		len(r.Grants), r.Machines[0].Resource.Book.Len(), r.Machines[1].Resource.Book.Len())
}
