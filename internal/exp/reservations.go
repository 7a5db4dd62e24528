package exp

import (
	"fmt"

	"repro/internal/coalloc"
)

// FutureWorkReservations measures the paper's §5 future work, combining
// queue-based scheduling with reservations: a metascheduler co-allocates
// 200 nodes of SDSC95 and 150 of SDSC96 for one hour, no earlier than six
// hours into the traces, and each machine's batch workload is backfilled
// around its reservation. The traces are §4's 2x-compressed ones, loaded
// enough that batch jobs queue, so walling off the window has a cost.
func FutureWorkReservations(cfg Config) (*Table, error) {
	ws, err := compressedSDSC(cfg)
	if err != nil {
		return nil, err
	}
	r, err := coalloc.Reserve(ws, []int{200, 150}, 6*3600, 3600)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "Future work: reservations",
		Caption: fmt.Sprintf("Co-allocated reservation [%d, %d) on the 2x-compressed SDSC workloads under backfill: batch usage inside the window and mean batch wait (minutes)",
			r.Start, r.End),
		Headers: []string{"Workload", "Nodes", "Reserved", "Batch Peak in Window", "Utilization (percent)", "Wait Without", "Wait With"},
	}
	for _, m := range r.Machines {
		t.Rows = append(t.Rows, []string{
			m.Resource.Name,
			fmt.Sprintf("%d", m.Resource.Total),
			fmt.Sprintf("%d", m.Reserved),
			fmt.Sprintf("%d", m.PeakInWindow),
			fmt.Sprintf("%.2f", 100*m.Utilization),
			fmt.Sprintf("%.2f", m.PlainWaitMin),
			fmt.Sprintf("%.2f", m.BookedWaitMin),
		})
	}
	return t, nil
}
