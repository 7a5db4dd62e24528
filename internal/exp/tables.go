package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table is a rendered experiment table: a caption, column headers, and
// string rows, mirroring the layout of the paper's tables.
type Table struct {
	ID      string // e.g. "Table 6"
	Caption string
	Headers []string
	Rows    [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s. %s\n", t.ID, t.Caption)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

// studyWorkloads generates the four study workloads for a config.
func studyWorkloads(cfg Config) ([]*workload.Workload, error) {
	return workload.AllStudies(cfg.Scale, cfg.Seed)
}

// Table1 reproduces Table 1: the characteristics of the (synthetic stand-in)
// trace data.
func Table1(cfg Config) (*Table, error) {
	ws, err := studyWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Table 1",
		Caption: "Characteristics of the trace data used in our studies (synthetic stand-ins)",
		Headers: []string{"Workload", "Nodes", "Requests", "MeanRunTime(min)", "OfferedLoad"},
	}
	for _, w := range ws {
		s := workload.Summarize(w)
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.MachineNodes),
			fmt.Sprintf("%d", s.NumRequests),
			fmt.Sprintf("%.2f", s.MeanRunTimeMin),
			fmt.Sprintf("%.2f", s.OfferedLoad),
		})
	}
	return t, nil
}

// forEachCell fans the (workload × policy) grid out to one goroutine per
// cell — every experiment builds its own predictor and clones its workload,
// so cells are independent — and assembles the rows in presentation order.
func forEachCell(ws []*workload.Workload, policies []sim.Policy,
	run func(w *workload.Workload, pol sim.Policy) ([]string, error)) ([][]string, error) {
	type slot struct {
		row []string
		err error
	}
	slots := make([]slot, len(ws)*len(policies))
	var wg sync.WaitGroup
	for wi, w := range ws {
		for pi, pol := range policies {
			wg.Add(1)
			go func(idx int, w *workload.Workload, pol sim.Policy) {
				defer wg.Done()
				row, err := run(w, pol)
				slots[idx] = slot{row: row, err: err}
			}(wi*len(policies)+pi, w, pol)
		}
	}
	wg.Wait()
	rows := make([][]string, 0, len(slots))
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		rows = append(rows, s.row)
	}
	return rows, nil
}

// waitTable runs the wait-time prediction experiment for every workload and
// the given policies under one predictor kind.
func waitTable(id, caption string, kind PredictorKind, policies []sim.Policy, cfg Config) (*Table, error) {
	ws, err := studyWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Caption: caption,
		Headers: []string{"Workload", "Scheduling Algorithm", "Mean Error (minutes)", "Percentage of Mean Wait Time"},
	}
	rows, err := forEachCell(ws, policies, func(w *workload.Workload, pol sim.Policy) ([]string, error) {
		r, err := WaitTimeExperiment(w, pol, kind, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s %s/%s: %w", id, w.Name, pol.Name(), err)
		}
		return []string{
			r.Workload, r.Policy,
			fmt.Sprintf("%.2f", r.MeanErrMin),
			fmt.Sprintf("%.0f", r.PctMeanWait),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// schedTable runs the scheduling experiment for every workload under LWF
// and backfill with one predictor kind.
func schedTable(id, caption string, kind PredictorKind, cfg Config) (*Table, error) {
	ws, err := studyWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Caption: caption,
		Headers: []string{"Workload", "Scheduling Algorithm", "Utilization (percent)", "Mean Wait Time (minutes)"},
	}
	rows, err := forEachCell(ws, lwfBF(), func(w *workload.Workload, pol sim.Policy) ([]string, error) {
		r, err := SchedulingExperiment(w, pol, kind, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s %s/%s: %w", id, w.Name, pol.Name(), err)
		}
		return []string{
			r.Workload, r.Policy,
			fmt.Sprintf("%.2f", r.Utilization),
			fmt.Sprintf("%.2f", r.MeanWaitMin),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// lwfBF are the two policies of Table 4 (FCFS has zero error with actual
// run times, so the paper omits it).
func lwfBF() []sim.Policy { return []sim.Policy{sched.LWF{}, sched.Backfill{}} }

// allPolicies are the three policies of Tables 5–9.
func allPolicies() []sim.Policy {
	return []sim.Policy{sched.FCFS{}, sched.LWF{}, sched.Backfill{}}
}

// Table4 — wait-time prediction performance using actual run times.
func Table4(cfg Config) (*Table, error) {
	return waitTable("Table 4", "Wait-time prediction performance using actual run times",
		KindActual, lwfBF(), cfg)
}

// Table5 — wait-time prediction performance using maximum run times.
func Table5(cfg Config) (*Table, error) {
	return waitTable("Table 5", "Wait-time prediction performance using maximum run times",
		KindMaxRT, allPolicies(), cfg)
}

// Table6 — wait-time prediction performance using our run-time predictor.
func Table6(cfg Config) (*Table, error) {
	return waitTable("Table 6", "Wait-time prediction performance using our run-time predictor",
		KindSmith, allPolicies(), cfg)
}

// Table7 — wait-time prediction performance using Gibbons's predictor.
func Table7(cfg Config) (*Table, error) {
	return waitTable("Table 7", "Wait-time prediction performance using Gibbons's run-time predictor",
		KindGibbons, allPolicies(), cfg)
}

// Table8 — wait-time prediction performance using Downey's conditional
// average predictor.
func Table8(cfg Config) (*Table, error) {
	return waitTable("Table 8", "Wait-time prediction performance using Downey's conditional average run-time predictor",
		KindDowneyAvg, allPolicies(), cfg)
}

// Table9 — wait-time prediction performance using Downey's conditional
// median predictor.
func Table9(cfg Config) (*Table, error) {
	return waitTable("Table 9", "Wait-time prediction performance using Downey's conditional median run-time predictor",
		KindDowneyMed, allPolicies(), cfg)
}

// Table10 — scheduling performance using actual run times.
func Table10(cfg Config) (*Table, error) {
	return schedTable("Table 10", "Scheduling performance using actual run times", KindActual, cfg)
}

// Table11 — scheduling performance using maximum run times.
func Table11(cfg Config) (*Table, error) {
	return schedTable("Table 11", "Scheduling performance using maximum run times", KindMaxRT, cfg)
}

// Table12 — scheduling performance using our run-time prediction technique.
func Table12(cfg Config) (*Table, error) {
	return schedTable("Table 12", "Scheduling performance using our run-time prediction technique", KindSmith, cfg)
}

// Table13 — scheduling performance using Gibbons's predictor.
func Table13(cfg Config) (*Table, error) {
	return schedTable("Table 13", "Scheduling performance using Gibbons's run-time prediction technique", KindGibbons, cfg)
}

// Table14 — scheduling performance using Downey's conditional average.
func Table14(cfg Config) (*Table, error) {
	return schedTable("Table 14", "Scheduling performance using Downey's conditional average run-time predictor", KindDowneyAvg, cfg)
}

// Table15 — scheduling performance using Downey's conditional median.
func Table15(cfg Config) (*Table, error) {
	return schedTable("Table 15", "Scheduling performance using Downey's conditional median run-time predictor", KindDowneyMed, cfg)
}

// compressedSDSC is §4's loaded configuration: the SDSC95 and SDSC96 study
// workloads with their interarrival times compressed 2x.
func compressedSDSC(cfg Config) ([]*workload.Workload, error) {
	var ws []*workload.Workload
	for i, name := range []string{"SDSC95", "SDSC96"} {
		base, err := workload.Study(name, cfg.Scale, cfg.Seed+int64(2+i)*1000)
		if err != nil {
			return nil, err
		}
		ws = append(ws, workload.Compress(base, 2))
	}
	return ws, nil
}

// Section4Compression reproduces the §4 experiment: compress the SDSC
// interarrival times by 2× and compare all predictors' mean wait times
// under LWF and backfill.
func Section4Compression(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Section 4",
		Caption: "Mean wait times (minutes) on the 2x-compressed SDSC workloads",
		Headers: []string{"Workload", "Scheduling Algorithm", "actual", "maxrt", "smith", "gibbons", "downey-avg", "downey-med"},
	}
	kinds := []PredictorKind{KindActual, KindMaxRT, KindSmith, KindGibbons, KindDowneyAvg, KindDowneyMed}
	ws, err := compressedSDSC(cfg)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		for _, pol := range lwfBF() {
			row := []string{w.Name, pol.Name()}
			for _, kind := range kinds {
				r, err := SchedulingExperiment(w, pol, kind, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", r.MeanWaitMin))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// AblationBackfillVariants compares the paper's conservative backfill with
// the EASY variant under actual and maximum run times.
func AblationBackfillVariants(cfg Config) (*Table, error) {
	ws, err := studyWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Ablation A1",
		Caption: "Conservative vs EASY backfill: mean wait time (minutes)",
		Headers: []string{"Workload", "Predictor", "Conservative", "EASY"},
	}
	for _, w := range ws {
		for _, kind := range []PredictorKind{KindActual, KindMaxRT} {
			cons, err := SchedulingExperiment(w, sched.Backfill{}, kind, cfg)
			if err != nil {
				return nil, err
			}
			easy, err := SchedulingExperiment(w, sched.Backfill{EASY: true}, kind, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				w.Name, string(kind),
				fmt.Sprintf("%.2f", cons.MeanWaitMin),
				fmt.Sprintf("%.2f", easy.MeanWaitMin),
			})
		}
	}
	return t, nil
}

// AblationCancellations injects queue withdrawals (30% of jobs cancellable,
// 30-minute mean patience) into the two compressed SDSC workloads and
// re-runs the backfill scheduling comparison: the failure-injection check
// that the predictor ranking survives a workload where queued jobs
// disappear. Withdrawn jobs are excluded from the mean wait.
func AblationCancellations(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Ablation A2",
		Caption: "Backfill under 30% queue cancellations (2x-compressed SDSC): mean wait (minutes) / jobs withdrawn",
		Headers: []string{"Workload", "Predictor", "Mean Wait", "Withdrawn"},
	}
	ws, err := compressedSDSC(cfg)
	if err != nil {
		return nil, err
	}
	for _, cw := range ws {
		w := cw.InjectCancellations(0.3, 1800, cfg.Seed)
		for _, kind := range []PredictorKind{KindActual, KindMaxRT, KindSmith} {
			pred, err := NewPredictor(kind, w)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(w, sched.Backfill{}, pred, sim.Options{DefaultRuntime: cfg.DefaultRT})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				w.Name, string(kind),
				fmt.Sprintf("%.2f", res.MeanWaitMinutes()),
				fmt.Sprintf("%d", res.Cancelled),
			})
		}
	}
	return t, nil
}

// RuntimeErrors reports every predictor's raw run-time prediction accuracy
// on the LWF prediction workload of each trace — the numbers the paper
// quotes in the §3 and §4 prose ("run-time prediction errors that are from
// 33 to 73 percent of mean application run times", and the predictor
// ordering claims).
func RuntimeErrors(cfg Config) (*Table, error) {
	ws, err := studyWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	kinds := []PredictorKind{KindSmith, KindGibbons, KindDowneyAvg, KindDowneyMed, KindMaxRT}
	t := &Table{
		ID:      "Run-time errors",
		Caption: "Mean absolute run-time prediction error as % of mean run time (LWF prediction workload)",
		Headers: append([]string{"Workload"}, func() []string {
			hs := make([]string, len(kinds))
			for i, k := range kinds {
				hs[i] = string(k)
			}
			return hs
		}()...),
	}
	for _, w := range ws {
		row := []string{w.Name}
		for _, kind := range kinds {
			r, err := RuntimePredictionError(w, sched.LWF{}, kind, cfg)
			if err != nil {
				return nil, fmt.Errorf("runtime-errors %s/%s: %w", w.Name, kind, err)
			}
			row = append(row, fmt.Sprintf("%.0f", r.PctMeanRT))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// TableFunc is the signature every table driver shares.
type TableFunc func(Config) (*Table, error)

// AllTables maps table identifiers to their drivers, in presentation order.
func AllTables() []struct {
	ID string
	Fn TableFunc
} {
	return []struct {
		ID string
		Fn TableFunc
	}{
		{"table1", Table1},
		{"table4", Table4},
		{"table5", Table5},
		{"table6", Table6},
		{"table7", Table7},
		{"table8", Table8},
		{"table9", Table9},
		{"table10", Table10},
		{"table11", Table11},
		{"table12", Table12},
		{"table13", Table13},
		{"table14", Table14},
		{"table15", Table15},
		{"section4", Section4Compression},
		{"ablation-backfill", AblationBackfillVariants},
		{"ablation-cancellations", AblationCancellations},
		{"ablation-search", AblationSearch},
		{"ablation-predictor", AblationPredictor},
		{"futurework-statewait", FutureWorkStateWait},
		{"futurework-reservations", FutureWorkReservations},
		{"runtime-errors", RuntimeErrors},
		{"walkforward", WalkForwardTable},
		{"replication", ReplicationTable},
		{"metascheduling", MetaschedulingTable},
		{"regret", TableRegret},
		{"reselect", TableReselect},
	}
}

// MarshalJSON renders the table as a JSON object with id, caption, headers,
// and rows, for machine-readable pipelines (cmd/tables -json).
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID      string     `json:"id"`
		Caption string     `json:"caption"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.ID, t.Caption, t.Headers, t.Rows})
}
