package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// testCfg keeps experiment tests fast: ~1% of full trace sizes.
var testCfg = Config{Scale: 100, Seed: 5}

func testWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, err := workload.Study(name, testCfg.Scale, testCfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewPredictorKinds(t *testing.T) {
	w := testWorkload(t, "ANL")
	for _, kind := range []PredictorKind{KindActual, KindMaxRT, KindSmith,
		KindGibbons, KindDowneyAvg, KindDowneyMed} {
		p, err := NewPredictor(kind, w)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p == nil {
			t.Fatalf("%s: nil predictor", kind)
		}
	}
	if _, err := NewPredictor("bogus", w); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestWaitTimeExperimentFCFSActualIsExact(t *testing.T) {
	// With FCFS, the ground-truth scheduler ignores predictions and later
	// arrivals cannot overtake, so the oracle's wait predictions are exact:
	// Table 4 has no FCFS rows for precisely this reason.
	w := testWorkload(t, "SDSC95")
	r, err := WaitTimeExperiment(w, sched.FCFS{}, KindActual, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanErrMin != 0 {
		t.Fatalf("FCFS+actual mean error = %v, want 0", r.MeanErrMin)
	}
	if r.N != len(w.Jobs) {
		t.Fatalf("predicted %d of %d", r.N, len(w.Jobs))
	}
}

func TestWaitTimeExperimentOrdering(t *testing.T) {
	// The paper's headline shape: with the backfill algorithm, the error
	// using actual run times is far below the error using maximum run
	// times; the template predictor falls in between.
	w := testWorkload(t, "ANL")
	actual, err := WaitTimeExperiment(w, sched.Backfill{}, KindActual, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	maxrt, err := WaitTimeExperiment(w, sched.Backfill{}, KindMaxRT, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	smith, err := WaitTimeExperiment(w, sched.Backfill{}, KindSmith, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if actual.MeanErrMin > maxrt.MeanErrMin {
		t.Errorf("actual (%v) should beat maxrt (%v)", actual.MeanErrMin, maxrt.MeanErrMin)
	}
	if smith.MeanErrMin > maxrt.MeanErrMin {
		t.Errorf("smith (%v) should beat maxrt (%v)", smith.MeanErrMin, maxrt.MeanErrMin)
	}
}

func TestSchedulingExperimentBasics(t *testing.T) {
	w := testWorkload(t, "CTC")
	r, err := SchedulingExperiment(w, sched.LWF{}, KindActual, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Utilization <= 0 || r.Utilization > 100 {
		t.Fatalf("utilization = %v", r.Utilization)
	}
	if r.MeanWaitMin < 0 {
		t.Fatalf("mean wait = %v", r.MeanWaitMin)
	}
	if r.Workload != "CTC" || r.Policy != "LWF" || r.Predictor != "actual" {
		t.Fatalf("labels: %+v", r)
	}
}

func TestSchedulingUtilizationPredictorInsensitive(t *testing.T) {
	// Paper §4: "the accuracy of the run-time predictions has a minimal
	// effect on the utilization of the systems we are simulating."
	w := testWorkload(t, "SDSC96")
	var utils []float64
	for _, kind := range []PredictorKind{KindActual, KindMaxRT, KindSmith} {
		r, err := SchedulingExperiment(w, sched.Backfill{}, kind, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		utils = append(utils, r.Utilization)
	}
	for i := 1; i < len(utils); i++ {
		diff := utils[i] - utils[0]
		if diff < 0 {
			diff = -diff
		}
		if diff > 5 { // percentage points
			t.Fatalf("utilization varies with predictor: %v", utils)
		}
	}
}

func TestRuntimePredictionError(t *testing.T) {
	w := testWorkload(t, "ANL")
	smith, err := RuntimePredictionError(w, sched.LWF{}, KindSmith, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	maxrt, err := RuntimePredictionError(w, sched.LWF{}, KindMaxRT, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RuntimePredictionError(w, sched.LWF{}, KindActual, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.MeanErrMin != 0 {
		t.Fatalf("oracle run-time error = %v", oracle.MeanErrMin)
	}
	if smith.MeanErrMin >= maxrt.MeanErrMin {
		t.Fatalf("smith run-time error (%v) should beat maxrt (%v)",
			smith.MeanErrMin, maxrt.MeanErrMin)
	}
	if smith.N == 0 || smith.PctMeanRT <= 0 {
		t.Fatalf("degenerate result: %+v", smith)
	}
}

func TestSetTemplates(t *testing.T) {
	w := testWorkload(t, "ANL")
	custom := []core.Template{{Chars: workload.MaskOf(workload.CharUser), Pred: core.PredMean}}
	SetTemplates(w.Name, custom)
	defer SetTemplates(w.Name, nil)
	p, err := NewPredictor(KindSmith, w)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := p.(*core.Predictor)
	if !ok {
		t.Fatalf("smith predictor has type %T", p)
	}
	if got := cp.Templates(); len(got) != 1 || got[0] != custom[0] {
		t.Fatalf("override not used: %+v", got)
	}
	// Removing the override restores the defaults.
	SetTemplates(w.Name, nil)
	p2, _ := NewPredictor(KindSmith, w)
	if len(p2.(*core.Predictor).Templates()) == 1 {
		t.Fatal("override not removed")
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 1 has %d rows", len(tab.Rows))
	}
	out := tab.String()
	for _, name := range workload.StudyNames {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s:\n%s", name, out)
		}
	}
}

func TestWaitAndSchedTableShapes(t *testing.T) {
	t4, err := Table4(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 8 { // 4 workloads × {LWF, Backfill}
		t.Fatalf("Table 4 has %d rows, want 8", len(t4.Rows))
	}
	t10, err := Table10(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t10.Rows) != 8 {
		t.Fatalf("Table 10 has %d rows, want 8", len(t10.Rows))
	}
	if !strings.Contains(t10.String(), "Utilization") {
		t.Error("Table 10 missing utilization header")
	}
}

func TestAllTablesRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range AllTables() {
		if e.Fn == nil {
			t.Fatalf("%s has nil driver", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate table id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11", "table12", "table13",
		"table14", "table15", "section4", "ablation-backfill", "ablation-cancellations",
		"ablation-search", "ablation-predictor", "futurework-statewait",
		"futurework-reservations", "runtime-errors", "walkforward", "replication",
		"metascheduling", "regret", "reselect"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestStateWaitExperiment(t *testing.T) {
	w := testWorkload(t, "ANL")
	r, err := StateWaitExperiment(w, sched.LWF{}, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != len(w.Jobs) {
		t.Fatalf("predicted %d of %d", r.N, len(w.Jobs))
	}
	if r.SimErrMin < 0 || r.StateErrMin < 0 {
		t.Fatalf("negative errors: %+v", r)
	}
	if r.Workload != "ANL" || r.Policy != "LWF" {
		t.Fatalf("labels: %+v", r)
	}
}

func TestRuntimeErrorsTable(t *testing.T) {
	tab, err := RuntimeErrors(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Headers) != 6 { // workload + 5 predictors
		t.Fatalf("headers = %v", tab.Headers)
	}
}

func TestFutureWorkStateWaitTable(t *testing.T) {
	tab, err := FutureWorkStateWait(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestWalkForward(t *testing.T) {
	w := testWorkload(t, "ANL")
	frs, err := WalkForward(w, KindSmith, 3, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 3 {
		t.Fatalf("folds = %d", len(frs))
	}
	total := 0
	for i, fr := range frs {
		if fr.Fold != i+1 || fr.TestJobs <= 0 || fr.MeanErrMin < 0 {
			t.Fatalf("fold %d malformed: %+v", i, fr)
		}
		if fr.Covered > fr.TestJobs {
			t.Fatalf("coverage exceeds test size: %+v", fr)
		}
		total += fr.TestJobs
	}
	// All non-training jobs are tested exactly once.
	if want := len(w.Jobs) - len(w.Jobs)/4; total != want {
		t.Fatalf("tested %d jobs, want %d", total, want)
	}
	// Later folds have more history and should answer at least as many
	// test jobs in absolute terms is not guaranteed; but errors stay finite.
	if _, err := WalkForward(w, KindSmith, 0, testCfg); err == nil {
		t.Fatal("zero folds should error")
	}
	tiny := &workload.Workload{Name: "tiny", MachineNodes: 4,
		Jobs: w.Jobs[:3], Chars: w.Chars, HasMaxRT: w.HasMaxRT}
	if _, err := WalkForward(tiny, KindSmith, 3, testCfg); err == nil {
		t.Fatal("too-small trace should error")
	}
}

func TestReplicateScheduling(t *testing.T) {
	cells, err := ReplicateScheduling([]PredictorKind{KindActual, KindMaxRT}, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 workloads × 2 policies × 2 kinds.
	if len(cells) != 16 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if len(c.MeanWaitMin) != ReplicateSeeds {
			t.Fatalf("cell %v: %d seeds", c, len(c.MeanWaitMin))
		}
		if c.Mean < 0 || c.StdDev < 0 {
			t.Fatalf("cell stats: %+v", c)
		}
	}
	// Paired construction: the first cells belong to the first workload.
	if cells[0].Workload != "ANL" || cells[0].Policy != "LWF" {
		t.Fatalf("ordering: %+v", cells[0])
	}
}

func TestMetaschedulingTable(t *testing.T) {
	tab, err := MetaschedulingTable(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, r := range tab.Rows {
		names[r[0]] = true
	}
	for _, want := range []string{"random", "least-work", "predicted-turnaround (smith)"} {
		if !names[want] {
			t.Fatalf("missing router %q", want)
		}
	}
}

// TestAllTablesRunTiny executes every registered table driver end to end at
// a tiny scale: every driver must produce a non-empty, well-formed table.
func TestAllTablesRunTiny(t *testing.T) {
	tiny := Config{Scale: 200, Seed: 11}
	for _, e := range AllTables() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := e.Fn(tiny)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 || len(tab.Headers) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for i, r := range tab.Rows {
				if len(r) != len(tab.Headers) {
					t.Fatalf("%s: row %d has %d cells, want %d",
						e.ID, i, len(r), len(tab.Headers))
				}
			}
			if tab.String() == "" {
				t.Fatalf("%s: empty rendering", e.ID)
			}
		})
	}
}
