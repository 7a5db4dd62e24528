package admission

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

func job(id, nodes int, rt int64, class string) *workload.Job {
	return &workload.Job{ID: id, Nodes: nodes, RunTime: rt, MaxRunTime: rt, Class: class}
}

func testConfig() Config {
	return Config{
		Classes:    DefaultClasses(),
		TotalNodes: 8,
		Policy:     sched.FCFS{},
		Predictor:  predict.Oracle{},
	}
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no classes", func(c *Config) { c.Classes = nil }, "no classes"},
		{"negative headroom", func(c *Config) { c.Headroom = -1 }, "negative headroom"},
		{"unknown default", func(c *Config) { c.DefaultClass = "gold" }, "default class"},
		{"unknown overflow", func(c *Config) { c.OverflowClass = "gold" }, "overflow class"},
		{"no machine", func(c *Config) { c.TotalNodes = 0 }, "machine size"},
		{"no policy", func(c *Config) { c.Policy = nil }, "policy"},
		{"no predictor", func(c *Config) { c.Predictor = nil }, "predictor"},
		{"negative budget", func(c *Config) {
			c.Classes["bad"] = ClassConfig{WaitBudgetSec: -1}
		}, "negative wait budget"},
		{"negative tokens", func(c *Config) {
			c.Classes["bad"] = ClassConfig{TokensPerWindow: -1}
		}, "negative token budget"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	c := mustNew(t, testConfig())
	if c.Headroom() != 1.0 {
		t.Errorf("default headroom = %g, want 1", c.Headroom())
	}
	if c.defaultCls == nil || c.defaultCls.name != "standard" {
		t.Errorf("default class = %+v, want standard", c.defaultCls)
	}
}

func TestDecideBudgets(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	c := mustNew(t, cfg)

	// Interactive is always-admit: even an absurd estimate admits.
	d := c.Decide(0, job(1, 1, 60, "interactive"), 1<<40, true)
	if !d.Admit || d.Reason != ReasonAlways {
		t.Fatalf("interactive: %+v, want always-admit", d)
	}
	// Standard within its 3600s budget.
	d = c.Decide(0, job(2, 1, 60, "standard"), 3600, true)
	if !d.Admit || d.Reason != ReasonWithinBudget {
		t.Fatalf("standard within: %+v", d)
	}
	// Standard over budget and sheddable: shed.
	d = c.Decide(0, job(3, 1, 60, "standard"), 3601, true)
	if d.Admit || d.Reason != ReasonShedBudget {
		t.Fatalf("standard over: %+v, want shed_budget", d)
	}
	// Unknown class falls back to the default class (standard).
	d = c.Decide(0, job(4, 1, 60, "mystery"), 10, true)
	if !d.Admit || d.Class != "standard" {
		t.Fatalf("unknown class: %+v, want standard fallback", d)
	}
	// No prediction fails open.
	d = c.Decide(0, job(5, 1, 60, "standard"), 0, false)
	if !d.Admit || d.Reason != ReasonNoPrediction {
		t.Fatalf("no prediction: %+v, want fail-open", d)
	}

	snap := reg.Snapshot()
	checks := map[string]int64{
		"admission.decisions":                  5,
		"admission.admitted":                   4,
		"admission.shed":                       1,
		"admission.shed_budget":                1,
		"admission.no_prediction":              1,
		"admission.class.standard.admitted":    3,
		"admission.class.standard.shed":        1,
		"admission.class.interactive.admitted": 1,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestDecideNonSheddableOverBudget(t *testing.T) {
	cfg := testConfig()
	cfg.Classes = map[string]ClassConfig{
		"standard": {WaitBudgetSec: 100}, // not sheddable
	}
	c := mustNew(t, cfg)
	d := c.Decide(0, job(1, 1, 60, "standard"), 500, true)
	if !d.Admit || d.Reason != ReasonOverBudget {
		t.Fatalf("non-sheddable over budget: %+v, want over_budget admit", d)
	}
}

func TestDecideHeadroom(t *testing.T) {
	cfg := testConfig()
	cfg.Classes = map[string]ClassConfig{"standard": {WaitBudgetSec: 100, Sheddable: true}}
	cfg.Headroom = 2.0
	c := mustNew(t, cfg)
	if d := c.Decide(0, job(1, 1, 60, "standard"), 199, true); !d.Admit {
		t.Fatalf("headroom 2.0, wait 199 of budget 100: %+v, want admit", d)
	}
	if d := c.Decide(0, job(2, 1, 60, "standard"), 201, true); d.Admit {
		t.Fatalf("headroom 2.0, wait 201 of budget 100: %+v, want shed", d)
	}

	// Tight headroom sheds below the nominal budget.
	cfg.Headroom = 0.5
	c = mustNew(t, cfg)
	if d := c.Decide(0, job(3, 1, 60, "standard"), 60, true); d.Admit {
		t.Fatalf("headroom 0.5, wait 60 of budget 100: %+v, want shed", d)
	}
}

func TestDecideZeroBudgetMeansNoSLO(t *testing.T) {
	cfg := testConfig()
	cfg.Classes = map[string]ClassConfig{"standard": {WaitBudgetSec: 0, Sheddable: true}}
	c := mustNew(t, cfg)
	if d := c.Decide(0, job(1, 1, 60, "standard"), 1<<40, true); !d.Admit {
		t.Fatalf("zero budget: %+v, want admit (no wait SLO)", d)
	}
}

func TestDecideOverflow(t *testing.T) {
	cfg := testConfig()
	cfg.Classes = map[string]ClassConfig{
		"standard": {WaitBudgetSec: 100, Sheddable: true},
		"batch":    {WaitBudgetSec: 1000, Sheddable: true, TokensPerWindow: 1},
	}
	cfg.OverflowClass = "batch"
	c := mustNew(t, cfg)

	// Over standard's budget but within batch's: admitted via overflow.
	d := c.Decide(0, job(1, 1, 60, "standard"), 500, true)
	if !d.Admit || d.Reason != ReasonOverflow || !d.Overflow {
		t.Fatalf("overflow: %+v, want overflow admit", d)
	}
	if d.Class != "standard" {
		t.Errorf("overflow decision class = %q, want the job's own class", d.Class)
	}
	// Batch's single token is spent: the next overflow attempt sheds.
	d = c.Decide(0, job(2, 1, 60, "standard"), 500, true)
	if d.Admit || d.Reason != ReasonShedBudget {
		t.Fatalf("overflow with exhausted tokens: %+v, want shed_budget", d)
	}
	// Over even batch's budget: shed without consuming overflow tokens.
	d = c.Decide(0, job(3, 1, 60, "standard"), 5000, true)
	if d.Admit {
		t.Fatalf("beyond overflow budget: %+v, want shed", d)
	}
}

func TestDecideTokens(t *testing.T) {
	cfg := testConfig()
	cfg.Classes = map[string]ClassConfig{
		"standard": {WaitBudgetSec: 1000, TokensPerWindow: 2},
	}
	cfg.TokenWindowSec = 100
	c := mustNew(t, cfg)

	for i := 0; i < 2; i++ {
		if d := c.Decide(10, job(i, 1, 60, "standard"), 1, true); !d.Admit {
			t.Fatalf("token %d: %+v, want admit", i, d)
		}
	}
	d := c.Decide(10, job(3, 1, 60, "standard"), 1, true)
	if d.Admit || d.Reason != ReasonShedTokens {
		t.Fatalf("exhausted tokens: %+v, want shed_tokens", d)
	}
	// Shed decisions do not consume tokens for later arrivals in the window.
	if d = c.Decide(50, job(4, 1, 60, "standard"), 1, true); d.Admit {
		t.Fatalf("still within window: %+v, want shed_tokens", d)
	}
	// A new window replenishes.
	if d = c.Decide(110, job(5, 1, 60, "standard"), 1, true); !d.Admit {
		t.Fatalf("new window: %+v, want admit", d)
	}
}

func TestEvaluateForwardSimulation(t *testing.T) {
	cfg := testConfig()
	cfg.TotalNodes = 4
	c := mustNew(t, cfg)

	// Empty machine: zero wait, admit, forward source.
	target := job(10, 2, 600, "standard")
	d := c.Evaluate(0, target, nil, nil)
	if !d.Admit || d.Source != "forward" || d.PredictedWaitSec != 0 {
		t.Fatalf("empty machine: %+v", d)
	}

	// Machine held for 2 hours by a running job: a standard job's wait
	// estimate (7200s) exceeds its 3600s budget — shed.
	hog := job(1, 4, 7200, "standard")
	hog.StartTime = 0
	d = c.Evaluate(0, target, nil, []*workload.Job{hog})
	if d.Admit || d.PredictedWaitSec != 7200 || d.Reason != ReasonShedBudget {
		t.Fatalf("hogged machine: %+v, want shed at 7200s", d)
	}

	// Same state, interactive class: admitted regardless.
	d = c.Evaluate(0, job(11, 2, 600, "interactive"), nil, []*workload.Job{hog})
	if !d.Admit || d.Reason != ReasonAlways {
		t.Fatalf("interactive on hogged machine: %+v", d)
	}
}

func TestEvaluateQueueAhead(t *testing.T) {
	// Queued jobs ahead of the target delay it under FCFS: 4-node machine,
	// a 1000s hog running, one 4-node 500s job queued ahead. The target
	// (sheddable, 1200s budget) starts at 1500s — over budget.
	cfg := testConfig()
	cfg.TotalNodes = 4
	cfg.Classes = map[string]ClassConfig{"standard": {WaitBudgetSec: 1200, Sheddable: true}}
	c := mustNew(t, cfg)

	hog := job(1, 4, 1000, "standard")
	hog.StartTime = 0
	ahead := job(2, 4, 500, "standard")
	target := job(3, 4, 100, "standard")
	d := c.Evaluate(0, target, []*workload.Job{ahead}, []*workload.Job{hog})
	if d.Admit || d.PredictedWaitSec != 1500 {
		t.Fatalf("queued-ahead: %+v, want shed at 1500s", d)
	}
}

func TestEvaluateStateSource(t *testing.T) {
	cfg := testConfig()
	cfg.TotalNodes = 4
	sp := waitpred.NewStatePredictor(waitpred.DefaultStateTemplates(false))
	cfg.StatePred = sp
	c := mustNew(t, cfg)

	target := job(10, 2, 600, "standard")
	// No history yet: falls back to the forward simulation.
	if d := c.Evaluate(0, target, nil, nil); d.Source != "forward" {
		t.Fatalf("no history: source %q, want forward", d.Source)
	}
	// Seed matching history (two observations so the CI is defined) for the
	// empty-machine state, then the state path must win.
	st := waitpred.CaptureState(0, nil, nil, 4, c.decisionEst)
	jw := int64(target.Nodes) * c.decisionEst(target, 0)
	sp.ObserveWait(st, target, jw, 100)
	sp.ObserveWait(st, target, jw, 100)
	d := c.Evaluate(0, target, nil, nil)
	if d.Source != "state" || d.PredictedWaitSec != 100 {
		t.Fatalf("with history: %+v, want state source at 100s", d)
	}
}

func TestAttachSimSheds(t *testing.T) {
	// 4-node machine, three identical 4-node 7200s jobs at t=0. The first
	// admits (empty machine), the rest would wait ≥ 7200s ≥ the 3600s
	// standard budget and must be shed. The shed jobs never start.
	cfg := testConfig()
	cfg.TotalNodes = 4
	c := mustNew(t, cfg)

	jobs := []*workload.Job{
		job(1, 4, 7200, "standard"),
		job(2, 4, 7200, "standard"),
		job(3, 4, 7200, "standard"),
	}
	w := &workload.Workload{Name: "shed", MachineNodes: 4, Jobs: jobs}
	var opts sim.Options
	c.Attach(&opts)
	var shedIDs []int
	opts.OnShed = func(now int64, j *workload.Job) { shedIDs = append(shedIDs, j.ID) }

	res, err := sim.Run(w, sched.FCFS{}, predict.Oracle{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 {
		t.Fatalf("Shed = %d, want 2 (got shed IDs %v)", res.Shed, shedIDs)
	}
	if len(shedIDs) != 2 || shedIDs[0] != 2 || shedIDs[1] != 3 {
		t.Fatalf("shed IDs = %v, want [2 3]", shedIDs)
	}
	for _, j := range res.Jobs {
		if j.Shed {
			if j.StartTime != 0 || j.EndTime != 0 {
				t.Errorf("shed job %d has start %d end %d, want never started", j.ID, j.StartTime, j.EndTime)
			}
			continue
		}
		if j.EndTime == 0 {
			t.Errorf("admitted job %d never completed", j.ID)
		}
	}
	if res.Jobs[0].Shed || !res.Jobs[1].Shed || !res.Jobs[2].Shed {
		t.Fatalf("shed flags = %v %v %v, want [false true true]",
			res.Jobs[0].Shed, res.Jobs[1].Shed, res.Jobs[2].Shed)
	}
}

func TestAttachFeedsStatePredictor(t *testing.T) {
	cfg := testConfig()
	cfg.TotalNodes = 4
	sp := waitpred.NewStatePredictor(waitpred.DefaultStateTemplates(false))
	cfg.StatePred = sp
	c := mustNew(t, cfg)

	jobs := []*workload.Job{
		job(1, 2, 300, "standard"),
		job(2, 2, 300, "standard"),
		job(3, 2, 300, "standard"),
	}
	w := &workload.Workload{Name: "learn", MachineNodes: 4, Jobs: jobs}
	var opts sim.Options
	c.Attach(&opts)
	if _, err := sim.Run(w, sched.FCFS{}, predict.Oracle{}, opts); err != nil {
		t.Fatal(err)
	}
	if sp.Categories() == 0 {
		t.Fatal("state predictor learned nothing from admitted starts")
	}
}

func TestAttachPreservesOnStart(t *testing.T) {
	cfg := testConfig()
	cfg.TotalNodes = 4
	c := mustNew(t, cfg)
	var opts sim.Options
	var started []int
	opts.OnStart = func(now int64, j *workload.Job) { started = append(started, j.ID) }
	c.Attach(&opts)
	w := &workload.Workload{Name: "chain", MachineNodes: 4,
		Jobs: []*workload.Job{job(1, 2, 300, "standard")}}
	if _, err := sim.Run(w, sched.FCFS{}, predict.Oracle{}, opts); err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0] != 1 {
		t.Fatalf("chained OnStart saw %v, want [1]", started)
	}
}

func TestParseClasses(t *testing.T) {
	got, err := ParseClasses("interactive=10m:always,standard=3600:shed,batch=4h:shed:tokens=200")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]ClassConfig{
		"interactive": {WaitBudgetSec: 600, AlwaysAdmit: true},
		"standard":    {WaitBudgetSec: 3600, Sheddable: true},
		"batch":       {WaitBudgetSec: 14400, Sheddable: true, TokensPerWindow: 200},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d classes, want %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("class %q = %+v, want %+v", name, got[name], w)
		}
	}

	bad := []string{
		"",
		"=600",
		"a",
		"a=abc",
		"a=-5",
		"a=600:gold",
		"a=600:tokens=x",
		"a=600:shed:always",
		"a=600,a=700",
	}
	for _, spec := range bad {
		if _, err := ParseClasses(spec); err == nil {
			t.Errorf("ParseClasses(%q) accepted, want error", spec)
		}
	}
}

func TestFormatClassesRoundTrip(t *testing.T) {
	classes := DefaultClasses()
	spec := FormatClasses(classes)
	back, err := ParseClasses(spec)
	if err != nil {
		t.Fatalf("round-trip of %q: %v", spec, err)
	}
	for name, cc := range classes {
		if back[name] != cc {
			t.Errorf("round-trip class %q = %+v, want %+v", name, back[name], cc)
		}
	}
}

func TestClassifierOverride(t *testing.T) {
	cfg := testConfig()
	cfg.Classifier = func(j *workload.Job) string {
		if j.Nodes >= 4 {
			return "batch"
		}
		return "interactive"
	}
	c := mustNew(t, cfg)
	if d := c.Decide(0, job(1, 8, 60, "standard"), 0, true); d.Class != "batch" {
		t.Fatalf("classifier override: class %q, want batch", d.Class)
	}
	if d := c.Decide(0, job(2, 1, 60, "standard"), 0, true); d.Class != "interactive" {
		t.Fatalf("classifier override: class %q, want interactive", d.Class)
	}
}

// BenchmarkAdmissionDecide measures the pure decision path — the part on
// the scheduler's submission hot path (estimation excluded, as in a
// deployment where the estimate is computed asynchronously or cached).
func BenchmarkAdmissionDecide(b *testing.B) {
	cfg := testConfig()
	cfg.Classes["standard"] = ClassConfig{WaitBudgetSec: 3600, Sheddable: true, TokensPerWindow: 1 << 40}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	jb := job(1, 2, 600, "standard")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.Decide(int64(i), jb, int64(i)%7200, true)
		if d.Class == "" {
			b.Fatal("empty class")
		}
	}
}
