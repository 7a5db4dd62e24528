package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/sched"
	"repro/internal/workload"
)

// newAdmitServer builds a server with an attached admission controller on
// a 64-node machine: interactive always admits, standard sheds beyond an
// hour. The controller shares the server's predictor and registry.
func newAdmitServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	pred := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true))
	s := New(pred, 64)
	ctrl, err := admission.New(admission.Config{
		Classes:    admission.DefaultClasses(),
		TotalNodes: 64,
		Policy:     sched.FCFS{},
		Predictor:  pred,
		Metrics:    s.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdmission(ctrl)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func classedJob(id int, nodes int, maxRT int64, class string) JobJSON {
	return JobJSON{ID: id, User: "u", Nodes: nodes, MaxRunTime: maxRT, Class: class}
}

func TestAdmitEndpointAdmitsAndSheds(t *testing.T) {
	ts, _ := newAdmitServer(t)

	// Empty machine: a standard job waits 0s and is admitted.
	var d AdmitResponse
	resp := post(t, ts.URL+"/v1/admit", AdmitRequest{
		Now: 0, Job: classedJob(1, 8, 600, "standard"),
	}, &d)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !d.Admit || d.Reason != admission.ReasonWithinBudget || d.Source != "forward" {
		t.Fatalf("empty machine: %+v", d)
	}
	if d.BudgetSec != 3600 || d.EffectiveBudgetSec != 3600 {
		t.Fatalf("budget fields: %+v", d)
	}

	// The whole machine is held for two hours: a standard job's estimated
	// wait (7200s ≥ its 3600s budget) sheds it; an interactive job passes.
	hog := JobJSON{ID: 100, User: "u", Nodes: 64, MaxRunTime: 7200, StartTime: 0}
	resp = post(t, ts.URL+"/v1/admit", AdmitRequest{
		Now: 0, Job: classedJob(2, 8, 600, "standard"),
		Running: []JobJSON{hog},
	}, &d)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if d.Admit || d.Reason != admission.ReasonShedBudget || d.PredictedWaitSec != 7200 {
		t.Fatalf("hogged machine: %+v, want shed at 7200s", d)
	}
	resp = post(t, ts.URL+"/v1/admit", AdmitRequest{
		Now: 0, Job: classedJob(3, 8, 600, "interactive"),
		Running: []JobJSON{hog},
	}, &d)
	if resp.StatusCode != http.StatusOK || !d.Admit || d.Reason != admission.ReasonAlways {
		t.Fatalf("interactive: status %d %+v", resp.StatusCode, d)
	}
}

func TestAdmitQueueToleratesTarget(t *testing.T) {
	ts, _ := newAdmitServer(t)
	// The client mistakenly includes the job in the queue: the duplicate is
	// dropped, so the forward simulation sees it exactly once.
	target := classedJob(7, 64, 600, "standard")
	var d AdmitResponse
	resp := post(t, ts.URL+"/v1/admit", AdmitRequest{
		Now: 0, Job: target, Queue: []JobJSON{target},
	}, &d)
	if resp.StatusCode != http.StatusOK || !d.Admit || d.PredictedWaitSec != 0 {
		t.Fatalf("status %d %+v, want admit at 0s", resp.StatusCode, d)
	}
}

func TestAdmitValidation(t *testing.T) {
	ts, _ := newAdmitServer(t)
	var e map[string]string
	resp := post(t, ts.URL+"/v1/admit", AdmitRequest{Now: 0, Job: JobJSON{ID: 1}}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero nodes: status %d, want 400", resp.StatusCode)
	}

	// Without a controller the endpoint reports unavailability.
	pred := core.New(core.DefaultTemplates(workload.MaskOf(workload.CharUser), true))
	bare := New(pred, 64)
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()
	resp = post(t, bareTS.URL+"/v1/admit", AdmitRequest{Now: 0, Job: classedJob(1, 2, 60, "standard")}, &e)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no controller: status %d, want 503", resp.StatusCode)
	}
}

func TestAdmitMetricsOnSnapshot(t *testing.T) {
	ts, s := newAdmitServer(t)
	hog := JobJSON{ID: 100, User: "u", Nodes: 64, MaxRunTime: 7200, StartTime: 0}
	var d AdmitResponse
	post(t, ts.URL+"/v1/admit", AdmitRequest{Now: 0, Job: classedJob(1, 8, 600, "standard")}, &d)
	post(t, ts.URL+"/v1/admit", AdmitRequest{
		Now: 0, Job: classedJob(2, 8, 600, "standard"), Running: []JobJSON{hog}}, &d)

	snap := s.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"admission.decisions":               2,
		"admission.admitted":                1,
		"admission.shed":                    1,
		"admission.shed_budget":             1,
		"admission.class.standard.admitted": 1,
		"admission.class.standard.shed":     1,
		"http.admit.requests":               2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["admission.headroom"]; got != 1.0 {
		t.Errorf("admission.headroom = %g, want 1", got)
	}
}

func TestAdmitTraceDecomposition(t *testing.T) {
	ts, s := newAdmitServer(t)
	tr := trace.New(trace.WithSampleRate(1))
	s.SetTracer(tr)

	var d AdmitResponse
	post(t, ts.URL+"/v1/admit", AdmitRequest{Now: 0, Job: classedJob(1, 8, 600, "standard")}, &d)

	recent := tr.Recent()
	if len(recent) == 0 {
		t.Fatal("no trace kept")
	}
	names := map[string]bool{}
	for _, sp := range recent[0].Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"http.admit", "admission.decide", "waitpred.simulate"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}
