package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/service"
)

// daemonEnv set to 1 turns the test binary into the daemon: TestMain runs
// main on the binary's arguments instead of the tests, so
// TestBuildWithDataRecovers can SIGKILL a real qwaitd process.
const daemonEnv = "QWAITD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// postJSON posts body as JSON and returns the response body, failing the
// test on any status but 200.
func postJSON(t *testing.T, url string, body interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
	return out
}

// getJSON decodes the body of GET url into out.
func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// appJob is a job of user's one application.
func appJob(id int, user string, nodes int, rt, maxRT int64) service.JobJSON {
	return service.JobJSON{ID: id, User: user, Executable: user + "/app",
		Nodes: nodes, RunTime: rt, MaxRunTime: maxRT}
}

// spanNames collects every span name of the kept traces whose root is
// root.
func spanNames(tr service.TracesResponse, root string) map[string]bool {
	names := make(map[string]bool)
	for _, x := range tr.Traces {
		if x.Root != root {
			continue
		}
		for _, sp := range x.Spans {
			names[sp.Name] = true
		}
	}
	return names
}

// TestFlagWiring boots the daemon from each flag set, drives the traffic
// those flags exist for, and checks what only the daemon level can: that
// the flags reach the behaviour. What the behaviour is in detail is
// checked by the service tests (admit_test.go, reselect_test.go and
// tracing_test.go).
func TestFlagWiring(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		data  bool // append -data with a fresh directory
		check func(t *testing.T, url string)
	}{
		{"trace", []string{"-nodes", "128", "-trace-sample", "1", "-trace-ring", "32"}, true, checkTracing},
		{"admit", []string{"-nodes", "64", "-admit-classes", "interactive=10m:always,standard=1h:shed,batch=4h:shed"}, false, checkAdmission},
		{"reselect", []string{"-nodes", "128", "-reselect", "-reselect-window", "8", "-reselect-dwell", "8", "-tail-cost", "2",
			"-trace-sample", "1", "-trace-ring", "64"}, false, checkReselect},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.data {
				args = append(args, "-data", t.TempDir(), "-snapshot-interval", "0")
			}
			a, err := build(args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if a.store != nil {
				t.Cleanup(func() {
					if err := a.store.Close(); err != nil {
						t.Error(err)
					}
				})
			}
			ts := httptest.NewServer(a.srv.Handler())
			defer ts.Close()
			tc.check(t, ts.URL)
		})
	}
}

// checkTracing: at sample rate 1 every request is kept, the batch and
// forward-simulation paths decompose into their spans, observes on the
// -data store reach the WAL append, and the tracer's own counters reach
// /v1/metrics.
func checkTracing(t *testing.T, url string) {
	id := 0
	for _, u := range []string{"alice", "bob"} {
		for rt := int64(300); rt <= 1500; rt += 300 {
			id++
			postJSON(t, url+"/v1/observe", service.ObserveRequest{Job: appJob(id, u, 4, rt, 2*rt)})
		}
	}
	postJSON(t, url+"/v1/predict", service.PredictRequest{Job: appJob(99, "alice", 4, 0, 7200)})
	postJSON(t, url+"/v1/predict/batch", service.PredictBatchRequest{Jobs: []service.PredictRequest{
		{Job: appJob(99, "alice", 4, 0, 7200)}, {Job: appJob(102, "bob", 4, 0, 3600)},
	}})
	target := appJob(100, "bob", 4, 0, 3600)
	target.SubmitTime = 1000
	postJSON(t, url+"/v1/predictwait", service.PredictWaitRequest{
		Now: 1000, Policy: "Backfill", Target: target, Queue: []service.JobJSON{target},
	})
	const requests = 13

	var tr service.TracesResponse
	getJSON(t, url+"/v1/traces", &tr)
	if !tr.Enabled || len(tr.Traces) != requests {
		t.Fatalf("traces: enabled %v, %d kept, want all %d requests", tr.Enabled, len(tr.Traces), requests)
	}
	for root, spans := range map[string][]string{
		"http.observe":       {"histstore.insert", "histstore.wal_append"},
		"http.predict":       {"core.predict", "template_match", "histstore.view"},
		"http.predict_batch": {"core.predict_batch"},
		"http.predictwait":   {"waitpred.simulate"},
	} {
		names := spanNames(tr, root)
		for _, want := range spans {
			if !names[want] {
				t.Errorf("%s traces lack span %s (have %v)", root, want, names)
			}
		}
	}

	var snap obs.Snapshot
	getJSON(t, url+"/v1/metrics", &snap)
	if got := snap.Counters["trace.traces.kept"]; got < requests {
		t.Errorf("trace.traces.kept = %d, want >= %d", got, requests)
	}
}

// checkAdmission: the class table given on the command line sets each
// class's budget and contract, so behind a machine-filling two-hour hog
// the standard job (1h) is shed, the batch job (4h) fits, and the
// interactive job is admitted regardless.
func checkAdmission(t *testing.T, url string) {
	hog := []service.JobJSON{{ID: 100, User: "bob", Nodes: 64, MaxRunTime: 7200}}
	for i, c := range []struct {
		class   string
		running []service.JobJSON
		admit   bool
		reason  admission.Reason
		budget  int64
	}{
		{"standard", nil, true, admission.ReasonWithinBudget, 3600},
		{"standard", hog, false, admission.ReasonShedBudget, 3600},
		{"batch", hog, true, admission.ReasonWithinBudget, 4 * 3600},
		{"interactive", hog, true, admission.ReasonAlways, 600},
	} {
		job := service.JobJSON{ID: i + 1, User: "alice", Nodes: 8, MaxRunTime: 600, Class: c.class}
		var d service.AdmitResponse
		body := postJSON(t, url+"/v1/admit", service.AdmitRequest{Job: job, Running: c.running})
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		if d.Admit != c.admit || d.Reason != c.reason || d.BudgetSec != c.budget {
			t.Errorf("%s behind %d running: %+v, want admit %v (%s) against %ds",
				c.class, len(c.running), d.Decision, c.admit, c.reason, c.budget)
		}
	}

	var snap obs.Snapshot
	getJSON(t, url+"/v1/metrics", &snap)
	for name, want := range map[string]int64{
		"admission.decisions":                  4,
		"admission.class.standard.shed":        1,
		"admission.class.batch.admitted":       1,
		"admission.class.interactive.admitted": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// checkReselect: with switching armed by -reselect and the window, dwell
// and cost ratio from the command line, a run-time step the template
// predictor cannot follow switches the serving predictor; the completion
// count and shadow gauges reach /v1/metrics, and the switch is a span on
// the observe trace that caused it.
func checkReselect(t *testing.T, url string) {
	observe := func(id int, rt int64) {
		postJSON(t, url+"/v1/observe", service.ObserveRequest{Job: appJob(id, "alice", 4, rt, 4000)})
	}
	for i := 0; i < 40; i++ {
		observe(i, 600+int64(i%5))
	}
	var sr service.StableResponse
	getJSON(t, url+"/v1/stable", &sr)
	if !sr.Reselect || sr.Serving != "smith" || sr.Switches != 0 {
		t.Fatalf("stationary phase: %+v, want armed, serving smith, no switch", sr)
	}
	for i := 40; i < 100; i++ {
		observe(i, 3900+int64(i%5))
	}
	getJSON(t, url+"/v1/stable", &sr)
	if sr.Switches < 1 || sr.Serving == "smith" || sr.CostRatio != 2 || sr.Window != 8 {
		t.Fatalf("after the step: switches %d, serving %s, cost ratio %v, window %d; want a switch away from smith at ratio 2, window 8",
			sr.Switches, sr.Serving, sr.CostRatio, sr.Window)
	}

	var snap obs.Snapshot
	getJSON(t, url+"/v1/metrics", &snap)
	if got := snap.Gauges["accuracy.reselect.completions"]; got != 100 {
		t.Errorf("accuracy.reselect.completions = %v, want 100", got)
	}
	if _, ok := snap.Gauges["accuracy.shadow.maxrt.window_tail_score"]; !ok {
		t.Error("shadow gauges missing from /v1/metrics")
	}

	var tr service.TracesResponse
	getJSON(t, url+"/v1/traces", &tr)
	if !spanNames(tr, "http.observe")["accuracy.reselect"] {
		t.Error("no accuracy.reselect span on a kept observe trace")
	}
}

// daemon is a qwaitd process: the test binary re-executed as the daemon.
type daemon struct {
	url    string
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr stderrLog
	exited chan struct{} // closed once the process has been reaped
}

// stderrLog is the daemon's stderr. It keeps the output for failure
// messages and sends the bound address from the daemon's listening line
// on addr, once. Only the command's copying goroutine writes to it, and
// String is called only after the process is reaped. The buffer is a
// field, not embedded, so io.Copy cannot bypass Write through ReadFrom.
type stderrLog struct {
	buf   bytes.Buffer
	addr  chan string // capacity 1
	found bool
}

// listeningRE matches the daemon's listening line up to the space after
// the address, so a line split across writes never yields a partial port.
var listeningRE = regexp.MustCompile(`msg=listening addr=(\S+)\s`)

func (l *stderrLog) String() string { return l.buf.String() }

func (l *stderrLog) Write(p []byte) (int, error) {
	n, err := l.buf.Write(p)
	if !l.found {
		if m := listeningRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.found = true
			l.addr <- string(m[1])
		}
	}
	return n, err
}

// startDaemon boots a daemon on an ephemeral loopback port, learns the
// port from the daemon's listening line, and returns once the daemon
// answers /v1/stats.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	d := &daemon{exited: make(chan struct{}), stderr: stderrLog{addr: addrc}}
	d.cmd = exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = d.cmd.Wait() // a SIGKILLed daemon always exits with an error
		close(d.exited)
	}()
	t.Cleanup(d.kill)

	deadline := time.After(10 * time.Second)
	select {
	case addr := <-addrc:
		d.url = "http://" + addr
	case <-d.exited:
		t.Fatalf("daemon exited before listening:\n%s", d.stderr.String())
	case <-deadline:
		d.kill()
		t.Fatalf("daemon logged no listening line after 10s:\n%s", d.stderr.String())
	}
	for {
		resp, err := http.Get(d.url + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case <-d.exited:
			t.Fatalf("daemon exited before serving:\n%s", d.stderr.String())
		case <-deadline:
			d.kill()
			t.Fatalf("daemon not serving on %s after 10s:\n%s", d.url, d.stderr.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// kill SIGKILLs the daemon (no drain, no snapshot) and waits until it is
// reaped, after which its output buffers are safe to read.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.exited
}

// TestBuildWithDataRecovers is the crash-recovery check: a daemon on a
// -data store is SIGKILLed after streaming completions, so only the WAL
// carries the history, and a daemon restarted on the same directory must
// report the recovery and serve byte-identical predictions over the same,
// non-zero number of categories.
func TestBuildWithDataRecovers(t *testing.T) {
	args := []string{"-nodes", "128", "-data", t.TempDir(), "-snapshot-interval", "0"}
	users := []string{"alice", "bob", "carol"}
	predictAll := func(d *daemon) [][]byte {
		var bodies [][]byte
		for _, u := range users {
			for _, n := range []int{2, 8, 32} {
				bodies = append(bodies, postJSON(t, d.url+"/v1/predict",
					service.PredictRequest{Job: appJob(9999, u, n, 0, 7200)}))
			}
		}
		return bodies
	}
	categories := func(d *daemon) int {
		var st service.StatsResponse
		getJSON(t, d.url+"/v1/stats", &st)
		return st.Categories
	}

	d := startDaemon(t, args...)
	id := 0
	for _, u := range users {
		for rt := int64(120); rt <= 1660; rt += 220 {
			id++
			postJSON(t, d.url+"/v1/observe", service.ObserveRequest{Job: appJob(id, u, 2+id%30, rt, 2*rt)})
		}
	}
	before, cats := predictAll(d), categories(d)
	if cats == 0 {
		t.Fatal("observations produced no categories")
	}
	d.kill()

	d = startDaemon(t, args...)
	after, catsAfter := predictAll(d), categories(d)
	d.kill()
	if catsAfter != cats {
		t.Fatalf("recovered %d categories, want %d", catsAfter, cats)
	}
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			t.Errorf("prediction %d changed across the crash:\nbefore %s\nafter  %s", i, before[i], after[i])
		}
	}
	if want := fmt.Sprintf("recovered %d categories", cats); !strings.Contains(d.stdout.String(), want) {
		t.Errorf("restart output lacks %q:\n%s", want, d.stdout.String())
	}
}
