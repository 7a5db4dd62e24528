package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/obs"
	"repro/internal/workload"
)

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	pred := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true))
	s := New(pred, 64)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func post(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

func job(id int, user string, nodes int, rt, maxRT int64) JobJSON {
	return JobJSON{ID: id, User: user, Executable: user + "/app", Nodes: nodes,
		RunTime: rt, MaxRunTime: maxRT}
}

func TestObserveThenPredict(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		var ok map[string]bool
		resp := post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "alice", 8, 600, 1200)}, &ok)
		if resp.StatusCode != http.StatusOK || !ok["ok"] {
			t.Fatalf("observe: status %d ok=%v", resp.StatusCode, ok)
		}
	}
	var pr PredictResponse
	resp := post(t, ts.URL+"/v1/predict",
		PredictRequest{Job: job(99, "alice", 8, 0, 1200)}, &pr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	if !pr.OK || pr.Seconds != 600 {
		t.Fatalf("prediction = %+v, want 600s", pr)
	}
	if pr.Points != 3 {
		t.Fatalf("points = %d", pr.Points)
	}
}

func TestPredictFallsBackToMaxRT(t *testing.T) {
	ts, _ := newTestServer(t)
	var pr PredictResponse
	post(t, ts.URL+"/v1/predict", PredictRequest{Job: job(1, "nobody", 4, 0, 999)}, &pr)
	if pr.OK {
		t.Fatal("no history: OK should be false")
	}
	if pr.Seconds != 999 {
		t.Fatalf("fallback = %d, want the max run time", pr.Seconds)
	}
}

func TestPredictBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// No history yet: every item misses and falls back to its max run time,
	// exactly like /v1/predict.
	var br PredictBatchResponse
	resp := post(t, ts.URL+"/v1/predict/batch", PredictBatchRequest{Jobs: []PredictRequest{
		{Job: job(100, "nobody", 4, 0, 999)},
	}}, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(br.Results) != 1 || br.Results[0].OK || br.Results[0].Seconds != 999 {
		t.Fatalf("miss = %+v, want fallback 999", br.Results)
	}

	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "alice", 8, 600, 1200)}, nil)
	}
	resp = post(t, ts.URL+"/v1/predict/batch", PredictBatchRequest{Jobs: []PredictRequest{
		{Job: job(99, "alice", 8, 0, 1200)},
		{Job: job(101, "alice", 8, 0, 1200), Age: 100},
	}}, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	// Item 0 must match the single-prediction endpoint bit-for-bit.
	var single PredictResponse
	post(t, ts.URL+"/v1/predict", PredictRequest{Job: job(99, "alice", 8, 0, 1200)}, &single)
	if br.Results[0] != single {
		t.Fatalf("batch result %+v != single %+v", br.Results[0], single)
	}
	if !br.Results[0].OK || br.Results[0].Seconds != 600 {
		t.Fatalf("hit = %+v, want 600s", br.Results[0])
	}
	if !br.Results[1].OK {
		t.Fatalf("aged item = %+v, want a hit", br.Results[1])
	}

	// Empty batch is legal and returns an empty result list.
	post(t, ts.URL+"/v1/predict/batch", PredictBatchRequest{}, &br)
	if len(br.Results) != 0 {
		t.Fatalf("empty batch returned %d results", len(br.Results))
	}

	// Oversized batches are rejected up front, by the batch cap and not the
	// body bound: one job over the cap, each carrying every field an SWF
	// trace fills, still fits in maxBodyBytes.
	over := make([]PredictRequest, maxPredictBatch+1)
	for i := range over {
		over[i] = PredictRequest{Job: JobJSON{ID: 1000000 + i, Queue: "q12", User: "u12345",
			Executable: "e12345", Nodes: 1024, SubmitTime: 31536000 + int64(i), RunTime: 172800,
			MaxRunTime: 259200, StartTime: 31622400 + int64(i)}, Age: 86400}
	}
	resp = post(t, ts.URL+"/v1/predict/batch", PredictBatchRequest{Jobs: over}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

func TestPredictWaitEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// Machine: 64 nodes; one running job holds all of them until t=500
	// (from its max run time, since there is no history).
	running := JobJSON{ID: 10, User: "bob", Nodes: 64, MaxRunTime: 500, StartTime: 0}
	target := JobJSON{ID: 1, User: "alice", Nodes: 64, MaxRunTime: 600, SubmitTime: 100}
	var pw PredictWaitResponse
	resp := post(t, ts.URL+"/v1/predictwait", PredictWaitRequest{
		Now:     100,
		Policy:  "FCFS",
		Target:  target,
		Queue:   []JobJSON{target},
		Running: []JobJSON{running},
	}, &pw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if pw.StartSeconds != 500 || pw.WaitSeconds != 400 {
		t.Fatalf("predicted start/wait = %d/%d, want 500/400", pw.StartSeconds, pw.WaitSeconds)
	}
}

func TestPredictWaitValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	target := JobJSON{ID: 1, User: "a", Nodes: 4, MaxRunTime: 100}
	// Target missing from queue.
	resp := post(t, ts.URL+"/v1/predictwait", PredictWaitRequest{Target: target}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing target: status %d", resp.StatusCode)
	}
	// Unknown policy.
	resp = post(t, ts.URL+"/v1/predictwait", PredictWaitRequest{
		Policy: "EDF", Target: target, Queue: []JobJSON{target},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy: status %d", resp.StatusCode)
	}
}

func TestObserveValidation(t *testing.T) {
	ts, s, st := newStoreServer(t)
	if resp := post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(0, "a", 4, 600, 1200)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid observe: status %d", resp.StatusCode)
	}
	type durable struct {
		observations int64
		categories   int
		walBytes     int64
	}
	state := func() durable {
		fi, err := os.Stat(filepath.Join(st.Dir(), histstore.WALFile))
		if err != nil {
			t.Fatal(err)
		}
		return durable{s.observations.Load(), st.Categories(), fi.Size()}
	}
	before := state()
	// Every shape the durable history (or its recovery) would refuse is
	// rejected before it reaches the store: the durable write path
	// journals what it accepts, and recovery refuses such points, so
	// letting one through would brick every subsequent boot. A rejected
	// observe must leave the observation count, the category table and
	// the WAL exactly as they were.
	for _, tc := range []struct {
		name string
		job  JobJSON
	}{
		{"zero runtime", job(1, "b", 4, 0, 0)},
		{"negative runtime", job(2, "b", 4, -5, 0)},
		{"zero nodes", job(3, "b", 0, 600, 0)}, // e.g. the field omitted
		{"negative nodes", job(4, "b", -1, 600, 0)},
		{"negative maxRunTime", job(5, "b", 4, 600, -30)},
	} {
		resp := post(t, ts.URL+"/v1/observe", ObserveRequest{Job: tc.job}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s observe: status %d", tc.name, resp.StatusCode)
		}
		if got := state(); got != before {
			t.Fatalf("%s observe changed durable state: %+v, want %+v", tc.name, got, before)
		}
	}
	// Raw bodies: unknown fields are rejected, and so is a body over
	// maxBodyBytes. Leading whitespace pads a body to its size, so the
	// decoder must read every byte to reach the JSON value.
	valid := `{"job":{"id":9,"user":"b","executable":"b/app","nodes":4,"runTime":600}}`
	padded := func(n int) []byte {
		return append(bytes.Repeat([]byte(" "), n-len(valid)), valid...)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"unknown field", []byte(`{"job":{"id":1,"nodes":1,"runTime":10},"bogus":true}`), http.StatusBadRequest},
		{"one byte over the body bound", padded(maxBodyBytes + 1), http.StatusRequestEntityTooLarge},
		{"exactly the body bound", padded(maxBodyBytes), http.StatusOK},
	} {
		r, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, r.StatusCode, tc.want)
		}
		after := state()
		if tc.want == http.StatusOK {
			if after.observations != before.observations+1 {
				t.Fatalf("%s: %d observations, want %d", tc.name, after.observations, before.observations+1)
			}
			before = after
		} else if after != before {
			t.Fatalf("%s observe changed durable state: %+v, want %+v", tc.name, after, before)
		}
	}
	// GET rejected.
	g, err := http.Get(ts.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", g.StatusCode)
	}
	if got := state(); got != before {
		t.Fatalf("malformed observes changed durable state: %+v, want %+v", got, before)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(1, "a", 4, 100, 200)}, nil)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Observations != 1 || st.Categories == 0 || st.MachineNodes != 64 || st.Templates == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReadEndpointsRequireGET: the read-only endpoints answer 405 to any
// method but GET.
func TestReadEndpointsRequireGET(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/v1/stats", "/v1/metrics", "/v1/traces", "/v1/accuracy", "/v1/stable"} {
		resp := post(t, ts.URL+path, nil, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want %d", path, resp.StatusCode, http.StatusMethodNotAllowed)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			user := string(rune('a' + c))
			for i := 0; i < 20; i++ {
				post(t, ts.URL+"/v1/observe",
					ObserveRequest{Job: job(c*100+i, user, 4, int64(60+i), 600)}, nil)
				var pr PredictResponse
				post(t, ts.URL+"/v1/predict",
					PredictRequest{Job: job(c*100+i, user, 4, 0, 600)}, &pr)
			}
		}(c)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Observations != 160 {
		t.Fatalf("observations = %d, want 160", st.Observations)
	}
}

// TestCheckpointEndpointAndRestore: /v1/checkpoint snapshots a durable
// store, and a fresh predictor over the store reopened from that
// directory predicts identically.
func TestCheckpointEndpointAndRestore(t *testing.T) {
	ts, _, st := newStoreServer(t)
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "alice", 8, 600, 1200)}, nil)
	}
	resp := post(t, ts.URL+"/v1/checkpoint", struct{}{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}

	reopened, err := histstore.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	fresh := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true), core.WithStore(reopened))
	got, ok := fresh.Predict(&workload.Job{User: "alice", Executable: "alice/app",
		Nodes: 8, MaxRunTime: 1200}, 0)
	if !ok || got != 600 {
		t.Fatalf("restored prediction = %d, %v", got, ok)
	}
}

// TestCheckpointWithoutPath: a predictor over its default memory-only
// store has no directory to snapshot into, so /v1/checkpoint fails.
func TestCheckpointWithoutPath(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := post(t, ts.URL+"/v1/checkpoint", struct{}{}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("checkpoint without path: status %d", resp.StatusCode)
	}
}

func TestMetricsEndpointReflectsTraffic(t *testing.T) {
	ts, _ := newTestServer(t)
	// A predict before any history misses; observes then a hit.
	var pr PredictResponse
	post(t, ts.URL+"/v1/predict", PredictRequest{Job: job(50, "carol", 8, 0, 900)}, &pr)
	if pr.OK {
		t.Fatal("predict with no history should miss")
	}
	for i := 0; i < 4; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "carol", 8, 300, 900)}, nil)
	}
	post(t, ts.URL+"/v1/predict", PredictRequest{Job: job(51, "carol", 8, 0, 900)}, &pr)
	if !pr.OK {
		t.Fatal("predict after history should hit")
	}

	snap := getMetrics(t, ts.URL)
	if got := snap.Counters["http.observe.requests"]; got != 4 {
		t.Fatalf("observe requests = %d, want 4", got)
	}
	if got := snap.Counters["http.predict.requests"]; got != 2 {
		t.Fatalf("predict requests = %d, want 2", got)
	}
	if snap.Counters["service.predict.hits"] != 1 || snap.Counters["service.predict.misses"] != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1",
			snap.Counters["service.predict.hits"], snap.Counters["service.predict.misses"])
	}
	lat := snap.Histograms["http.predict.latency_seconds"]
	if lat.Count != 2 || lat.P50 <= 0 || lat.Max <= 0 {
		t.Fatalf("predict latency histogram = %+v", lat)
	}
	if snap.Gauges["predictor.categories"] <= 0 || snap.Gauges["predictor.history_size"] <= 0 {
		t.Fatalf("predictor gauges = %+v", snap.Gauges)
	}

	// Quantiles and counts move with more traffic.
	for i := 0; i < 10; i++ {
		post(t, ts.URL+"/v1/predict", PredictRequest{Job: job(60+i, "carol", 8, 0, 900)}, nil)
	}
	snap2 := getMetrics(t, ts.URL)
	if got := snap2.Counters["http.predict.requests"]; got != 12 {
		t.Fatalf("predict requests after more traffic = %d, want 12", got)
	}
	if snap2.Histograms["http.predict.latency_seconds"].Count != 12 {
		t.Fatalf("latency count = %d, want 12",
			snap2.Histograms["http.predict.latency_seconds"].Count)
	}
}

func getMetrics(t *testing.T, baseURL string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestErrorCounting: failed requests land in the per-endpoint error counter.
func TestErrorCounting(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(1, "a", 4, 0, 0)}, nil) // invalid
	snap := getMetrics(t, ts.URL)
	if snap.Counters["http.observe.errors"] != 1 {
		t.Fatalf("observe errors = %d, want 1", snap.Counters["http.observe.errors"])
	}
}

// TestParallelPredictReaders: many concurrent /v1/predict and
// /v1/predictwait readers race observes on the default memory-only store.
// Run under -race it validates that the server needs no lock of its own.
func TestParallelPredictReaders(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "dave", 4, 120, 600)}, nil)
	}
	var wg sync.WaitGroup
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch c % 3 {
				case 0: // writer
					post(t, ts.URL+"/v1/observe",
						ObserveRequest{Job: job(1000+c*100+i, "dave", 4, int64(60+i), 600)}, nil)
				case 1: // predict reader
					var pr PredictResponse
					post(t, ts.URL+"/v1/predict",
						PredictRequest{Job: job(2000+c*100+i, "dave", 4, 0, 600)}, &pr)
					if !pr.OK {
						t.Errorf("predict lost history mid-flight")
						return
					}
				case 2: // predictwait reader
					target := JobJSON{ID: 3000 + c*100 + i, User: "dave", Nodes: 4,
						MaxRunTime: 600, SubmitTime: 0}
					post(t, ts.URL+"/v1/predictwait", PredictWaitRequest{
						Policy: "FCFS", Target: target, Queue: []JobJSON{target},
					}, nil)
				}
			}
		}(c)
	}
	wg.Wait()
	snap := getMetrics(t, ts.URL)
	if snap.Counters["http.predict.requests"] != 100 ||
		snap.Counters["http.predictwait.requests"] != 100 {
		t.Fatalf("request counters = %+v", snap.Counters)
	}
}

func TestPprofMounting(t *testing.T) {
	pred := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true))
	s := New(pred, 64)
	s.EnablePprof()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	// Without EnablePprof the profile endpoints do not exist.
	ts2, _ := newTestServer(t)
	resp2, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("pprof mounted without EnablePprof")
	}
}

// TestServeGracefulShutdown starts the production server, makes a request,
// cancels the context, and expects a clean (nil) return.
func TestServeGracefulShutdown(t *testing.T) {
	pred := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true))
	s := New(pred, 64)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	post(t, url+"/v1/observe", ObserveRequest{Job: job(1, "eve", 2, 50, 100)}, nil)
	snap := getMetrics(t, url)
	if snap.Counters["http.observe.requests"] != 1 {
		t.Fatalf("counters = %+v", snap.Counters)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// newStoreServer builds a server whose predictor is backed by a durable
// history store in a temp dir.
func newStoreServer(t *testing.T) (*httptest.Server, *Server, *histstore.Store) {
	t.Helper()
	st, err := histstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pred := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true),
		core.WithStore(st))
	s := New(pred, 64)
	s.SetStore(st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, st
}

// TestStoreBackedCheckpointSnapshots: with a store attached,
// /v1/checkpoint snapshots the store (reporting its directory) and a fresh
// store opened on the same directory sees the full history.
func TestStoreBackedCheckpointSnapshots(t *testing.T) {
	ts, _, st := newStoreServer(t)
	for i := 0; i < 12; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "carol", 4, 300+int64(i), 900)}, nil)
	}
	var saved map[string]string
	resp := post(t, ts.URL+"/v1/checkpoint", nil, &saved)
	if resp.StatusCode != http.StatusOK || saved["saved"] != st.Dir() {
		t.Fatalf("checkpoint: status %d saved=%q want dir %q", resp.StatusCode, saved["saved"], st.Dir())
	}
	reopened, err := histstore.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Categories() != st.Categories() || reopened.Points() != st.Points() {
		t.Fatalf("snapshot lost history: %d/%d categories, %d/%d points",
			st.Categories(), reopened.Categories(), st.Points(), reopened.Points())
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBackedMetricsExposed: /v1/metrics refreshes and reports the
// store's gauges alongside the predictor's.
func TestStoreBackedMetricsExposed(t *testing.T) {
	ts, _, st := newStoreServer(t)
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "dave", 2, 120, 600)}, nil)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["histstore.categories"] != float64(st.Categories()) {
		t.Fatalf("histstore.categories gauge = %v, store has %d",
			snap.Gauges["histstore.categories"], st.Categories())
	}
	if snap.Gauges["histstore.wal.bytes"] <= 0 {
		t.Fatalf("histstore.wal.bytes gauge = %v", snap.Gauges["histstore.wal.bytes"])
	}
	if snap.Histograms["histstore.insert.latency_seconds"].Count == 0 {
		t.Fatal("insert latency histogram empty after observes")
	}
	if snap.Gauges["predictor.history_size"] != float64(st.Points()) {
		t.Fatalf("predictor.history_size = %v, store has %d points",
			snap.Gauges["predictor.history_size"], st.Points())
	}
}

// TestStoreBackedConcurrentObservePredict: mixed observe/predict traffic
// on a durable store runs concurrently; under -race this is the
// service-layer safety proof.
func TestStoreBackedConcurrentObservePredict(t *testing.T) {
	ts, s, _ := newStoreServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := g*100 + i
				post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(id, "erin", 4, 450, 900)}, nil)
				var pr PredictResponse
				post(t, ts.URL+"/v1/predict", PredictRequest{Job: job(id, "erin", 4, 0, 900)}, &pr)
			}
		}(g)
	}
	wg.Wait()
	if s.observations.Load() != 100 {
		t.Fatalf("observations = %d, want 100", s.observations.Load())
	}
	if err := s.pred.StoreErr(); err != nil {
		t.Fatal(err)
	}
}

// TestObserveAtCategoryCap: at the store's category cap, /v1/observe keeps
// answering 200; the jobs whose categories are refused still train the
// categories that exist, and each refusal counts under
// histstore.categories.refused while the category gauge stays at the cap.
func TestObserveAtCategoryCap(t *testing.T) {
	const maxCats = 6
	st, err := histstore.Open(t.TempDir(), histstore.WithMaxCategories(maxCats))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	var refusals atomic.Int64
	pred := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true),
		core.WithStore(st),
		core.WithStoreErrorHandler(func(err error) {
			if !errors.Is(err, histstore.ErrCategoryLimit) {
				t.Errorf("store error %v, want ErrCategoryLimit", err)
			}
			refusals.Add(1)
		}))
	s := New(pred, 64)
	s.SetStore(st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 20; i++ {
		user := fmt.Sprintf("user%d", i)
		if resp := post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, user, 4, 300, 900)}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %s: status %d, want 200", user, resp.StatusCode)
		}
	}
	if st.Categories() != maxCats {
		t.Fatalf("store holds %d categories, want the cap %d", st.Categories(), maxCats)
	}
	snap := getMetrics(t, ts.URL)
	if n := refusals.Load(); n == 0 || snap.Counters["histstore.categories.refused"] != n {
		t.Fatalf("histstore.categories.refused = %d, handler saw %d refusals",
			snap.Counters["histstore.categories.refused"], n)
	}
	if snap.Gauges["histstore.categories"] != maxCats {
		t.Fatalf("histstore.categories gauge = %v, want %d", snap.Gauges["histstore.categories"], maxCats)
	}
	if snap.Counters["http.observe.requests"] != 20 || snap.Counters["http.observe.errors"] != 0 {
		t.Fatalf("observe requests/errors = %d/%d, want 20/0",
			snap.Counters["http.observe.requests"], snap.Counters["http.observe.errors"])
	}
}
