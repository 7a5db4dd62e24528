package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// writeTestSWF produces a small SWF trace for warming.
func writeTestSWF(t *testing.T, path string) int {
	t.Helper()
	w, err := workload.Study("ANL", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteSWF(f, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return len(w.Jobs)
}

func TestBuildDefault(t *testing.T) {
	var sb strings.Builder
	a, err := build([]string{"-addr", ":9999", "-nodes", "128"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if a.srv == nil || a.addr != ":9999" || a.store != nil {
		t.Fatalf("build = %+v", a)
	}
	if a.pprofOn || a.metricsInterval != 0 || a.logLevel != obs.LevelInfo {
		t.Fatalf("observability defaults = %+v", a)
	}
	if !strings.Contains(sb.String(), "128-node machine") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestBuildObservabilityFlags(t *testing.T) {
	var sb strings.Builder
	a, err := build([]string{"-pprof", "-metrics-interval", "15s", "-log-level", "debug"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !a.pprofOn || a.metricsInterval != 15*time.Second || a.logLevel != obs.LevelDebug {
		t.Fatalf("flags not applied: %+v", a)
	}
	// pprof actually mounted on the handler.
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

func TestBuildReselectFlags(t *testing.T) {
	var sb strings.Builder
	a, err := build([]string{"-reselect", "-tail-cost", "3", "-reselect-window", "16"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	r := a.srv.Reselector()
	if r == nil {
		t.Fatal("-reselect did not attach a controller")
	}
	if got := r.Serving().CostRatio(); got != 3 {
		t.Fatalf("cost ratio = %v, want 3", got)
	}
	if got := r.Serving().Window(); got != 16 {
		t.Fatalf("window = %d, want 16", got)
	}
	if n := len(r.Shadow().Members()); n != 6 {
		t.Fatalf("stable has %d members, want 6", n)
	}
	if !strings.Contains(sb.String(), "stable: shadow scoring 6 predictors (reselect on confirmed drift)") {
		t.Fatalf("output:\n%s", sb.String())
	}
	// /v1/stable mounted and live.
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stable")
	if err != nil {
		t.Fatal(err)
	}
	var stable struct {
		Enabled  bool `json:"enabled"`
		Reselect bool `json:"reselect"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stable)
	resp.Body.Close()
	if err != nil || !stable.Enabled || !stable.Reselect {
		t.Fatalf("stable = %+v (err %v), want enabled with switching", stable, err)
	}

	// -shadow alone leaves switching off.
	sb.Reset()
	a, err = build([]string{"-shadow"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if a.srv.Reselector() == nil {
		t.Fatal("-shadow did not attach the stable")
	}
	if !strings.Contains(sb.String(), "(shadow-only)") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// TestBuildWithWarmAndState: a -warm-trained -data store checkpoints over
// HTTP, and a daemon rebuilt on the same directory serves the history.
func TestBuildWithWarmAndState(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "warm.swf")
	storeDir := filepath.Join(dir, "hist")
	writeTestSWF(t, trace)

	var sb strings.Builder
	a, err := build([]string{"-warm", trace, "-data", storeDir}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "warmed with") {
		t.Fatalf("output:\n%s", sb.String())
	}

	// Serve, checkpoint, rebuild from the store: predictions survive.
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/checkpoint", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	if err := a.store.Close(); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	a2, err := build([]string{"-data", storeDir}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := a2.store.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if !strings.Contains(sb.String(), "recovered") {
		t.Fatalf("restore output:\n%s", sb.String())
	}
	ts2 := httptest.NewServer(a2.srv.Handler())
	defer ts2.Close()
	statsResp, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st service.StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Categories == 0 {
		t.Fatal("restored server has no categories")
	}
}

func TestBuildWithTemplates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.json")
	if err := os.WriteFile(path, []byte(`[{"chars":["u"],"pred":"mean"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := build([]string{"-templates", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1 templates") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestBuildErrors(t *testing.T) {
	var sb strings.Builder
	if _, err := build([]string{"-templates", "/missing.json"}, &sb); err == nil {
		t.Error("missing templates should error")
	}
	if _, err := build([]string{"-warm", "/missing.swf"}, &sb); err == nil {
		t.Error("missing warm trace should error")
	}
	if _, err := build([]string{"-badflag"}, &sb); err == nil {
		t.Error("bad flag should error")
	}
}

// TestServeAndShutdown drives the daemon's serve path end to end: bind a
// random port, answer a metrics request, cancel, expect a clean return.
func TestServeAndShutdown(t *testing.T) {
	var sb strings.Builder
	a, err := build(nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.srv.ServeListener(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Gauges["predictor.templates"] <= 0 {
		t.Fatalf("metrics = %+v", snap)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no shutdown")
	}
}

func TestMetricsFieldsFlattening(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Gauge("a.depth").Set(1.5)
	reg.Histogram("lat").Observe(0.5)
	kv := metricsFields(reg.Snapshot())
	// Sorted counters/gauges first, then histogram p99s.
	want := []interface{}{"a.depth", 1.5, "b.count", int64(2)}
	if len(kv) != 6 {
		t.Fatalf("kv = %v", kv)
	}
	for i, w := range want {
		if kv[i] != w {
			t.Fatalf("kv[%d] = %v, want %v", i, kv[i], w)
		}
	}
	if kv[4] != "lat.p99" {
		t.Fatalf("kv[4] = %v", kv[4])
	}
}

// TestBuildWarmSkippedOnWarmStore: -warm must not double-train a store
// that already carries recovered history.
func TestBuildWarmSkippedOnWarmStore(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "warm.swf")
	storeDir := filepath.Join(dir, "hist")
	writeTestSWF(t, trace)

	var sb strings.Builder
	a, err := build([]string{"-warm", trace, "-data", storeDir}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "warmed with") {
		t.Fatalf("cold store was not warmed:\n%s", sb.String())
	}
	wantPoints := a.store.Points()
	if err := a.store.Close(); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	a2, err := build([]string{"-warm", trace, "-data", storeDir}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "skipping -warm") {
		t.Fatalf("output:\n%s", sb.String())
	}
	if a2.store.Points() != wantPoints {
		t.Fatalf("warm store re-trained: %d points, want %d", a2.store.Points(), wantPoints)
	}
	if err := a2.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildTraceFlags: -trace-sample/-trace-slow attach a tracer, so kept
// request traces become readable at /v1/traces.
func TestBuildTraceFlags(t *testing.T) {
	var sb strings.Builder
	a, err := build([]string{"-trace-sample", "1", "-trace-ring", "8"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tracing: sample 1") {
		t.Fatalf("output:\n%s", sb.String())
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var tr service.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !tr.Enabled {
		t.Fatalf("tracer not enabled: %+v", tr)
	}
	// The GET above was itself traced at sample rate 1.
	resp, err = http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.Traces) == 0 || tr.Traces[0].Root != "http.traces" {
		t.Fatalf("traces = %+v", tr.Traces)
	}

	// Without trace flags no tracer is attached.
	sb.Reset()
	if _, err := build(nil, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "tracing:") {
		t.Fatalf("tracer attached by default:\n%s", sb.String())
	}
}

func TestBuildAdmissionFlags(t *testing.T) {
	var sb strings.Builder
	a, err := build([]string{
		"-nodes", "64",
		"-admit-classes", "interactive=10m:always,standard=1h:shed,batch=4h:shed:tokens=50",
		"-admit-headroom", "1.5",
		"-admit-policy", "FCFS",
		"-admit-overflow", "batch",
		"-admit-state",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "admission:") ||
		!strings.Contains(sb.String(), "headroom 1.5") ||
		!strings.Contains(sb.String(), "policy FCFS") {
		t.Fatalf("output:\n%s", sb.String())
	}

	// /v1/admit is live and admits on an empty machine.
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(service.AdmitRequest{
		Now: 0,
		Job: service.JobJSON{ID: 1, User: "u", Nodes: 4, MaxRunTime: 600, Class: "standard"},
	})
	resp, err := http.Post(ts.URL+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var d service.AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !d.Admit || d.Class != "standard" {
		t.Fatalf("admit: status %d %+v", resp.StatusCode, d)
	}
	if d.EffectiveBudgetSec != 5400 {
		t.Fatalf("effective budget = %d, want 1.5 × 3600", d.EffectiveBudgetSec)
	}
}

func TestBuildAdmissionErrors(t *testing.T) {
	var sb strings.Builder
	if _, err := build([]string{"-admit-classes", "bad spec"}, &sb); err == nil {
		t.Error("bad class spec should error")
	}
	if _, err := build([]string{"-admit-classes", "a=600", "-admit-policy", "EDF"}, &sb); err == nil {
		t.Error("unknown admission policy should error")
	}
	if _, err := build([]string{"-admit-classes", "a=600", "-admit-overflow", "missing"}, &sb); err == nil {
		t.Error("unknown overflow class should error")
	}
	// Without -admit-classes the endpoint stays off.
	a, err := build(nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(service.AdmitRequest{Job: service.JobJSON{ID: 1, Nodes: 1}})
	resp, err := http.Post(ts.URL+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disabled admission: status %d, want 503", resp.StatusCode)
	}
}
