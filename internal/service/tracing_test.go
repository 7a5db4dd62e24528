package service

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sched"
)

// getWithAccept issues a GET with an Accept header and returns the
// response plus its body.
func getWithAccept(t *testing.T, url, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsContentNegotiation is the regression for /v1/metrics
// representation selection: JSON (with its explicit Content-Type) stays
// the default; text/plain or openmetrics Accept values and the
// ?format=prometheus override switch to Prometheus text exposition.
func TestMetricsContentNegotiation(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(1, "alice", 4, 100, 200)}, nil)

	resp, body := getWithAccept(t, ts.URL+"/v1/metrics", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type = %q, want application/json", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("default body is not JSON: %v", err)
	}

	for _, accept := range []string{
		"text/plain",
		"text/plain; version=0.0.4",
		"application/openmetrics-text; version=1.0.0, text/plain",
	} {
		resp, body = getWithAccept(t, ts.URL+"/v1/metrics", accept)
		if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
			t.Fatalf("Accept %q: Content-Type = %q, want %q", accept, ct, obs.PrometheusContentType)
		}
		if !strings.Contains(body, "# TYPE http_metrics_requests counter") {
			t.Fatalf("Accept %q: body not Prometheus exposition:\n%s", accept, body)
		}
		if !strings.Contains(body, "service_observe_jobs 1") {
			t.Fatalf("Accept %q: observe counter missing:\n%s", accept, body)
		}
	}

	// A client preferring JSON keeps JSON even when text/plain follows.
	resp, _ = getWithAccept(t, ts.URL+"/v1/metrics", "application/json, text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json-first Accept: Content-Type = %q", ct)
	}

	// Explicit query override beats the Accept header.
	resp, _ = getWithAccept(t, ts.URL+"/v1/metrics?format=prometheus", "application/json")
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("?format=prometheus: Content-Type = %q", ct)
	}
	resp, _ = getWithAccept(t, ts.URL+"/v1/metrics?format=json", "text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("?format=json: Content-Type = %q", ct)
	}
}

// spanEdges returns the distinct parent→child span-name edges of a kept
// trace, sorted.
func spanEdges(tr trace.Trace) []string {
	seen := make(map[string]bool)
	for _, sp := range tr.Spans {
		if sp.Parent >= 0 {
			seen[tr.Spans[sp.Parent].Name+"→"+sp.Name] = true
		}
	}
	edges := make([]string, 0, len(seen))
	for e := range seen {
		edges = append(edges, e)
	}
	sort.Strings(edges)
	return edges
}

// TestSpanTrees pins the span tree of every traced endpoint. With a tracer
// that keeps every request and a durable store, each endpoint's trace has
// exactly the listed parent→child edges. A layer that calls the next one
// without the request's ctx (a handler calling PredictDetailed instead of
// PredictDetailedCtx, say) drops that subtree, and its edges go missing.
func TestSpanTrees(t *testing.T) {
	ts, s, _ := newStoreServer(t)
	ctrl, err := admission.New(admission.Config{
		Classes:    admission.DefaultClasses(),
		TotalNodes: 64,
		Policy:     sched.Backfill{},
		Predictor:  s.pred,
		Metrics:    s.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdmission(ctrl)
	tr := trace.New(trace.WithSampleRate(1))
	s.SetTracer(tr)
	for i := 1; i <= 5; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "alice", 4, int64(100*i), 1000)}, nil)
	}

	// A prediction with history: every template renders its key, looks the
	// category up, and estimates from it.
	predictTree := []string{"core.predict→template_match", "template_match→estimate", "template_match→histstore.view"}
	queued := job(9, "alice", 4, 0, 1000)
	running := []JobJSON{job(10, "bob", 64, 0, 500)}
	for _, tc := range []struct {
		endpoint, path string
		body           interface{}
		edges          []string
	}{
		// The completion is scored before it enters the history, so the
		// observe tree holds a full prediction beside the inserts.
		{"observe", "/v1/observe", ObserveRequest{Job: job(6, "alice", 4, 600, 1000)}, append([]string{
			"http.observe→core.predict", "http.observe→core.observe",
			"core.observe→histstore.insert", "histstore.insert→histstore.wal_append",
		}, predictTree...)},
		{"predict", "/v1/predict", PredictRequest{Job: queued}, append([]string{
			"http.predict→core.predict",
		}, predictTree...)},
		{"predict_batch", "/v1/predict/batch", PredictBatchRequest{Jobs: []PredictRequest{{Job: queued}, {Job: queued, Age: 60}}}, append([]string{
			"http.predict_batch→core.predict_batch", "core.predict_batch→core.predict",
		}, predictTree...)},
		{"predictwait", "/v1/predictwait", PredictWaitRequest{Target: queued, Queue: []JobJSON{queued}, Running: running}, []string{
			"http.predictwait→waitpred.simulate",
		}},
		{"admit", "/v1/admit", AdmitRequest{Job: classedJob(9, 4, 1000, "standard"), Running: running}, []string{
			"admission.decide→waitpred.simulate", "http.admit→admission.decide",
		}},
		{"checkpoint", "/v1/checkpoint", nil, []string{
			"http.checkpoint→histstore.snapshot",
		}},
	} {
		if resp := post(t, ts.URL+tc.path, tc.body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.endpoint, resp.StatusCode)
		}
		kept := tr.Recent()[0]
		if kept.Root != "http."+tc.endpoint {
			t.Fatalf("%s: newest trace is rooted at %q", tc.endpoint, kept.Root)
		}
		sort.Strings(tc.edges)
		if got := spanEdges(kept); !slices.Equal(got, tc.edges) {
			t.Errorf("%s span edges:\n got %q\nwant %q", tc.endpoint, got, tc.edges)
		}
	}
}

// TestTracesEndpointServesKeptTraces: /v1/traces serves the tracer's ring
// of kept traces as JSON.
func TestTracesEndpointServesKeptTraces(t *testing.T) {
	ts, s := newTestServer(t)
	s.SetTracer(trace.New(trace.WithSampleRate(1)))
	post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(1, "alice", 4, 100, 1000)}, nil)

	resp, body := getWithAccept(t, ts.URL+"/v1/traces", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces status %d", resp.StatusCode)
	}
	var tres TracesResponse
	if err := json.Unmarshal([]byte(body), &tres); err != nil {
		t.Fatalf("/v1/traces not JSON: %v", err)
	}
	if !tres.Enabled || len(tres.Traces) == 0 {
		t.Fatalf("/v1/traces = enabled %v, %d traces", tres.Enabled, len(tres.Traces))
	}
	if tres.Traces[0].ID == "" || len(tres.Traces[0].Spans) == 0 {
		t.Fatalf("/v1/traces first trace malformed: %+v", tres.Traces[0])
	}
}

// TestTracesEndpointWithoutTracer stays well-formed when no tracer is set.
func TestTracesEndpointWithoutTracer(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := getWithAccept(t, ts.URL+"/v1/traces", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tres TracesResponse
	if err := json.Unmarshal([]byte(body), &tres); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if tres.Enabled || tres.Traces == nil || len(tres.Traces) != 0 {
		t.Fatalf("tracerless response = %+v, want disabled with empty list", tres)
	}
}

// TestAccuracyEndpointScoresCompletions: every /v1/observe scores the
// prediction the server would have made, so the accuracy endpoint reports
// the live error statistics, including the per-template stream.
func TestAccuracyEndpointScoresCompletions(t *testing.T) {
	ts, _ := newTestServer(t)
	// The first two completions cannot be scored (a confidence interval
	// needs two points of history); the remaining four can.
	for i := 1; i <= 6; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "alice", 4, 100, 1000)}, nil)
	}
	resp, body := getWithAccept(t, ts.URL+"/v1/accuracy", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/accuracy status %d", resp.StatusCode)
	}
	var ar AccuracyResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatalf("/v1/accuracy not JSON: %v", err)
	}
	if ar.Window <= 0 {
		t.Fatalf("window = %d", ar.Window)
	}
	all, ok := ar.Keys["all"]
	if !ok {
		t.Fatalf("accuracy keys missing \"all\": %v", ar.Keys)
	}
	if all.Count != 4 {
		t.Fatalf("scored %d completions, want 4 (first two lack history)", all.Count)
	}
	// Identical 100s run times predict exactly; errors must be zero.
	if all.Exact != 4 || all.MeanError != 0 || all.RMSError != 0 {
		t.Fatalf("constant stream scored %+v, want exact zero error", all)
	}
	var hasTemplate bool
	for k := range ar.Keys {
		if strings.HasPrefix(k, "template_") {
			hasTemplate = true
		}
	}
	if !hasTemplate {
		t.Fatalf("no per-template accuracy stream: %v", ar.Keys)
	}

	// The accuracy gauges reach /v1/metrics under both representations.
	snap := getMetrics(t, ts.URL)
	if _, ok := snap.Gauges["accuracy.all.count"]; !ok {
		t.Fatalf("accuracy gauges not published: %v", snap.Gauges)
	}
	_, promBody := getWithAccept(t, ts.URL+"/v1/metrics", "text/plain")
	if !strings.Contains(promBody, "accuracy_all_count 4") {
		t.Fatalf("prometheus exposition missing accuracy gauge:\n%s", promBody)
	}
}
