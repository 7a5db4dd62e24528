package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted input
	}
	d := summarize(xs)
	if d.N != 1000 || !near(d.P50, 499.5) || !near(d.P99, 989.01) {
		t.Errorf("summarize = %+v, want N=1000 P50=499.5 P99=989.01", d)
	}
	if xs[0] != 999 { //lint:allow floatcmp exact sentinel written above
		t.Error("summarize must not reorder its input")
	}
}

func TestWindowQuantileIsTheMedianWindow(t *testing.T) {
	// Three windows whose p99s are about 1, 100 and 10: the median window
	// wins, so one stalled window does not move the figure.
	var xs []float64
	for _, top := range []float64{1, 100, 10} {
		for i := 0; i < window; i++ {
			xs = append(xs, top*float64(i)/window)
		}
	}
	p99, windows := windowQuantile(xs, 0.99)
	if windows != 3 || math.Abs(p99-9.89) > 0.01 {
		t.Errorf("windowed p99 = %v over %d windows, want ~9.89 over 3", p99, windows)
	}
	p90, _ := windowQuantile(xs, 0.90)
	if math.Abs(p90-8.991) > 0.01 {
		t.Errorf("windowed p90 = %v, want ~8.991", p90)
	}
	if _, windows := windowQuantile(xs[:1500], 0.99); windows != 1 {
		t.Errorf("a sample under two windows should be one window, got %d", windows)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "request", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 50 * ms, Parent: 0}, // overlaps a: covered 10..50
		{Name: "c", Start: 15 * ms, End: 20 * ms, Parent: 1},
		{Name: "d", Start: 90 * ms, End: 120 * ms, Parent: 0}, // clipped to the parent's end
	}
	want := []time.Duration{50 * ms, 25 * ms, 20 * ms, 5 * ms, 30 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestRecorderNestsAndAggregates(t *testing.T) {
	rec := newRecorder()
	for req := 0; req < 2; req++ {
		root := rec.root(req, "request")
		done := rec.span("waitpred.simulate")
		for k := 0; k < 3; k++ {
			rec.span("sched.pick")()
		}
		done()
		rec.span("service.encode")()
		rec.end(root)
	}
	var nilRec *recorder
	nilRec.span("ignored")() // untimed replays run the same code
	ls := aggregate(rec.spans, nil)
	if got := ls.under[[2]string{"waitpred.simulate", "sched.pick"}]; got != 6 {
		t.Errorf("picks under waitpred = %d, want 6", got)
	}
	if got := ls.under[[2]string{"request", "sched.pick"}]; got != 6 {
		t.Errorf("picks under request = %d, want 6", got)
	}
	if ls.count("request") != 2 || len(ls.perReq) != 2 {
		t.Errorf("want 2 requests, got %d roots and %d per-request sums", ls.count("request"), len(ls.perReq))
	}
	// A request's layer sum is its root's duration minus the root's own
	// self time.
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		if s.Parent != -1 {
			continue
		}
		want := float64(s.End-s.Start-self[i]) / 1e3
		if got := ls.perReq[s.Req]; math.Abs(got-want) > 1e-6 {
			t.Errorf("request %d layer sum = %v us, want %v", s.Req, got, want)
		}
	}
}

func TestUnexplainedFracIsTheLayerSumGap(t *testing.T) {
	// e2e 100, transport 40, layer sums with median 50: 10 unexplained.
	if got := unexplainedFrac(100, 40, []float64{45, 50, 70}); !near(got, 0.1) {
		t.Errorf("unexplainedFrac = %v, want 0.1", got)
	}
	if got := unexplainedFrac(0, 0, []float64{1}); got != 0 { //lint:allow floatcmp exact zero for an empty base
		t.Errorf("unexplainedFrac with no end-to-end time = %v, want 0", got)
	}
}

func TestArrivalsAreEvenlySpacedAtTheRate(t *testing.T) {
	due := arrivals(250, 2*time.Second)
	if len(due) != 500 {
		t.Fatalf("len = %d, want rate × duration = 500", len(due))
	}
	for i, d := range due {
		if want := time.Duration(i) * 4 * time.Millisecond; d != want {
			t.Fatalf("due[%d] = %v, want %v", i, d, want)
		}
	}
}

// TestOpenLoopChargesAStallToTheRequestsBehindIt drives one connection at
// 100 requests per second against a server that stalls 150 ms on its
// third request: the requests due during the stall must be charged the
// wait, and the phase must still send every request.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(150 * time.Millisecond)
		}
		_, _ = w.Write([]byte("ok")) // a failed write fails the client side
	}))
	defer srv.Close()
	c := newClient(srv.Listener.Addr().String(), 1)
	defer c.close()
	reqs := []*request{{kind: "test", path: "/", body: []byte("{}"), jobs: 1, want: []byte("ok")}}
	p := openLoop(context.Background(), c, reqs, 0, arrivals(100, 300*time.Millisecond), 1, time.Second)
	if p.sent != 30 || p.failed != 0 {
		t.Fatalf("sent %d failed %d (%v), want 30 sent and none failed", p.sent, p.failed, p.firstErr)
	}
	if p.acked["test"] != 30 {
		t.Errorf("acknowledged %v, want all 30 test requests", p.acked)
	}
	// Request 3 (index 3) was due 30 ms in, 10 ms after the stalled one
	// began: it waits ~140 ms for the connection.
	if p.latMs[3] < 100 {
		t.Errorf("request due during the stall took %.1f ms, want the ~140 ms wait charged", p.latMs[3])
	}
	if p.latMs[len(p.latMs)-1] > 100 {
		t.Errorf("last request took %.1f ms; the backlog should have drained", p.latMs[len(p.latMs)-1])
	}
}

func TestParseStealReadsTheAggregateLine(t *testing.T) {
	stat := "cpu  100 5 20 800 10 1 4 60 7 0\ncpu0 50 2 10 400 5 0 2 30 3 0\n"
	steal, total := parseSteal(stat)
	if steal != 60 || total != 1000 { //lint:allow floatcmp small integers parse exactly
		t.Errorf("parseSteal = %v, %v; want 60, 1000 (guest columns are already in user)", steal, total)
	}
	for _, bad := range []string{"", "intr 1 2 3\n", "cpu 1 2 3\n", "cpu 1 2 x 4 5 6 7 8\n"} {
		if s, tot := parseSteal(bad); s != 0 || tot != 0 { //lint:allow floatcmp zero is the exact fallback
			t.Errorf("parseSteal(%q) = %v, %v; want 0, 0", bad, s, tot)
		}
	}
}

func TestUtilSinceLeavesOutStolenTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	m0 := cpuMark{cpu: 0, wall: t0, steal: 100, total: 1000}
	// Two workers for one second: 2 CPU-seconds of wall time, a quarter of
	// it stolen, 1.2 CPU-seconds used.
	m1 := cpuMark{cpu: 1200 * time.Millisecond, wall: t0.Add(time.Second), steal: 150, total: 1200}
	util, stolen := m0.utilSince(m1, 2)
	if !near(stolen, 0.25) || !near(util, 0.8) {
		t.Errorf("utilSince = %v, %v; want util 0.8, stolen 0.25", util, stolen)
	}
	// Without steal figures it is CPU time over wall time × workers.
	m1.steal, m1.total = 0, 0
	m0.steal, m0.total = 0, 0
	if util, stolen := m0.utilSince(m1, 2); !near(util, 0.6) || stolen != 0 { //lint:allow floatcmp zero is the exact fallback
		t.Errorf("utilSince without steal = %v, %v; want 0.6, 0", util, stolen)
	}
}

func TestUpperQuartileIgnoresLowOutliers(t *testing.T) {
	// Seven segment utilizations, two of them dragged down by the host.
	xs := []float64{0.94, 0.71, 0.93, 0.76, 0.95, 0.92, 0.94}
	if got := upperQuartile(xs); !near(got, 0.94) {
		t.Errorf("upperQuartile = %v, want 0.94", got)
	}
	if xs[1] != 0.71 { //lint:allow floatcmp exact sentinel written above
		t.Error("upperQuartile must not reorder its input")
	}
	if !math.IsNaN(upperQuartile(nil)) {
		t.Error("upperQuartile of an empty sample should be NaN")
	}
}

func TestSpeedFactorUsesTheMedianSample(t *testing.T) {
	s := &speed{samples: []float64{2 * refNominal, refNominal / 2, 2 * refNominal}}
	if got := s.factor(); !near(got, 0.5) {
		t.Errorf("factor = %v, want 0.5: the median sample took twice the nominal time", got)
	}
	if got := (&speed{}).factor(); got != 1 { //lint:allow floatcmp exact fallback
		t.Errorf("factor without samples = %v, want 1", got)
	}
	w := newRefWork()
	if x := w.sample(); x < 0 {
		t.Errorf("reference sample = %v, want >= 0", x)
	}
}
