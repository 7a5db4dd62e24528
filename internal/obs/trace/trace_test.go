package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stepClock returns a deterministic clock advancing d per reading.
func stepClock(d time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	var n int64
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * d)
	}
}

func TestNilAndDisabledAreInert(t *testing.T) {
	var nilTracer *Tracer
	ctx := context.Background()
	c2, sp := nilTracer.StartRoot(ctx, "root")
	if c2 != ctx || sp != nil {
		t.Fatalf("nil tracer must return the context unchanged and a nil span")
	}
	if nilTracer.Enabled() {
		t.Fatalf("nil tracer reports enabled")
	}
	if got := nilTracer.Recent(); got != nil {
		t.Fatalf("nil tracer Recent = %v, want nil", got)
	}

	// Every Span method must be nil-safe.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.StartChild("child").End()
	sp.End()

	tr := New(WithSampleRate(1))
	tr.SetEnabled(false)
	c3, sp := tr.StartRoot(ctx, "root")
	if c3 != ctx || sp != nil {
		t.Fatalf("disabled tracer must not open traces")
	}
	// StartSpan with no active span is inert too.
	c4, child := StartSpan(ctx, "child")
	if c4 != ctx || child != nil {
		t.Fatalf("StartSpan without a root must be inert")
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr := New(WithSampleRate(1), WithNow(stepClock(time.Millisecond)))
	ctx, root := tr.StartRoot(context.Background(), "http.predict")
	if root == nil {
		t.Fatalf("enabled tracer returned a nil root")
	}
	root.SetAttrInt("status", 200)

	ctx1, core := StartSpan(ctx, "core.predict")
	if SpanFromContext(ctx1) != core {
		t.Fatalf("StartSpan did not install the child in the context")
	}
	match := core.StartChild("template_match")
	match.SetAttr("category", "u=alice")
	est := match.StartChild("estimate")
	est.End()
	match.End()
	core.End()
	root.End()

	traces := tr.Recent()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Root != "http.predict" || got.Reason != "sampled" || got.ID == "" {
		t.Fatalf("trace header %+v", got)
	}
	wantNames := []string{"http.predict", "core.predict", "template_match", "estimate"}
	if len(got.Spans) != len(wantNames) {
		t.Fatalf("exported %d spans, want %d", len(got.Spans), len(wantNames))
	}
	wantParents := []int{-1, 0, 1, 2}
	for i, sp := range got.Spans {
		if sp.Name != wantNames[i] || sp.Parent != wantParents[i] {
			t.Fatalf("span %d = %q parent %d, want %q parent %d",
				i, sp.Name, sp.Parent, wantNames[i], wantParents[i])
		}
		if sp.DurationSeconds < 0 {
			t.Fatalf("span %d has negative duration %v", i, sp.DurationSeconds)
		}
	}
	if got.DurationSeconds <= 0 {
		t.Fatalf("root duration %v, want > 0 under a stepping clock", got.DurationSeconds)
	}
	if len(got.Spans[0].Attrs) != 1 || got.Spans[0].Attrs[0].Key != "status" {
		t.Fatalf("root attrs %+v", got.Spans[0].Attrs)
	}
	if !strings.Contains(got.Pretty(), "template_match") {
		t.Fatalf("Pretty output missing span name:\n%s", got.Pretty())
	}
}

func TestUnendedChildrenCloseWithRoot(t *testing.T) {
	tr := New(WithSampleRate(1), WithNow(stepClock(time.Millisecond)))
	_, root := tr.StartRoot(context.Background(), "root")
	root.StartChild("straggler") // never ended explicitly
	root.End()
	got := tr.Recent()[0]
	if len(got.Spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(got.Spans))
	}
	if d := got.Spans[1].DurationSeconds; d < 0 {
		t.Fatalf("straggler duration %v", d)
	}
}

func TestSlowSamplingKeepsOnlySlowTraces(t *testing.T) {
	// 1ms per clock reading; a root with two extra readings (child start
	// and end) spans ≥ 3ms, a bare root spans 1ms.
	tr := New(WithSlowThreshold(3*time.Millisecond), WithNow(stepClock(time.Millisecond)))

	_, fast := tr.StartRoot(context.Background(), "fast")
	fast.End()
	if n := len(tr.Recent()); n != 0 {
		t.Fatalf("fast trace kept (%d traces); slow threshold alone should drop it", n)
	}

	_, slow := tr.StartRoot(context.Background(), "slow")
	c := slow.StartChild("work")
	c.End()
	slow.End()
	got := tr.Recent()
	if len(got) != 1 || got[0].Reason != "slow" {
		t.Fatalf("slow trace not kept as slow: %+v", got)
	}
}

func TestProbabilisticSamplingIsDeterministic(t *testing.T) {
	run := func() []bool {
		tr := New(WithSampleRate(0.5), WithSeed(7))
		kept := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			before := len(tr.Recent())
			_, sp := tr.StartRoot(context.Background(), "r")
			sp.End()
			kept = append(kept, len(tr.Recent()) > before)
		}
		return kept
	}
	a, b := run(), run()
	var keptN int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling decisions diverged at trace %d", i)
		}
		if a[i] {
			keptN++
		}
	}
	if keptN == 0 || keptN == len(a) {
		t.Fatalf("kept %d of %d at rate 0.5; the sampler is stuck", keptN, len(a))
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	tr := New(WithSampleRate(1), WithCapacity(3))
	for i := 0; i < 5; i++ {
		_, sp := tr.StartRoot(context.Background(), "r")
		sp.SetAttrInt("i", int64(i))
		sp.End()
	}
	got := tr.Recent()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(got))
	}
	// Newest first: i = 4, 3, 2.
	for k, want := range []string{"4", "3", "2"} {
		if got[k].Spans[0].Attrs[0].Value != want {
			t.Fatalf("ring order wrong at %d: %+v", k, got[k].Spans[0].Attrs)
		}
	}
}

func TestMaxSpansBound(t *testing.T) {
	tr := New(WithSampleRate(1), WithMaxSpans(4))
	_, root := tr.StartRoot(context.Background(), "root")
	for i := 0; i < 10; i++ {
		root.StartChild("c").End()
	}
	root.End()
	got := tr.Recent()[0]
	if len(got.Spans) != 4 {
		t.Fatalf("recorded %d spans, want 4 (bound)", len(got.Spans))
	}
	if got.SpansDropped != 7 {
		t.Fatalf("dropped %d spans, want 7", got.SpansDropped)
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(WithSampleRate(1), WithMaxSpans(2))
	tr.SetMetrics(reg)
	_, root := tr.StartRoot(context.Background(), "root")
	root.StartChild("kept").End()
	root.StartChild("over").End() // beyond the 2-span bound
	root.End()

	tr.SetEnabled(false)
	snap := reg.Snapshot()
	if snap.Counters["trace.spans"] != 2 {
		t.Fatalf("trace.spans = %d, want 2", snap.Counters["trace.spans"])
	}
	if snap.Counters["trace.spans.dropped"] != 1 {
		t.Fatalf("trace.spans.dropped = %d, want 1", snap.Counters["trace.spans.dropped"])
	}
	if snap.Counters["trace.traces.kept"] != 1 {
		t.Fatalf("trace.traces.kept = %d, want 1", snap.Counters["trace.traces.kept"])
	}

	// A dropped (unsampled) trace increments the drop counter.
	tr2 := New() // no sampling rules: keeps nothing
	tr2.SetMetrics(reg)
	_, sp := tr2.StartRoot(context.Background(), "r")
	sp.End()
	if got := reg.Snapshot().Counters["trace.traces.dropped"]; got != 1 {
		t.Fatalf("trace.traces.dropped = %d, want 1", got)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := New(WithSampleRate(1), WithMaxSpans(1024))
	_, root := tr.StartRoot(context.Background(), "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.StartChild("c")
				c.SetAttrInt("i", int64(i))
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	got := tr.Recent()[0]
	if len(got.Spans) != 1+8*50 {
		t.Fatalf("recorded %d spans, want %d", len(got.Spans), 1+8*50)
	}
}

// TestTraceIDFormat pins the trace id format — 16 zero-padded lowercase
// hex digits, as fmt's "%016x" — across the 255→256 boundary, where the
// id gains a third digit, and at the ends of the range; and checks that
// kept traces carry consecutive ids in that format.
func TestTraceIDFormat(t *testing.T) {
	for _, c := range []struct {
		id   uint64
		want string
	}{
		{0, "0000000000000000"},
		{1, "0000000000000001"},
		{255, "00000000000000ff"},
		{256, "0000000000000100"},
		{257, "0000000000000101"},
		{0xdeadbeef, "00000000deadbeef"},
		{1<<64 - 1, "ffffffffffffffff"},
	} {
		if got := formatID(c.id); got != c.want {
			t.Errorf("formatID(%d) = %q, want %q", c.id, got, c.want)
		}
	}
	tr := New(WithSampleRate(1), WithCapacity(4))
	for i := 0; i < 258; i++ {
		_, root := tr.StartRoot(context.Background(), "root")
		root.End()
	}
	var ids []string
	for _, k := range tr.Recent() {
		ids = append(ids, k.ID)
	}
	want := "0000000000000102 0000000000000101 0000000000000100 00000000000000ff"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("kept ids, newest first = %s, want %s", got, want)
	}
}
