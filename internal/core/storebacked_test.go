package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/histstore"
	"repro/internal/workload"
)

// mustPredictAll runs an observe/predict interleaving over a workload:
// every job is predicted (at ages 0 and 600) against the history of all
// earlier jobs, then observed. It returns the full prediction stream.
func mustPredictAll(t *testing.T, p *Predictor, w *workload.Workload) []Prediction {
	t.Helper()
	var out []Prediction
	for _, j := range w.Jobs {
		for _, age := range []int64{0, 600} {
			pr, ok := p.PredictDetailed(j, age)
			if !ok {
				pr = Prediction{Template: -1}
			}
			out = append(out, pr)
		}
		p.Observe(j)
	}
	if err := p.StoreErr(); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustEqualPredictions compares two prediction streams bit-for-bit:
// integer fields exactly, the interval by its IEEE-754 bits.
func mustEqualPredictions(t *testing.T, name string, want, got []Prediction) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d predictions", name, len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Seconds != b.Seconds || a.Template != b.Template || a.Category != b.Category ||
			a.N != b.N || math.Float64bits(a.Interval) != math.Float64bits(b.Interval) {
			t.Fatalf("%s: prediction %d diverged: %+v vs %+v", name, i, a, b)
		}
	}
}

// batchDigests are predictionDigest values of mustPredictAll over
// workload.Study(name, 40, 3) with the default template set, recorded from
// the predictor's former batch mode — a private, single-threaded category
// map with in-place inserts and no histstore.Store. That predictor was the
// reference the store-backed path was proven bit-identical to; these
// constants keep the proof after the map was deleted.
var batchDigests = map[string]uint64{
	"ANL":    0x00f9acd9a1380cbd,
	"CTC":    0xe8f079cc5b6d41fe,
	"SDSC95": 0xd73b387c21dfb19c,
	"SDSC96": 0x15abf7bb38e23ffa,
}

// predictionDigest is the 64-bit FNV-1a digest of a prediction stream:
// per prediction, Seconds, Template, the Category key (length-prefixed),
// N, and the interval's IEEE-754 bits, each integer as 8 little-endian
// bytes. Equal digests mean bit-for-bit equal streams.
func predictionDigest(preds []Prediction) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, pr := range preds {
		put(uint64(pr.Seconds))
		put(uint64(int64(pr.Template)))
		put(uint64(len(pr.Category)))
		h.Write([]byte(pr.Category))
		put(uint64(int64(pr.N)))
		put(math.Float64bits(pr.Interval))
	}
	return h.Sum64()
}

// studyWorkload is the workload the batch digests were recorded on.
func studyWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, err := workload.Study(name, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mustMatchBatchDigest fails unless preds is bit-for-bit the stream the
// batch-mode predictor emitted on the named study workload.
func mustMatchBatchDigest(t *testing.T, name string, preds []Prediction) {
	t.Helper()
	if got, want := predictionDigest(preds), batchDigests[name]; got != want {
		t.Fatalf("%s: prediction stream digest %#016x, batch mode recorded %#016x", name, got, want)
	}
}

// TestStoreBackedMatchesBatch is the determinism proof: on every study
// workload, the predictor over its default memory-only store emits the
// bit-for-bit prediction stream the batch-mode predictor emitted.
func TestStoreBackedMatchesBatch(t *testing.T) {
	for _, name := range workload.StudyNames {
		t.Run(name, func(t *testing.T) {
			w := studyWorkload(t, name)
			mustMatchBatchDigest(t, name, mustPredictAll(t, New(DefaultTemplates(w.Chars, w.HasMaxRT)), w))
		})
	}
}

// mustPredictAllBatch is mustPredictAll driven through the batch API: each
// job's two ages are one PredictDetailedBatchCtx call, so the per-batch
// category resolve cache is exercised on every step.
func mustPredictAllBatch(t *testing.T, p *Predictor, w *workload.Workload) []Prediction {
	t.Helper()
	var out []Prediction
	for _, j := range w.Jobs {
		res := p.PredictDetailedBatchCtx(context.Background(), []BatchItem{{Job: j, Age: 0}, {Job: j, Age: 600}})
		if len(res) != 2 {
			t.Fatalf("batch returned %d results for 2 items", len(res))
		}
		for _, r := range res {
			pr := r.Prediction
			if !r.OK {
				pr = Prediction{Template: -1}
			}
			out = append(out, pr)
		}
		p.Observe(j)
	}
	if err := p.StoreErr(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchPredictMatchesSingle proves the batch API is a pure amortization
// of the single-prediction path: on every study workload, a predictor
// driven through PredictDetailedBatchCtx emits bit-for-bit the stream the
// single-call path emits.
func TestBatchPredictMatchesSingle(t *testing.T) {
	for _, name := range workload.StudyNames {
		t.Run(name, func(t *testing.T) {
			w := studyWorkload(t, name)
			ts := DefaultTemplates(w.Chars, w.HasMaxRT)
			want := mustPredictAll(t, New(ts), w)
			got := mustPredictAllBatch(t, New(ts), w)
			mustEqualPredictions(t, name, want, got)
		})
	}
}

// TestBatchPredictEdgeCases pins the batch API's corner behavior: empty
// batches, nil jobs, and single-item batches (which skip cache allocation).
func TestBatchPredictEdgeCases(t *testing.T) {
	w, err := workload.Study("ANL", 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts := DefaultTemplates(w.Chars, w.HasMaxRT)
	p := New(ts, WithStore(histstore.New()))
	for _, j := range w.Jobs[:20] {
		p.Observe(j)
	}
	if res := p.PredictDetailedBatchCtx(context.Background(), nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	j := w.Jobs[25]
	res := p.PredictDetailedBatchCtx(context.Background(), []BatchItem{{Job: nil}, {Job: j}})
	if len(res) != 2 {
		t.Fatalf("batch returned %d results for 2 items", len(res))
	}
	if res[0].OK {
		t.Fatal("nil job produced a prediction")
	}
	single, ok := p.PredictDetailed(j, 0)
	if res[1].OK != ok || res[1].Prediction != single {
		t.Fatalf("batch vs single diverged: %+v/%v vs %+v/%v",
			res[1].Prediction, res[1].OK, single, ok)
	}
	one := p.PredictDetailedBatchCtx(context.Background(), []BatchItem{{Job: j}})
	if one[0].OK != ok || one[0].Prediction != single {
		t.Fatalf("single-item batch diverged: %+v/%v vs %+v/%v",
			one[0].Prediction, one[0].OK, single, ok)
	}
}

// TestStoreBackedDurableMatchesBatch adds the durability dimension: the
// predictor journals to a WAL, snapshots mid-stream, is abandoned
// (simulated crash) and recovered into a fresh predictor — and on every
// study workload the combined prediction stream still matches the
// batch-mode digest bit-for-bit.
func TestStoreBackedDurableMatchesBatch(t *testing.T) {
	for _, name := range workload.StudyNames {
		t.Run(name, func(t *testing.T) {
			w := studyWorkload(t, name)
			mustMatchBatchDigest(t, name, durableRecoveredStream(t, DefaultTemplates(w.Chars, w.HasMaxRT), w))
		})
	}
}

// evictionDigest is the predictionDigest of mustPredictAll over
// evictionWorkload with evictionTemplates, recorded from the flat-ring
// store (one backing array per category, copied whole on every eviction)
// before category rings were stored in chunks. batchDigests never reach
// a 4096-point bound; here every bounded category wraps several times, and
// the age-600 predictions run the age-conditioned mean and regression,
// whose floating-point results depend on the order ForEach visits the
// ring's slots.
const evictionDigest = 0xfe7ba066f4b671f0

// evictionTemplates are small-bound templates that wrap on
// evictionWorkload: per-user rings of 7, node-bucketed rings of exactly
// one chunk (128) and global rings one point past it (129), mean and
// regression, absolute and relative, all conditioned on age.
func evictionTemplates() []Template {
	user := workload.MaskOf(workload.CharUser)
	return []Template{
		{Chars: user, MaxHistory: 7, UseAge: true, Pred: PredMean},
		{Chars: user, MaxHistory: 7, Relative: true, UseAge: true, Pred: PredMean},
		{UseNodes: true, NodeRange: 16, MaxHistory: 128, UseAge: true, Pred: PredMean},
		{MaxHistory: 129, UseAge: true, Pred: PredMean},
		{MaxHistory: 129, Relative: true, UseAge: true, Pred: PredLinear},
	}
}

// evictionWorkload is ANL at a quarter of its trace size (about 2000
// jobs): enough for the 129-point global rings to wrap over a dozen times.
func evictionWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Study("ANL", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEvictionStreamMatchesFlatRing pins the eviction path at the
// predictor level: the prediction stream over wrapping rings hashes to the
// digest the flat-ring store produced, on a memory-only store and on a
// durable store that is crashed and recovered mid-stream.
func TestEvictionStreamMatchesFlatRing(t *testing.T) {
	w := evictionWorkload(t)
	ts := evictionTemplates()
	for _, tc := range []struct {
		name  string
		preds []Prediction
	}{
		{"memory", mustPredictAll(t, New(ts), w)},
		{"durable", durableRecoveredStream(t, ts, w)},
	} {
		if got := predictionDigest(tc.preds); got != evictionDigest {
			t.Errorf("%s: prediction stream digest %#016x, flat ring recorded %#016x", tc.name, got, uint64(evictionDigest))
		}
	}
}

// durableRecoveredStream is mustPredictAll over w with templates ts
// through a durable store that is snapshotted at the half, crashed (no
// Close, no final snapshot) at three quarters, and recovered from
// snapshot plus WAL tail into a fresh predictor for the rest.
func durableRecoveredStream(t *testing.T, ts []Template, w *workload.Workload) []Prediction {
	t.Helper()
	dir := t.TempDir()
	st, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored := New(ts, WithStore(st))
	half := &workload.Workload{Chars: w.Chars, HasMaxRT: w.HasMaxRT, Jobs: w.Jobs[:len(w.Jobs)/2]}
	got := mustPredictAll(t, stored, half)
	if err := st.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	quarter := len(w.Jobs) * 3 / 4
	tail := &workload.Workload{Chars: w.Chars, HasMaxRT: w.HasMaxRT, Jobs: w.Jobs[len(w.Jobs)/2 : quarter]}
	got = append(got, mustPredictAll(t, stored, tail)...)

	// Simulated crash: no Close, no final snapshot. Recovery replays the
	// snapshot plus the WAL tail.
	st2, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	recovered := New(ts, WithStore(st2))
	rest := &workload.Workload{Chars: w.Chars, HasMaxRT: w.HasMaxRT, Jobs: w.Jobs[quarter:]}
	return append(got, mustPredictAll(t, recovered, rest)...)
}

// TestCOWHammerPredictObserveSnapshot exercises the copy-on-write swap
// where torn views would surface: concurrent predicts (single and batch),
// streaming observes, and continuous Snapshot compaction on a durable
// store. Run under -race this is the CI gate for the lock-free read path;
// the final sweep asserts every published category snapshot is internally
// consistent (ring size matches moment count, finalized aggregates are
// bit-for-bit the moments' MeanVar) and the store's global counters match
// the per-category truth.
func TestCOWHammerPredictObserveSnapshot(t *testing.T) {
	w, err := workload.Study("ANL", 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	ts := DefaultTemplates(w.Chars, w.HasMaxRT)
	st, err := histstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	p := New(ts, WithStore(st))
	for _, j := range w.Jobs[:50] {
		p.Observe(j)
	}

	jobs := w.Jobs[50:]
	done := make(chan struct{})
	var writers, others sync.WaitGroup
	const nWriters, nReaders = 2, 4
	for g := 0; g < nWriters; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := g; i < len(jobs); i += nWriters {
				p.Observe(jobs[i])
			}
		}(g)
	}
	for g := 0; g < nReaders; g++ {
		others.Add(1)
		go func(g int) {
			defer others.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				j := w.Jobs[i%len(w.Jobs)]
				p.PredictDetailed(j, 0)
				res := p.PredictDetailedBatchCtx(context.Background(), []BatchItem{{Job: j}, {Job: j, Age: 600}})
				if len(res) != 2 {
					t.Errorf("batch returned %d results", len(res))
					return
				}
			}
		}(g)
	}
	others.Add(1)
	go func() {
		defer others.Done()
		ctx := context.Background()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := st.Snapshot(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	others.Wait()
	if err := p.StoreErr(); err != nil {
		t.Fatal(err)
	}

	// Consistency sweep over the settled store.
	var cats, points int
	st.ForEach(func(key string, c *histstore.Category) {
		cats++
		points += c.Size()
		if c.Size() != c.Abs().N {
			t.Errorf("category %q: %d points but abs moment count %d", key, c.Size(), c.Abs().N)
		}
		mean, v := c.Abs().MeanVar()
		am, av, an := c.AbsStats()
		if an != c.Abs().N ||
			math.Float64bits(am) != math.Float64bits(mean) ||
			math.Float64bits(av) != math.Float64bits(v) {
			t.Errorf("category %q: finalized abs stats (%v,%v,%d) != moments (%v,%v,%d)",
				key, am, av, an, mean, v, c.Abs().N)
		}
	})
	if cats != st.Categories() || points != st.Points() {
		t.Fatalf("store counters: %d/%d categories, %d/%d points",
			st.Categories(), cats, st.Points(), points)
	}
}

// TestObserveRejectsNonPositiveRunTime: a completion the store refuses
// (here a zero run time, which histstore.Point.Validate rejects) sets
// StoreErr and leaves the history, and so every prediction, unchanged.
func TestObserveRejectsNonPositiveRunTime(t *testing.T) {
	w := studyWorkload(t, "ANL")
	p := New(DefaultTemplates(w.Chars, w.HasMaxRT))
	for _, j := range w.Jobs[:100] {
		p.Observe(j)
	}
	if err := p.StoreErr(); err != nil {
		t.Fatal(err)
	}
	probes := w.Jobs[100:120]
	before := make([]Prediction, len(probes))
	for i, j := range probes {
		before[i], _ = p.PredictDetailed(j, 0)
	}
	cats, points := p.Categories(), p.HistorySize()

	bad := *w.Jobs[100]
	bad.RunTime = 0
	p.Observe(&bad)
	if p.StoreErr() == nil {
		t.Fatal("zero run time accepted without a StoreErr")
	}
	if p.Categories() != cats || p.HistorySize() != points {
		t.Fatalf("rejected job changed the history: %d/%d categories, %d/%d points",
			cats, p.Categories(), points, p.HistorySize())
	}
	for i, j := range probes {
		if got, _ := p.PredictDetailed(j, 0); got != before[i] {
			t.Fatalf("job %d: prediction %+v after the rejected observe, %+v before", j.ID, got, before[i])
		}
	}
}

// TestStoreErrSticky verifies WAL failures are always retained by StoreErr
// — with or without a handler installed — and that a handler additionally
// receives them. The sticky error is what lets warm-phase callers stream a
// whole trace and abort on a single check at the end.
func TestStoreErrSticky(t *testing.T) {
	dir := t.TempDir()
	st, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := New([]Template{{Pred: PredMean}}, WithStore(st))
	j := &workload.Job{Nodes: 1, RunTime: 10}
	p.Observe(j)
	if err := p.StoreErr(); err != nil {
		t.Fatal(err)
	}
	// Closing the store makes every subsequent journaled insert fail.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	p.Observe(j)
	if p.StoreErr() == nil {
		t.Fatal("insert into closed store did not surface an error")
	}

	// With a handler installed the error reaches both the handler and the
	// sticky StoreErr (qwaitd's warm-abort check relies on the latter).
	dir2 := t.TempDir()
	st2, err := histstore.Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	var handled error
	q := New([]Template{{Pred: PredMean}}, WithStore(st2),
		WithStoreErrorHandler(func(e error) { handled = e }))
	q.Observe(j)
	if handled != nil || q.StoreErr() != nil {
		t.Fatalf("healthy insert errored: %v / %v", handled, q.StoreErr())
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	q.Observe(j)
	if handled == nil {
		t.Fatal("handler did not receive the insert failure")
	}
	if q.StoreErr() == nil {
		t.Fatal("StoreErr not recorded when a handler is installed")
	}
}
