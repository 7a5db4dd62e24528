package histstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fill streams a deterministic workload of inserts into the store,
// exercising bounded and unbounded categories and NaN ratios.
func fill(t *testing.T, s *Store, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		key := fmt.Appendf(nil, "t%d|u%d", rng.Intn(3), rng.Intn(7))
		maxHist := 0
		if rng.Intn(2) == 0 {
			maxHist = 8
		}
		rt := float64(1 + rng.Intn(10000))
		maxRT := 0.0
		if rng.Intn(4) > 0 {
			maxRT = rt * float64(1+rng.Intn(3))
		}
		if err := s.Insert(key, maxHist, pt(rt, maxRT, float64(1+rng.Intn(64)))); err != nil {
			t.Fatal(err)
		}
	}
}

// mustEqualStores compares every category of two stores bit-for-bit:
// sizes, ring layout, points, and both Welford moment sets.
func mustEqualStores(t *testing.T, want, got *Store) {
	t.Helper()
	if want.Categories() != got.Categories() || want.Points() != got.Points() {
		t.Fatalf("store shape: %d/%d categories, %d/%d points",
			want.Categories(), got.Categories(), want.Points(), got.Points())
	}
	want.ForEach(func(key string, wc *Category) {
		gc, _, ok := got.Get([]byte(key))
		if !ok {
			t.Fatalf("key %s missing after recovery", key)
		}
		ws, gs := wc.state(), gc.state()
		if ws.MaxHistory != gs.MaxHistory || ws.Head != gs.Head || len(ws.Points) != len(gs.Points) {
			t.Fatalf("key %s: ring mismatch %+v vs %+v", key, ws, gs)
		}
		for i := range ws.Points {
			if !samePoint(ws.Points[i], gs.Points[i]) {
				t.Fatalf("key %s point %d: %+v vs %+v", key, i, ws.Points[i], gs.Points[i])
			}
		}
		if ws.Abs != gs.Abs {
			t.Fatalf("key %s: abs moments %+v vs %+v", key, ws.Abs, gs.Abs)
		}
		if ws.Rat.N != gs.Rat.N ||
			math.Float64bits(ws.Rat.Mean) != math.Float64bits(gs.Rat.Mean) ||
			math.Float64bits(ws.Rat.M2) != math.Float64bits(gs.Rat.M2) {
			t.Fatalf("key %s: rat moments %+v vs %+v", key, ws.Rat, gs.Rat)
		}
	})
}

func samePoint(a, b Point) bool {
	return math.Float64bits(a.RunTime) == math.Float64bits(b.RunTime) &&
		math.Float64bits(a.Ratio) == math.Float64bits(b.Ratio) &&
		math.Float64bits(a.Nodes) == math.Float64bits(b.Nodes)
}

// TestRecoveryFromWALOnly simulates a kill before any snapshot: the store
// is abandoned without Close or Snapshot and reopened from the WAL alone.
func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, live, 1, 500)
	// Simulated kill: no Snapshot, no Close — recovery sees only the WAL.
	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, recovered)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverySnapshotPlusWAL is the acceptance scenario: snapshot
// mid-stream, more inserts (including evictions on bounded categories),
// kill, recover = snapshot + WAL replay, and every category's moments are
// bit-identical to the live store's.
func TestRecoverySnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, live, 2, 600)
	if err := live.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fill(t, live, 3, 400) // the WAL tail past the snapshot
	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, recovered)

	// Recovery is idempotent: a second reopen (after the first one
	// truncated/kept the same files) yields the same state again.
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, again)
}

// TestSnapshotCompactsWAL verifies the WAL restarts (nearly) empty after a
// snapshot and that a store recovered from snapshot alone matches.
func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, live, 4, 800)
	before, err := os.Stat(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() || after.Size() != walFrameBytes+walHeaderLen {
		t.Fatalf("wal not compacted: %d -> %d bytes", before.Size(), after.Size())
	}
	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, recovered)

	// Inserts after compaction land in the fresh WAL and still recover.
	fill(t, live, 5, 100)
	recovered2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, recovered2)
}

// TestRecoveryTornTail corrupts the WAL the way a crash mid-append does —
// a partial record at the end — and verifies the clean prefix recovers and
// the tail is dropped for good.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, live, 6, 50)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALFile)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-7] },
		"bitflip":   func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b },
		"garbage":   func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe) },
	} {
		t.Run(name, func(t *testing.T) {
			damaged := mutate(append([]byte(nil), intact...))
			if err := os.WriteFile(walPath, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, err := Open(dir)
			if err != nil {
				t.Fatalf("torn tail must not fail recovery: %v", err)
			}
			// All but the damaged final record(s) survive.
			if recovered.Points() == 0 || recovered.Points() >= live.Points()+1 {
				t.Fatalf("recovered %d points from a %d-point log", recovered.Points(), live.Points())
			}
			// The file was truncated back to intact records: reopening
			// yields the identical store.
			again, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualStores(t, recovered, again)
		})
	}
}

// TestRecoverySkipsRecordsCoveredBySnapshot reproduces the crash window
// between the snapshot rename and the WAL rotation: the snapshot exists
// but the WAL still holds every pre-snapshot record. Replay must skip them
// or categories would double-count.
func TestRecoverySkipsRecordsCoveredBySnapshot(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, live, 7, 300)
	// Preserve the pre-snapshot WAL, snapshot, then put the old WAL back —
	// exactly the on-disk state of a crash before rotation.
	walPath := filepath.Join(dir, WALFile)
	oldWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, recovered)
}

func TestSnapshotOnMemoryOnlyStoreFails(t *testing.T) {
	s := New()
	if err := s.Snapshot(); err == nil {
		t.Fatal("memory-only snapshot must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("memory-only close: %v", err)
	}
	if err := s.Insert([]byte("k"), 0, pt(1, 0, 1)); err != nil {
		t.Fatalf("memory-only insert: %v", err)
	}
}

func TestOpenRejectsCorruptSnapshotHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt snapshot header accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile),
		[]byte(`{"version":99,"lastSeq":0,"categories":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("unknown snapshot version accepted")
	}
}

func TestOpenRejectsBadWALHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("bad wal header accepted")
	}
}

// TestDurableConcurrentInsertThenRecover runs concurrent durable inserts
// (WAL appends interleaving across shards) and verifies recovery matches
// the live store exactly.
func TestDurableConcurrentInsertThenRecover(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(40 + w)))
			for i := 0; i < 300; i++ {
				key := fmt.Appendf(nil, "w%d-k%d", w, rng.Intn(5)) // writer-private keys: deterministic per-key order
				if err := live.Insert(key, 16, pt(float64(1+rng.Intn(5000)), 0, 2)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, recovered)
}

// TestDurableInsertRejectsOversizedKey: a record that would exceed the
// replay size bound must be refused at append time — if it were written,
// recovery would misread it as a torn tail and truncate away every record
// after it. The log must stay usable for normal keys afterwards.
func TestDurableInsertRejectsOversizedKey(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Insert([]byte("before"), 0, pt(100, 200, 4)); err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte("k"), walMaxRecord)
	if err := live.Insert(huge, 0, pt(100, 200, 4)); err == nil {
		t.Fatal("oversized key accepted")
	}
	if live.Categories() != 1 {
		t.Fatalf("rejected key mutated the store: %d categories", live.Categories())
	}
	if err := live.Insert([]byte("after"), 0, pt(50, 0, 2)); err != nil {
		t.Fatalf("log unusable after oversized-key rejection: %v", err)
	}
	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, live, recovered)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableInsertRejectsInvalidPointBeforeWAL: an invalid point must be
// rejected before it reaches the journal, so the next boot replays cleanly
// instead of failing on data the write path accepted.
func TestDurableInsertRejectsInvalidPointBeforeWAL(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Insert([]byte("good"), 0, pt(100, 200, 4)); err != nil {
		t.Fatal(err)
	}
	if err := live.Insert([]byte("bad"), 0, Point{RunTime: 10, Ratio: math.NaN(), Nodes: 0}); err == nil {
		t.Fatal("invalid point accepted")
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed after rejected insert: %v", err)
	}
	if recovered.Categories() != 1 || recovered.Points() != 1 {
		t.Fatalf("recovered %d categories / %d points, want 1/1",
			recovered.Categories(), recovered.Points())
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// failingReader serves its data then fails with a non-EOF error, simulating
// a device-level read fault in the middle of a WAL.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadFrameDistinguishesIOErrors: only a genuine torn tail (short read
// or checksum mismatch) maps to errTornRecord — the signal openWAL is
// allowed to truncate on. A real I/O error must surface as itself so
// recovery fails instead of silently discarding intact records past it.
func TestReadFrameDistinguishesIOErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := frame(&buf, recordPayload(1, []byte("k"), 0, pt(10, 0, 1))); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	errDisk := errors.New("simulated disk fault")
	// Fault at a record boundary: the first frame reads fine, the fault
	// surfaces verbatim on the next read.
	r := bufio.NewReader(&failingReader{data: whole, err: errDisk})
	if _, _, err := readFrame(r); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	if _, _, err := readFrame(r); !errors.Is(err, errDisk) || errors.Is(err, errTornRecord) {
		t.Fatalf("disk fault at boundary surfaced as %v", err)
	}
	// Fault mid-frame: still the real error, not a torn tail.
	r = bufio.NewReader(&failingReader{data: whole[:len(whole)/2], err: errDisk})
	if _, _, err := readFrame(r); !errors.Is(err, errDisk) || errors.Is(err, errTornRecord) {
		t.Fatalf("disk fault mid-frame surfaced as %v", err)
	}
	// A short file (EOF mid-frame) is the torn tail truncation exists for.
	r = bufio.NewReader(bytes.NewReader(whole[:len(whole)/2]))
	if _, _, err := readFrame(r); !errors.Is(err, errTornRecord) {
		t.Fatalf("truncated frame surfaced as %v, want errTornRecord", err)
	}
	// A corrupt payload (checksum mismatch) is likewise a torn tail.
	mangled := append([]byte(nil), whole...)
	mangled[len(mangled)-1] ^= 0xff
	r = bufio.NewReader(bytes.NewReader(mangled))
	if _, _, err := readFrame(r); !errors.Is(err, errTornRecord) {
		t.Fatalf("corrupt frame surfaced as %v, want errTornRecord", err)
	}
}
