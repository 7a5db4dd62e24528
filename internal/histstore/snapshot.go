package histstore

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/stats"
)

// Snapshots are line-oriented JSON: a header line, then one line per
// category in sorted key order. The header's lastSeq binds the snapshot to
// a WAL position — recovery loads the snapshot, then replays only WAL
// records with a larger sequence number. Category lines persist the ring
// (points in storage order plus the head index) and both Welford moment
// sets verbatim, so recovery restores the exact live moments rather than
// approximations rebuilt from the surviving points. Snapshot files are
// written to a temporary name, synced, and atomically renamed, so a crash
// mid-snapshot leaves the previous snapshot intact.

const (
	snapshotVersion = 1
	// SnapshotFile and WALFile are the file names inside a store directory.
	SnapshotFile = "snapshot.hist"
	WALFile      = "wal.log"
)

// snapHeader is the first line of a snapshot.
type snapHeader struct {
	Version    int    `json:"version"`
	LastSeq    uint64 `json:"lastSeq"`
	Categories int    `json:"categories"`
}

// snapMoments serializes stats.Moments. JSON numbers round-trip float64
// exactly (Go emits the shortest representation that parses back to the
// same bits), so persisted moments are bit-identical after recovery.
type snapMoments struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// snapPoint mirrors Point; Ratio uses -1 for "absent" (NaN is not valid
// JSON).
type snapPoint struct {
	RunTime float64 `json:"rt"`
	Ratio   float64 `json:"ratio"`
	Nodes   float64 `json:"nodes"`
}

// snapCategory is one category line.
type snapCategory struct {
	Key        string      `json:"key"`
	MaxHistory int         `json:"maxHistory,omitempty"`
	Head       int         `json:"head,omitempty"`
	Abs        snapMoments `json:"abs"`
	Rat        snapMoments `json:"rat"`
	Points     []snapPoint `json:"points"`
}

// Open creates a durable store rooted at dir: it loads the snapshot if one
// exists, replays the WAL tail past it, truncates any torn record left by
// a crash, and arranges for every future Insert to be journaled. The
// directory is created if missing.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := New(opts...)
	s.dir = dir
	lastSeq, err := loadSnapshotFile(filepath.Join(dir, SnapshotFile), s)
	if err != nil {
		return nil, err
	}
	w, _, err := openWAL(filepath.Join(dir, WALFile), s, lastSeq, s.walSync)
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// Dir returns the store's durability directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes the WAL. The store must not be used afterwards.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.close()
}

// Snapshot persists the full category database and compacts the WAL. It
// quiesces writers (every shard's writer mutex is held for the duration —
// lock-free reads still proceed untouched), writes the snapshot to a
// temporary file, fsyncs, renames it over the previous snapshot, and then
// rotates the WAL so it restarts empty at the snapshot's sequence number.
// Every intermediate crash point recovers correctly: the rename is atomic,
// and an un-rotated WAL only holds records the new snapshot already
// covers, which replay skips. Under a trace active in ctx the snapshot is
// recorded as a "histstore.snapshot" child span.
func (s *Store) Snapshot(ctx context.Context) error {
	sp := trace.SpanFromContext(ctx).StartChild("histstore.snapshot")
	if sp == nil {
		return s.snapshot()
	}
	err := s.snapshot()
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

func (s *Store) snapshot() error {
	if s.dir == "" {
		return fmt.Errorf("histstore: memory-only store has no snapshot directory")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}

	// Quiesce writers: with every shard's writer mutex held no Insert can
	// run, so the WAL sequence and the published views are mutually
	// consistent. Readers never take these mutexes and proceed throughout.
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	seq := s.wal.lastSeq()

	path := filepath.Join(s.dir, SnapshotFile)
	if err := writeSnapshotFile(path, s, seq); err != nil {
		return err
	}
	if err := s.wal.rotate(seq); err != nil {
		return fmt.Errorf("histstore: snapshot written but wal compaction failed: %w", err)
	}
	if m != nil {
		m.snapSeconds.Observe(time.Since(start).Seconds())
		s.refreshGauges(m)
	}
	return nil
}

// writeSnapshotFile writes the snapshot to path via temp-file + rename.
// The caller holds every shard's writer mutex, so the published views are
// the definitive state and cannot advance mid-write.
func writeSnapshotFile(path string, s *Store, seq uint64) error {
	var keys []string
	byKey := make(map[string]*Category)
	for i := range s.shards {
		for k, h := range s.shards[i].loadView().cats {
			keys = append(keys, k)
			byKey[k] = h.cur.Load()
		}
	}
	sort.Strings(keys)

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = func() error {
		bw := bufio.NewWriterSize(f, 1<<20)
		enc := json.NewEncoder(bw)
		if err := enc.Encode(snapHeader{
			Version: snapshotVersion, LastSeq: seq, Categories: len(keys),
		}); err != nil {
			return err
		}
		for _, k := range keys {
			if err := enc.Encode(encodeCategory(k, byKey[k])); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if err != nil {
		_ = f.Close()      //lint:allow errdrop the write error is the one worth reporting
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup of a partial snapshot
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup of a partial snapshot
		return err
	}
	return os.Rename(tmp, path)
}

// encodeCategory converts a category to its snapshot line.
func encodeCategory(key string, c *Category) snapCategory {
	st := c.state()
	sc := snapCategory{
		Key:        key,
		MaxHistory: st.MaxHistory,
		Head:       st.Head,
		Abs:        snapMoments{N: st.Abs.N, Mean: st.Abs.Mean, M2: st.Abs.M2},
		Rat:        snapMoments{N: st.Rat.N, Mean: st.Rat.Mean, M2: st.Rat.M2},
		Points:     make([]snapPoint, 0, len(st.Points)),
	}
	for _, p := range st.Points {
		sp := snapPoint{RunTime: p.RunTime, Ratio: p.Ratio, Nodes: p.Nodes}
		if math.IsNaN(sp.Ratio) {
			sp.Ratio = -1
		}
		sc.Points = append(sc.Points, sp)
	}
	return sc
}

// momentsOf converts the wire form back to stats.Moments.
func momentsOf(m snapMoments) stats.Moments {
	return stats.Moments{N: m.N, Mean: m.Mean, M2: m.M2}
}

// loadSnapshotFile loads a snapshot into an empty store. A missing file is
// a cold start (lastSeq 0).
func loadSnapshotFile(path string, s *Store) (lastSeq uint64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close() //lint:allow errdrop read-only file; a close error cannot lose data
	return loadSnapshot(f, s)
}

// loadSnapshot reads a snapshot stream into the store.
func loadSnapshot(r io.Reader, s *Store) (lastSeq uint64, err error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	var hdr snapHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, fmt.Errorf("histstore: snapshot header: %v", err)
	}
	if hdr.Version != snapshotVersion {
		return 0, fmt.Errorf("histstore: unsupported snapshot version %d", hdr.Version)
	}
	for i := 0; i < hdr.Categories; i++ {
		var sc snapCategory
		if err := dec.Decode(&sc); err != nil {
			return 0, fmt.Errorf("histstore: snapshot category %d/%d: %v", i+1, hdr.Categories, err)
		}
		ps := persistState{
			MaxHistory: sc.MaxHistory,
			Head:       sc.Head,
			Points:     make([]Point, 0, len(sc.Points)),
			Abs:        momentsOf(sc.Abs),
			Rat:        momentsOf(sc.Rat),
		}
		for _, sp := range sc.Points {
			p := Point{RunTime: sp.RunTime, Ratio: sp.Ratio, Nodes: sp.Nodes}
			if sp.Ratio < 0 {
				p.Ratio = math.NaN()
			}
			ps.Points = append(ps.Points, p)
		}
		c, err := restoreCategory(ps)
		if err != nil {
			return 0, fmt.Errorf("histstore: snapshot category %q: %v", sc.Key, err)
		}
		s.Put(sc.Key, c)
	}
	return hdr.LastSeq, nil
}
