package histstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// The write-ahead log is a sequence of length-prefixed, checksummed
// records (all integers little-endian):
//
//	uint32 payloadLen | uint32 crc32(payload, IEEE) | payload
//
// The first record is the file header, payload:
//
//	magic "HISTWAL1" (8 bytes) | uint64 baseSeq
//
// Every later record is one insert, payload:
//
//	uint64 seq | uint64 runTimeBits | uint64 ratioBits | uint64 nodesBits |
//	uint32 maxHistory | uint32 keyLen | key bytes
//
// Sequence numbers increase monotonically across the store's lifetime.
// A snapshot records the last sequence it contains; recovery replays only
// records with seq greater than that, which makes the
// snapshot-then-compact sequence crash-safe at every intermediate point
// (a crash between the snapshot rename and the WAL rotation replays an
// old WAL whose records are all covered by the snapshot and skipped).
// Float values travel as raw IEEE-754 bits, so NaN ratios (jobs without
// a user-supplied maximum) survive the round trip exactly.
//
// Replay stops at the first truncated or corrupt record — the torn tail
// of a crash mid-append — and the file is truncated back to the last
// intact record before new appends continue.

const (
	walMagic      = "HISTWAL1"
	walHeaderLen  = 8 + 8           // magic + baseSeq
	walRecFixed   = 8*3 + 8 + 4 + 4 // three float64s + seq + maxHistory + keyLen
	walMaxRecord  = 1 << 20         // sanity bound; category keys are short
	walFrameBytes = 4 + 4           // length + CRC
)

// errWALBroken is returned by appends after a write error: the tail of the
// file is no longer trustworthy, so the log refuses to interleave further
// records after the damage.
var errWALBroken = errors.New("histstore: wal is broken after a write error; reopen the store")

// wal is the append side of the log. Its mutex serializes appends from
// different shards (appends for the same key are already ordered by that
// key's shard lock, so per-category replay order matches apply order) and
// guards the handle swap done by rotation.
type wal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	bw      *bufio.Writer
	seq     uint64 // last assigned sequence number; guarded by mu
	nbytes  int64
	syncAll bool // fsync after every append
	broken  bool // guarded by mu
}

// frame writes one framed record to w.
func frame(w io.Writer, payload []byte) error {
	var hdr [walFrameBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// headerPayload builds the header record payload.
func headerPayload(baseSeq uint64) []byte {
	p := make([]byte, walHeaderLen)
	copy(p, walMagic)
	binary.LittleEndian.PutUint64(p[8:], baseSeq)
	return p
}

// recordPayload builds one insert record payload.
func recordPayload(seq uint64, key []byte, maxHistory int, pt Point) []byte {
	p := make([]byte, walRecFixed+len(key))
	binary.LittleEndian.PutUint64(p[0:], seq)
	binary.LittleEndian.PutUint64(p[8:], math.Float64bits(pt.RunTime))
	binary.LittleEndian.PutUint64(p[16:], math.Float64bits(pt.Ratio))
	binary.LittleEndian.PutUint64(p[24:], math.Float64bits(pt.Nodes))
	binary.LittleEndian.PutUint32(p[32:], uint32(maxHistory))
	binary.LittleEndian.PutUint32(p[36:], uint32(len(key)))
	copy(p[walRecFixed:], key)
	return p
}

// parseRecord decodes an insert record payload. It checks structure
// (lengths) only; validateRecord judges the decoded values.
func parseRecord(p []byte) (seq uint64, key []byte, maxHistory int, pt Point, err error) {
	if len(p) < walRecFixed {
		return 0, nil, 0, Point{}, fmt.Errorf("histstore: wal record too short (%d bytes)", len(p))
	}
	keyLen := binary.LittleEndian.Uint32(p[36:])
	if int(keyLen) != len(p)-walRecFixed {
		return 0, nil, 0, Point{}, fmt.Errorf("histstore: wal record key length %d disagrees with payload", keyLen)
	}
	seq = binary.LittleEndian.Uint64(p[0:])
	pt.RunTime = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
	pt.Ratio = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
	pt.Nodes = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
	maxHistory = int(binary.LittleEndian.Uint32(p[32:]))
	key = p[walRecFixed:]
	return seq, key, maxHistory, pt, nil
}

// validateRecord rejects a decoded wal record whose values no healthy
// writer produces: append only ever journals points that passed
// Point.Validate, non-empty keys, and non-negative history bounds, so a
// record violating any of those is disk corruption that happened to
// parse — replay must not let it poison a live category.
func validateRecord(key []byte, maxHistory int, pt Point) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	if len(key) == 0 {
		return errors.New("histstore: wal record has an empty category key")
	}
	if maxHistory < 0 {
		return fmt.Errorf("histstore: wal record has negative history bound %d", maxHistory)
	}
	return nil
}

// append journals one insert and flushes it to the operating system. The
// assigned sequence number becomes the wal's new last.
func (w *wal) append(key []byte, maxHistory int, pt Point) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return errWALBroken
	}
	seq := w.seq + 1
	payload := recordPayload(seq, key, maxHistory, pt)
	if len(payload) > walMaxRecord {
		// Replay treats any frame longer than walMaxRecord as a torn tail
		// and truncates there, discarding every record after it — so an
		// oversized record (an absurdly long category key) must never be
		// written in the first place. Nothing has hit the file, so the log
		// stays usable.
		return fmt.Errorf("histstore: wal record of %d bytes exceeds the %d-byte bound (category key too long)",
			len(payload), walMaxRecord)
	}
	if err := frame(w.bw, payload); err != nil {
		w.broken = true
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.broken = true
		return err
	}
	if w.syncAll {
		if err := w.f.Sync(); err != nil {
			w.broken = true
			return err
		}
	}
	w.seq = seq
	w.nbytes += int64(walFrameBytes + len(payload))
	return nil
}

// size returns the current log size in bytes.
func (w *wal) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nbytes
}

// lastSeq returns the last assigned sequence number.
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// close flushes, syncs, and closes the log file.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		_ = w.f.Close() //lint:allow errdrop the flush error is the one worth reporting
		return err
	}
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close() //lint:allow errdrop the sync error is the one worth reporting
		return err
	}
	return w.f.Close()
}

// rotate compacts the log after a snapshot covering everything up to and
// including baseSeq: the current file is atomically replaced by a fresh
// one whose header records baseSeq, and appends continue on the new file.
// The caller must have quiesced appends (the store holds every shard lock).
func (w *wal) rotate(baseSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		return err
	}
	nw, err := createWAL(w.path, baseSeq, w.syncAll)
	if err != nil {
		return err
	}
	_ = w.f.Close() //lint:allow errdrop old handle already flushed; its file was just renamed away
	w.f = nw.f
	w.bw = nw.bw
	w.nbytes = nw.nbytes
	if baseSeq > w.seq {
		w.seq = baseSeq
	}
	w.broken = false
	return nil
}

// createWAL writes a fresh log containing only a header with the given
// base sequence, atomically replacing path (write to a temporary file,
// sync, rename).
func createWAL(path string, baseSeq uint64, syncAll bool) (*wal, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if err := frame(f, headerPayload(baseSeq)); err != nil {
		_ = f.Close()      //lint:allow errdrop the frame error is the one worth reporting
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup of a partial log
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()      //lint:allow errdrop the sync error is the one worth reporting
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup of a partial log
		return nil, err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup of a partial log
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return &wal{
		path:    path,
		f:       nf,
		bw:      bufio.NewWriter(nf),
		seq:     baseSeq,
		nbytes:  int64(walFrameBytes + walHeaderLen),
		syncAll: syncAll,
	}, nil
}

// readFrame reads one framed record. It returns io.EOF for a clean end of
// file, errTornRecord for a truncated or corrupt tail (safe to truncate
// away), and any other error verbatim — a genuine I/O failure, where
// nothing says the bytes past it are bad, so the caller must NOT truncate.
var errTornRecord = errors.New("histstore: torn wal record")

// tornOrIO maps short reads (the torn tail a crash mid-append leaves) to
// errTornRecord and passes genuine I/O failures through unchanged.
func tornOrIO(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errTornRecord
	}
	return err
}

func readFrame(r *bufio.Reader) ([]byte, int, error) {
	var hdr [walFrameBytes]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, io.EOF // clean boundary
		}
		return nil, 0, err // a one-byte ReadFull fails with EOF or a real error
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, 0, tornOrIO(err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > walMaxRecord {
		return nil, 0, errTornRecord
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, tornOrIO(err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, 0, errTornRecord
	}
	return payload, walFrameBytes + int(n), nil
}

// openWAL opens (or creates) the log at path, replays every record with
// seq > afterSeq into the store, truncates any torn tail, and returns the
// log positioned for appending. It reports how many records it applied.
func openWAL(path string, s *Store, afterSeq uint64, syncAll bool) (w *wal, applied int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		nw, cerr := createWAL(path, afterSeq, syncAll)
		return nw, 0, cerr
	}
	if err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	hdrPayload, n, err := readFrame(br)
	if err != nil || len(hdrPayload) != walHeaderLen || string(hdrPayload[:8]) != walMagic {
		_ = f.Close() //lint:allow errdrop read-only handle; the header error is the one worth reporting
		return nil, 0, fmt.Errorf("histstore: %s: bad wal header", path)
	}
	goodOffset := int64(n)
	lastSeq := binary.LittleEndian.Uint64(hdrPayload[8:])
	if lastSeq < afterSeq {
		lastSeq = afterSeq
	}
	for {
		payload, n, rerr := readFrame(br)
		if errors.Is(rerr, io.EOF) {
			break
		}
		if errors.Is(rerr, errTornRecord) {
			break // crash tail: recover the clean prefix, drop the rest
		}
		if rerr != nil {
			// A genuine read failure, not evidence of a torn tail:
			// truncating here would discard records that may be intact, so
			// fail the open and leave the file untouched.
			_ = f.Close() //lint:allow errdrop read-only handle; the read error is the one worth reporting
			return nil, 0, fmt.Errorf("histstore: %s: reading wal: %w", path, rerr)
		}
		seq, key, maxHistory, pt, perr := parseRecord(payload)
		if perr != nil {
			break // structurally corrupt: treat like a torn tail
		}
		if verr := validateRecord(key, maxHistory, pt); verr != nil {
			// Parses but could not have been written by a healthy append:
			// semantic corruption, treated exactly like a torn tail so the
			// poisoned suffix never reaches a live category.
			break
		}
		goodOffset += int64(n)
		if seq > lastSeq {
			lastSeq = seq
		}
		if seq <= afterSeq {
			continue // already covered by the snapshot
		}
		sh := s.shardOf(key)
		sh.mu.Lock()
		aerr := s.applyLocked(sh, key, maxHistory, pt)
		sh.mu.Unlock()
		if aerr != nil {
			continue // at the category cap: keep the record, skip the apply
		}
		applied++
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	// Drop the torn tail (if any) so new appends continue from an intact
	// record boundary.
	if err := os.Truncate(path, goodOffset); err != nil {
		return nil, 0, err
	}
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, 0, err
	}
	return &wal{
		path:    path,
		f:       nf,
		bw:      bufio.NewWriter(nf),
		seq:     lastSeq,
		nbytes:  goodOffset,
		syncAll: syncAll,
	}, applied, nil
}
