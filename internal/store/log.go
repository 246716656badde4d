package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	recordHeader = 8 // 4-byte length + 4-byte CRC32-C

	// keepSnapshots is how many snapshots compaction retains. A segment
	// is deleted once the oldest retained snapshot covers it, so a
	// corrupt newest snapshot can always fall back one version.
	keepSnapshots = 2

	// MaxRecordBytes bounds one journal record. Larger appends fail,
	// and larger lengths found on disk are treated as torn frames.
	MaxRecordBytes = 256 << 20
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	errClosed = errors.New("store: log closed")
	errFailed = errors.New("store: log failed; reopen to recover")
	errEmpty  = errors.New("store: empty record; a zero-length frame marks the end of a segment's data")
)

// Options tunes a Log.
type Options struct {
	// SegmentBytes is the rotation threshold for WAL segments
	// (default 8 MiB), and what each new segment is preallocated to. The
	// first window led once the active segment has reached it rotates
	// the segment, so the window that crosses it writes past the
	// preallocation.
	SegmentBytes int64
	// Fsync adds an fdatasync to every flush window before the window is
	// acked. Off by default: a window is acked once it is flushed to the
	// OS, which survives a process crash (the OS holds the bytes), just
	// not a kernel crash or power loss mid-window.
	Fsync bool
	// GroupCommit is ignored.
	//
	// Deprecated: every append rides the group-commit pipeline
	// (group.go). The field remains only because the bench module sets
	// it.
	GroupCommit bool
	// Observer receives every durability window once it is durable and
	// before it is acked — the journal's one hook, from which callers
	// derive metrics and request-trace timing. Nil disables it; see
	// Window for the contract.
	Observer CommitObserver
}

// Log is a durable append-only journal. All methods are safe for
// concurrent use; AppendAsync order defines sequence order.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	size int64              // bytes written to the active segment: where the next frame goes
	seq  uint64             // last assigned sequence number
	hdr  [recordHeader]byte // appendLocked's frame header: a local would escape per append

	// failed latches after an append error that may have left bytes in
	// the active segment: the in-memory accounting no longer matches the
	// file, so further appends could land after a half-written frame and
	// turn a recoverable torn tail into mid-journal corruption. Reopening
	// re-derives the truth from disk.
	failed bool

	// The window being built for Options.Observer (see observer.go):
	// sealed is the last sequence a reported window covered, pendBytes
	// the framed bytes appended since. Guarded by mu; sealed by
	// flushGroup, or by Close for the last window.
	sealed    uint64
	pendBytes int64

	snapSeq    uint64 // newest snapshot's sequence
	loadedSeq  uint64 // snapshot found at Open time
	loadedData []byte
	loadedOK   bool

	// Group commit (group.go): AppendAsync buffers frames under mu and
	// returns; a waiter holding commitMu turns everything buffered since
	// the last flush into one write + at most one sync and acks the
	// whole window by advancing durable. commitMu is taken before mu
	// (doc.go) and guards the two fields below it.
	commitMu sync.Mutex
	durable  uint64 // highest sequence a window has made durable
	ackErr   error  // why no later window will come: a commit failure, or errClosed
}

// Open opens (creating if needed) the journal in dir, loads the newest
// valid snapshot, and recovers the segment chain: the newest segment's
// zero or torn tail, if any, is truncated and the segment preallocated
// again; corruption in any other segment past the snapshot is an error.
// A segment the snapshot covers whole is not read.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.loadSnapshot()
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.sealed = l.seq  // windows cover appends, not what recovery found
	l.durable = l.seq // everything recovered from disk is durable
	return l, nil
}

// Snapshot returns the snapshot payload loaded at Open time, if any,
// and the sequence number it covers. The payload is released after
// Replay — read it before replaying.
func (l *Log) Snapshot() (seq uint64, data []byte, ok bool) {
	return l.loadedSeq, l.loadedData, l.loadedOK
}

// Seq returns the last assigned sequence number (0 before any append).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SnapshotSeq returns the sequence covered by the newest snapshot.
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// AppendAsync frames payload into the active segment and returns its
// sequence number without waiting for durability; the caller pairs the
// sequence with WaitDurable for the ack. payload is copied before
// AppendAsync returns, so the caller may reuse it. Nothing runs in the
// background: a record nobody waits on stays in the write buffer until
// the next WaitDurable (for it or any later record), a snapshot or Close
// flushes it.
func (l *Log) AppendAsync(payload []byte) (uint64, error) {
	switch {
	case len(payload) == 0:
		return 0, errEmpty
	case len(payload) > MaxRecordBytes:
		return 0, fmt.Errorf("store: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(payload)
}

// appendLocked writes one frame into the active segment's buffer; a
// waiter's window makes it durable, and rotates the segment if it is
// full. Caller holds l.mu.
func (l *Log) appendLocked(payload []byte) (uint64, error) {
	if l.f == nil {
		return 0, errClosed
	}
	if l.failed {
		return 0, errFailed
	}
	putFrameHeader(l.hdr[:], payload)
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		l.failed = true
		return 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.failed = true
		return 0, err
	}
	frame := int64(recordHeader + len(payload))
	l.size += frame
	l.seq++
	l.pendBytes += frame
	return l.seq, nil
}

// Replay streams every record with a sequence past the loaded snapshot
// through fn, in sequence order. Call it after Open and before the
// first AppendAsync. payload is valid only until fn returns: each record
// is read into the same buffer, so fn copies what it keeps. A segment
// the loaded snapshot covers whole is not read: WriteSnapshot rotates,
// so no segment holds records on both sides of a snapshot, and the
// segments before the snapshot's rotation are those a successor starts
// at or before the first record past it.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listFiles(l.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for i, sf := range segs {
		if i+1 < len(segs) && segs[i+1].seq <= l.loadedSeq+1 {
			continue
		}
		f, err := os.Open(sf.path)
		if err != nil {
			return err
		}
		_, _, _, err = scanSegment(f, sf.seq, func(seq uint64, payload []byte) error {
			if seq <= l.loadedSeq {
				return nil
			}
			return fn(seq, payload)
		})
		f.Close()
		if err != nil {
			return err
		}
	}
	// Recovery is done with the snapshot payload; keeping it pinned
	// would double the resident cost of large states for the whole
	// process lifetime.
	l.loadedData = nil
	return nil
}

// WriteSnapshot atomically persists data as the state through the last
// appended record, rotates the active segment, and compacts: all but
// the newest keepSnapshots snapshots are deleted, along with every
// segment the oldest retained snapshot fully covers. It takes commitMu
// first, like every rotation, so it waits out a leader's window sync.
func (l *Log) WriteSnapshot(data []byte) error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	if l.failed {
		// A failed log's seq may undercount what is on disk; a snapshot
		// stamped with it would hide durable records from replay.
		return errFailed
	}
	final := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", snapPrefix, l.seq, snapSuffix))
	tmp := final + ".tmp"
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(data, castagnoli))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(hdr[:]); err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		// The rename may not survive a crash; leave snapSeq alone so the
		// journal stays authoritative and the next snapshot retries.
		return err
	}
	l.snapSeq = l.seq
	if l.size > 0 {
		if err := l.rotate(); err != nil {
			// rotate may have closed the old segment before failing, so
			// l.f can no longer be trusted: latch, exactly like a
			// leader's rotation does.
			l.failed = true
			return err
		}
	}
	return l.compact()
}

// Close waits out an in-flight window, then flushes the active segment,
// trims its preallocated tail, fsyncs and closes it; appends no waiter
// made durable yet form one last window, reported and acked here.
// Further appends fail, and a later waiter whose record no window acked
// gets the failure that latched first, or else errClosed.
func (l *Log) Close() error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return nil
	}
	var w Window
	tail := l.seq > l.sealed && !l.failed
	if tail {
		l.sealLocked(&w)
	}
	w.FlushStart = time.Now()
	err := l.w.Flush()
	if err == nil && !l.failed {
		// A failed log's size no longer describes the file; Open trims
		// whatever the failure left.
		err = l.f.Truncate(l.size)
	}
	// A clean shutdown syncs regardless, but the tail's bracket follows
	// the options like every other window's.
	w.FsyncStart = time.Now()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	l.endFsync(&w)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.w = nil, nil
	l.mu.Unlock()
	// Ack the tail; every later waiter finds the log closed. A failed log
	// acks nothing: an earlier fsync failure means some window may never
	// have reached disk, and a later Sync succeeding does not bring those
	// pages back — the reopened journal is the only truth.
	if err == nil && tail {
		l.report(w)
		l.durable = w.Last
	}
	if err != nil {
		l.failAcks(err)
	}
	l.failAcks(errClosed)
	return err
}

// --- recovery ---

func (l *Log) loadSnapshot() {
	snaps, err := listFiles(l.dir, snapPrefix, snapSuffix)
	if err != nil {
		return
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := readSnapshotFile(snaps[i].path)
		if err != nil {
			continue // corrupt or torn: fall back to the previous one
		}
		l.loadedSeq, l.loadedData, l.loadedOK = snaps[i].seq, data, true
		l.snapSeq = snaps[i].seq
		return
	}
}

func readSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("store: snapshot %s truncated", filepath.Base(path))
	}
	if crc32.Checksum(raw[4:], castagnoli) != binary.LittleEndian.Uint32(raw[:4]) {
		return nil, fmt.Errorf("store: snapshot %s checksum mismatch", filepath.Base(path))
	}
	return raw[4:], nil
}

func (l *Log) recover() error {
	segs, err := listFiles(l.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		l.seq = l.snapSeq
		return l.createSegment(l.seq + 1)
	}
	// The chain must reach back to the snapshot (or to seq 1 with no
	// snapshot); a later start means the oldest segment was lost.
	if segs[0].seq > l.snapSeq+1 {
		return fmt.Errorf("store: journal gap: oldest segment %s begins at seq %d, want <= %d",
			filepath.Base(segs[0].path), segs[0].seq, l.snapSeq+1)
	}
	expect := segs[0].seq
	for i, sf := range segs {
		if sf.seq != expect {
			return fmt.Errorf("store: journal gap: %s begins at seq %d, want %d",
				filepath.Base(sf.path), sf.seq, expect)
		}
		// A segment the loaded snapshot covers whole, by Replay's rule, is
		// not read: no replay needs it, and its successor's name says where
		// it ends. It is read, and checked, by an Open that falls back to an
		// older snapshot.
		if i+1 < len(segs) && segs[i+1].seq <= l.loadedSeq+1 {
			expect = segs[i+1].seq
			continue
		}
		f, err := os.Open(sf.path)
		if err != nil {
			return err
		}
		count, validSize, tail, err := scanSegment(f, sf.seq, nil)
		f.Close()
		if err != nil {
			return err
		}
		last := i == len(segs)-1
		if tail {
			// Rotation and Close trim a segment to its data, so only the
			// newest one may end in zeros or a torn frame.
			if !last {
				return fmt.Errorf("store: %s corrupt mid-journal", filepath.Base(sf.path))
			}
			if err := os.Truncate(sf.path, validSize); err != nil {
				return err
			}
		}
		expect = sf.seq + uint64(count)
		if last {
			l.seq = expect - 1
			l.size = validSize
		}
	}
	if l.seq < l.snapSeq {
		// The snapshot outlives every surviving record (segments were
		// removed by hand). The stale segments are fully covered by the
		// snapshot; drop them so the chain restarts past it and appends
		// cannot reuse covered sequences.
		for _, sf := range segs {
			os.Remove(sf.path)
		}
		l.seq = l.snapSeq
		return l.createSegment(l.seq + 1)
	}
	// Appends continue in place at the end of the data, inside a
	// preallocated tail like a fresh segment's.
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Seek(l.size, io.SeekStart); err == nil {
		err = preallocate(f, l.opts.SegmentBytes)
	}
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.w = f, bufio.NewWriter(f)
	return nil
}

// --- record framing ---
//
// One frame is a 4-byte little-endian payload length, a 4-byte CRC32-C
// of the payload, and the payload bytes. putFrameHeader, AppendRecord
// and DecodeRecord are the single encode/decode pair for that layout,
// and scanSegment the single walker over a run of frames — the append
// path, recovery, the fuzz targets and data-file callers use them.
//
// A frame's payload is never empty. Segments are preallocated, so the
// bytes past the last frame read as zero, and a zero length is where
// the written data ends; {len 0, crc 0} is also the encoding of an
// empty payload, which is why AppendAsync refuses one.

// putFrameHeader fills the recordHeader-byte frame header for payload.
func putFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
}

// AppendRecord frames payload onto dst and returns the extended slice.
func AppendRecord(dst, payload []byte) []byte {
	var hdr [recordHeader]byte
	putFrameHeader(hdr[:], payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameSize returns the payload length a frame header declares and
// whether it is plausible: a zero length is the end of the data, and one
// past MaxRecordBytes is torn.
func frameSize(hdr []byte) (int, bool) {
	size := binary.LittleEndian.Uint32(hdr[0:4])
	return int(size), size != 0 && int64(size) <= MaxRecordBytes
}

// DecodeRecord parses the first frame of b. It returns the payload (a
// subslice of b, not a copy), the frame's total byte length, and whether
// the frame is valid; an undersized buffer, a zero length (the end of
// the data), an implausible length or a checksum mismatch all report
// ok=false.
func DecodeRecord(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < recordHeader {
		return nil, 0, false
	}
	size, ok := frameSize(b)
	if !ok || size > len(b)-recordHeader {
		return nil, 0, false
	}
	payload = b[recordHeader : recordHeader+size]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, false
	}
	return payload, recordHeader + size, true
}

// scanSegment walks the frames r holds — a segment file in recovery, a
// buffer in the fuzz targets — calling fn (when non-nil) per valid
// record, one frame in memory at a time (a segment can legally hold a
// single record of up to MaxRecordBytes past its rotation threshold, so
// buffering whole segments is not an option). Every frame is read into
// one buffer, grown to the largest, so a payload is valid only until fn
// returns. It reports how many valid
// records r holds, the byte length of the valid prefix, and whether
// bytes follow it: a tail that is zeros (preallocated, never written) or
// a torn frame.
func scanSegment(r io.Reader, base uint64, fn func(seq uint64, payload []byte) error) (count int, validSize int64, tail bool, err error) {
	br := bufio.NewReader(r)
	var hdr [recordHeader]byte
	var frame []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// A partial header is a torn tail; a clean EOF is the end.
			return count, validSize, !errors.Is(err, io.EOF), nil
		}
		size, ok := frameSize(hdr[:])
		if !ok {
			return count, validSize, true, nil
		}
		frame = slices.Grow(frame[:0], recordHeader+size)[:recordHeader+size]
		copy(frame, hdr[:])
		if _, err := io.ReadFull(br, frame[recordHeader:]); err != nil {
			return count, validSize, true, nil
		}
		payload, n, ok := DecodeRecord(frame)
		if !ok {
			return count, validSize, true, nil
		}
		if fn != nil {
			if err := fn(base+uint64(count), payload); err != nil {
				return count, validSize, false, err
			}
		}
		count++
		validSize += int64(n)
	}
}

// --- segment management ---

// createSegment starts the segment whose first record is base,
// preallocated to SegmentBytes so windows write inside it.
func (l *Log) createSegment(base uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err = preallocate(f, l.opts.SegmentBytes); err == nil {
		err = syncDir(l.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.w = f, bufio.NewWriter(f)
	l.size = 0
	return nil
}

// rotate trims the active segment to its data and makes that durable
// before the next segment exists, so only the newest segment can ever
// end in zeros. Caller holds commitMu and mu, so no window sync is in
// flight on the file it closes.
func (l *Log) rotate() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.createSegment(l.seq + 1)
}

func (l *Log) compact() error {
	snaps, err := listFiles(l.dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) == 0 {
		return err
	}
	keepFrom := len(snaps) - keepSnapshots
	if keepFrom < 0 {
		keepFrom = 0
	}
	for _, sf := range snaps[:keepFrom] {
		os.Remove(sf.path)
	}
	oldest := snaps[keepFrom].seq
	segs, err := listFiles(l.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for i := 0; i < len(segs)-1; i++ {
		// Segment i spans [seq_i, seq_{i+1}-1]; delete it once the
		// oldest retained snapshot covers that whole range.
		if segs[i+1].seq <= oldest+1 {
			os.Remove(segs[i].path)
		}
	}
	return nil
}

// --- directory helpers ---

type seqFile struct {
	path string
	seq  uint64
}

func listFiles(dir, prefix, suffix string) ([]seqFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []seqFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
		if err != nil {
			continue
		}
		out = append(out, seqFile{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// syncDir fsyncs a directory so renames and creates survive a crash.
// A failure is propagated to the caller — swallowing it would report a
// snapshot or segment as durable when its directory entry is not —
// except for filesystems that cannot fsync a directory at all
// (ENOTSUP/EINVAL): that is an unavailable guarantee, not a failed
// write, and refusing to run there would regress the old best-effort
// behavior. A variable so tests can inject failures.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}
