package store

import (
	"os"
	"time"
)

// Window is one durability window: the contiguous run of records one
// flush (and, with Options.Fsync, one data sync) made durable: whatever
// the committer's flush covered, or, for the last window, whatever
// raced the committer's final drain and Close sealed.
//
// The contract, the only one the journal's hook has: the observer is
// called exactly once per window, after the window is durable and
// strictly before any WaitDurable (and so any Append) it covers returns;
// calls are serialized and arrive in sequence order with no gaps, so
// each First is the previous Last+1 — across segment rotations and
// snapshots too — and no window is empty. A window the journal could
// not make durable is never reported: the log latches failed instead.
// A slow observer delays acks, never reorders them.
type Window struct {
	// First and Last are the sequence numbers of the window's first and
	// last record.
	First, Last uint64
	// Bytes is the framed size (header + payload) of the window's
	// records, i.e. what the window added to the segment files.
	Bytes int64
	// FlushStart is when the window's buffered write began;
	// FsyncStart/FsyncEnd bracket its data sync (fdatasync on Linux)
	// and lie inside the window.
	// Without Options.Fsync the bracket is empty (FsyncStart ==
	// FsyncEnd == the flush's completion), so flush/fsync/ack splits
	// still partition a waiter's durability wait.
	FlushStart, FsyncStart, FsyncEnd time.Time
}

// Records is the number of records the window covers.
func (w Window) Records() int { return int(w.Last - w.First + 1) }

// CommitObserver is the journal's one hook (Options.Observer): metrics
// and request-trace timing derive from the windows it receives, and the
// store stays free of both. See Window for the delivery contract.
// WindowDurable runs on the committer goroutine (in Close for the last
// window) while every append it covers waits, so it must not call back
// into the Log.
type CommitObserver interface {
	WindowDurable(Window)
}

// sealLocked closes the window being built — everything appended since
// the previous window — into w and starts the next one. Caller holds
// l.mu and has checked that l.seq > l.sealed.
func (l *Log) sealLocked(w *Window) {
	w.First, w.Last, w.Bytes = l.sealed+1, l.seq, l.pendBytes
	l.sealed, l.pendBytes = l.seq, 0
}

// syncWindow stamps w's fsync bracket, syncing f's data in between when
// Options.Fsync asks for it.
func (l *Log) syncWindow(w *Window, f *os.File) error {
	w.FsyncStart = time.Now()
	w.FsyncEnd = w.FsyncStart
	if !l.opts.Fsync {
		return nil
	}
	err := syncData(f)
	w.FsyncEnd = time.Now()
	return err
}

// syncData makes a window durable: fdatasync on Linux, where segments
// are preallocated and a window does not change the file size, fsync
// elsewhere (sync_*.go). A variable so tests can kill the log between
// a window's write and its sync.
var syncData = datasync

// report hands one durable window to the observer, if any. Every path
// that seals a window calls it once, before acking the window.
func (l *Log) report(w Window) {
	if l.opts.Observer != nil {
		l.opts.Observer.WindowDurable(w)
	}
}
