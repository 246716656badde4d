// Group commit: the one way a record becomes durable.
//
// Appenders buffer their frame under the log mutex (AppendAsync, which
// also assigns the sequence number, so sequence order stays append
// order) and then call WaitDurable. There is no committer goroutine: the
// waiter is the committer. A waiter whose record is not yet durable
// takes commitMu and, unless the window of the previous holder covered
// its record, leads the next window itself — ONE bufio flush plus, with
// Options.Fsync, ONE fdatasync of everything buffered so far — then
// reports the window and acks every sequence it covered by advancing
// the durable watermark (leader/follower group commit, as in LevelDB's
// writer queue or PostgreSQL's XLogFlush). The sync runs outside the log
// mutex, so the next window's appends buffer concurrently with it, and
// their waiters queue on commitMu; that overlap is where the batching
// comes from. A window is flushed as soon as the previous one ends, and
// nothing holds one open to wait for more.
//
// A leader whose segment has reached SegmentBytes rotates it instead of
// syncing: rotate's full fsync makes the window durable. Rotation, like
// Close and WriteSnapshot, happens only under commitMu, so no window
// sync is ever in flight on a file being closed.
//
// commitMu guards durable and ackErr; doc.go gives the lock order.
//
// A flush or fsync error marks the log failed (memory and disk may
// disagree) and poisons every current and future waiter until the log
// is reopened.
package store

import "time"

// WaitDurable blocks until the record with the given sequence number is
// durable per the options — flushed to the OS, and synced when
// Options.Fsync is set — making it durable itself if no earlier
// waiter's window covered it.
func (l *Log) WaitDurable(seq uint64) error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	if l.durable < seq && l.ackErr == nil {
		l.flushGroup()
	}
	switch {
	case l.durable >= seq:
		return nil
	case l.ackErr != nil:
		return l.ackErr
	}
	return errClosed
}

// failAcks latches the first reason no later window will come: a
// commit error, since the record may or may not be on disk and no later
// flush will ever cover it, or errClosed. Every waiter whose record was
// not yet durable gets it. Caller holds commitMu.
func (l *Log) failAcks(err error) {
	if l.ackErr == nil {
		l.ackErr = err
	}
}

// flushGroup leads one window: it makes everything buffered so far
// durable with one flush and at most one sync, reports the window, then
// acks the covered sequences. A full segment rotates under the log
// mutex; otherwise the data sync runs after the mutex is released, so
// appends for the next window proceed during it. Caller holds commitMu
// and has checked that a record past durable is pending.
func (l *Log) flushGroup() {
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return // crashed in tests; the waiter gets errClosed
	}
	if l.failed {
		l.mu.Unlock()
		l.failAcks(errFailed)
		return
	}
	var w Window
	l.sealLocked(&w)
	w.FlushStart = time.Now()
	err := l.w.Flush()
	w.FsyncStart = time.Now()
	full := err == nil && l.size >= l.opts.SegmentBytes
	if full {
		err = l.rotate()
	}
	if err != nil {
		l.failed = true
		l.mu.Unlock()
		l.failAcks(err)
		return
	}
	f := l.f
	l.mu.Unlock()
	if !full && l.opts.Fsync {
		err = syncData(f)
	}
	l.endFsync(&w)
	if err != nil {
		l.mu.Lock()
		l.failed = true
		l.mu.Unlock()
		l.failAcks(err)
		return
	}
	// Report before any covered waiter returns: an acked record has
	// always been observed (and so, for a capturing observer, captured).
	l.report(w)
	l.durable = w.Last
}
