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
// Lock order: commitMu, then mu. commitMu guards durable, ackErr and
// ackClosed.
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
	if l.durable < seq && l.ackErr == nil && !l.ackClosed {
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

// failAcks latches the first commit error: every waiter whose record
// was not yet durable gets it, since the record may or may not be on
// disk and no later flush will ever cover it. Caller holds commitMu.
func (l *Log) failAcks(err error) {
	if l.ackErr == nil {
		l.ackErr = err
	}
}

// flushGroup leads one window: it makes everything buffered so far
// durable with one flush and at most one data sync, reports the window,
// then acks the covered sequences. The sync runs after the log mutex is
// released so appends for the next window proceed during it; rotate
// coordinates through syncWG before closing the file out from under it.
// Caller holds commitMu and has checked that a record past durable is
// pending.
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
	if err := l.w.Flush(); err != nil {
		l.failed = true
		l.mu.Unlock()
		l.failAcks(err)
		return
	}
	f := l.f
	l.syncWG.Add(1)
	l.mu.Unlock()
	err := l.syncWindow(&w, f)
	l.syncWG.Done()
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
