// Group commit: the one way a record becomes durable.
//
// Appenders buffer their frame under the log mutex (AppendAsync, which
// also assigns the sequence number, so sequence order stays append
// order) and then block in WaitDurable. A single committer goroutine
// watches for pending frames and, per flush window, performs ONE
// bufio flush plus — with Options.Fsync — ONE fdatasync of the window,
// then acks every sequence the window covered by advancing the durable
// watermark. The sync runs outside the log mutex, so the next window's
// appends buffer concurrently with it; that overlap is where the
// batching comes from. The committer flushes as soon as it is free and
// never holds a window open to wait for more.
//
// A flush or fsync error marks the log failed (memory and disk may
// disagree) and poisons every current and future waiter until the log
// is reopened.
package store

import "time"

// WaitDurable blocks until the record with the given sequence number is
// durable per the options — flushed to the OS, and synced when
// Options.Fsync is set.
func (l *Log) WaitDurable(seq uint64) error {
	l.ackMu.Lock()
	defer l.ackMu.Unlock()
	for l.durable < seq && l.ackErr == nil && !l.ackClosed {
		l.ackCond.Wait()
	}
	if l.durable >= seq {
		return nil
	}
	if l.ackErr != nil {
		return l.ackErr
	}
	return errClosed
}

// markDurable advances the watermark and wakes every waiter it covers.
func (l *Log) markDurable(seq uint64) {
	l.ackMu.Lock()
	if seq > l.durable {
		l.durable = seq
		l.ackCond.Broadcast()
	}
	l.ackMu.Unlock()
}

// failAcks latches the first commit-pipeline error and wakes every
// waiter: their records may or may not be on disk, and no later flush
// will ever cover them.
func (l *Log) failAcks(err error) {
	l.ackMu.Lock()
	if l.ackErr == nil {
		l.ackErr = err
	}
	l.ackCond.Broadcast()
	l.ackMu.Unlock()
}

// commitLoop is the committer goroutine: one iteration per flush
// window. On shutdown it drains — a final flush acks everything
// buffered before Close closed stopc.
func (l *Log) commitLoop() {
	defer close(l.done)
	for {
		select {
		case <-l.stopc:
			l.flushGroup()
			return
		case <-l.kick:
		}
		l.flushGroup()
	}
}

// flushGroup makes everything buffered so far durable with one flush
// and at most one data sync, reports the window, then acks the covered
// sequences. The sync runs after the log mutex is released so appends
// for the next window proceed during it; rotate coordinates through
// syncWG before closing the file out from under it.
func (l *Log) flushGroup() {
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return // closed (or crashed in tests); Close settles the acks
	}
	if l.failed {
		l.mu.Unlock()
		l.failAcks(errFailed)
		return
	}
	if l.seq == l.sealed {
		// A kick that coalesced with the previous flush: nothing is
		// pending, so there is no window and nothing to fsync.
		l.mu.Unlock()
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
	// Report before any covered waiter wakes: an acked record has
	// always been observed (and so, for a capturing observer, captured).
	l.report(w)
	l.markDurable(w.Last)
}
