// Package simtime provides a deterministic discrete-event scheduler and
// virtual clock. All Eyeorg subsystems (network emulation, browser engine,
// participant behaviour) run in simulated time so that campaigns involving
// thousands of page loads and participants execute in milliseconds of wall
// time and are exactly reproducible from a seed.
package simtime

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is an instant in simulated time, expressed as an offset from the
// start of the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	index    int // heap index; -1 once removed
	canceled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	e.canceled = true
	e.fn = nil
}

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Scheduler is a discrete-event simulator. Events scheduled for the same
// instant fire in scheduling order (FIFO), which keeps runs deterministic.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now    Time
	seq    uint64
	queue  eventHeap
	fired  uint64
	halted bool
}

// NewScheduler returns a scheduler whose clock starts at the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// EventsFired reports how many events have executed so far.
func (s *Scheduler) EventsFired() uint64 { return s.fired }

// Pending reports how many events are scheduled but have not fired.
func (s *Scheduler) Pending() int {
	n := 0
	for _, e := range s.queue {
		if !e.canceled {
			n++
		}
	}
	return n
}

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) panics: it would silently reorder causality, which is always a bug in
// the caller.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Run executes events until the queue is empty or Halt is called, and
// returns the final simulated time.
func (s *Scheduler) Run() Time {
	s.halted = false
	for len(s.queue) > 0 && !s.halted {
		s.step()
	}
	return s.now
}

// RunUntil executes events up to and including time t and then advances the
// clock to exactly t. Events scheduled after t remain pending.
func (s *Scheduler) RunUntil(t Time) Time {
	s.halted = false
	for len(s.queue) > 0 && !s.halted && s.queue[0].at <= t {
		s.step()
	}
	if s.now < t {
		s.now = t
	}
	return s.now
}

// Halt stops Run or RunUntil after the currently executing event returns.
func (s *Scheduler) Halt() { s.halted = true }

// step pops and fires the earliest event.
func (s *Scheduler) step() {
	e := heap.Pop(&s.queue).(*Event)
	if e.canceled {
		return
	}
	if e.at < s.now {
		panic("simtime: event queue went backwards")
	}
	s.now = e.at
	fn := e.fn
	e.fn = nil
	s.fired++
	fn()
}

// eventHeap orders events by (time, sequence).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
