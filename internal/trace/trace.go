// Package trace is the platform's request-tracing subsystem: a
// low-overhead, allocation-pooled span recorder that attributes one
// sampled request's latency to the explicit stages of the ingest path
// (HTTP receive → admission → JSON decode → shard-lock wait → journal
// append → in-memory apply → group-commit flush → fsync → durability
// ack → response write).
//
// A Tracer hands out pooled *Trace values; the request path stamps
// stage boundaries with Mark (each call attributes the time since the
// previous checkpoint to one stage, so the stage durations tile the
// request's wall time with no double counting) and MarkDurable splits
// the durability wait into flush/fsync/ack using the commit window's
// timestamps. Finish retains the trace — as a plain immutable Record —
// in a lock-striped ring buffer when it was sampled, and in a separate
// always-keep ring when it ran slower than the configured threshold,
// so a flood of fast sampled traces can never evict the slow outliers
// an operator is hunting. The package knows nothing about HTTP or
// metric registries; internal/platform adapts both.
//
// Sampling is deterministic: the decision for the n-th request is a
// pure function of the tracer's seed and n, so a fixed seed replays
// the same capture schedule.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/rng"
)

// Stage identifies one segment of a traced request, in pipeline order.
type Stage uint8

const (
	// StageReceive covers request receive and handler dispatch before
	// the body decode begins.
	StageReceive Stage = iota
	// StageAdmission covers the admission-control gates (drain check,
	// in-flight cap, per-worker token bucket).
	StageAdmission
	// StageDecode covers reading and JSON-decoding the request body.
	StageDecode
	// StageLockWait covers acquiring the world and shard locks that
	// order the mutation.
	StageLockWait
	// StageAppend covers marshaling the journal record and buffering it
	// into the WAL (store.AppendAsync, under the log mutex).
	StageAppend
	// StageApply covers the in-memory state mutation under the shard
	// locks after the journal append.
	StageApply
	// StageFlush covers waiting for the group-commit window to open and
	// flush — from the start of the durability wait to the window's
	// fsync starting.
	StageFlush
	// StageFsync covers the commit window's fsync.
	StageFsync
	// StageAck covers returning from WaitDurable after the window is
	// durable — about zero for the request that led the window, the
	// hand-off of the commit lock for one its window covered — and the
	// whole durability wait when no window timing is available (e.g.
	// in-memory) or when the window was durable before the wait began.
	StageAck
	// StageWrite covers everything after the last explicit checkpoint:
	// response rendering and the write back to the client.
	StageWrite

	// NumStages is the number of stages; Stage values are < NumStages.
	NumStages = int(StageWrite) + 1
)

var stageNames = [NumStages]string{
	"receive", "admission", "decode", "lock_wait", "append",
	"apply", "flush", "fsync", "ack", "write",
}

// String returns the stage's wire name (as used in JSON renderings and
// metric labels).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// stageIndex maps wire names back to stages for JSON decoding.
var stageIndex = func() map[string]Stage {
	m := make(map[string]Stage, NumStages)
	for i, name := range stageNames {
		m[name] = Stage(i)
	}
	return m
}()

// Trace is one in-flight traced request. Values are pooled: obtain
// them from Tracer.Start and hand them back through Tracer.Finish,
// after which the Trace must not be touched. All methods are nil-safe
// so untraced requests flow through the same call sites for free.
type Trace struct {
	id       [16]byte
	route    string
	campaign string
	session  string
	status   int
	start    time.Time
	// end and mark are offsets from start, not wall times: checkpoint
	// stamping uses time.Since(start), whose monotonic fast path reads
	// one clock instead of time.Now's two — marks run on every request
	// whenever tracing is enabled, so each stamp's cost is paid ~8
	// times per ingest request.
	end     time.Duration
	mark    time.Duration // last checkpoint; Mark attributes [mark, now)
	sampled bool
	slow    bool
	stages  [NumStages]time.Duration
}

func (tr *Trace) reset() {
	*tr = Trace{}
}

// ID returns the trace ID as 32 lowercase hex characters.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return hex.EncodeToString(tr.id[:])
}

// Route returns the endpoint name the trace was started for.
func (tr *Trace) Route() string {
	if tr == nil {
		return ""
	}
	return tr.route
}

// SetCampaign records the campaign ID the request touched.
func (tr *Trace) SetCampaign(id string) {
	if tr != nil {
		tr.campaign = id
	}
}

// SetSession records the session ID the request touched.
func (tr *Trace) SetSession(id string) {
	if tr != nil {
		tr.session = id
	}
}

// Mark attributes the time since the previous checkpoint (Start or the
// last Mark/MarkDurable) to stage s and advances the checkpoint, so
// consecutive marks tile the request's wall time.
func (tr *Trace) Mark(s Stage) {
	if tr == nil {
		return
	}
	now := time.Since(tr.start)
	tr.stages[s] += now - tr.mark
	tr.mark = now
}

// MarkDurable attributes the durability wait that ends now — the span
// since the last checkpoint — across the flush/fsync/ack stages using
// the commit window's fsync timestamps. The three stages partition the
// wait exactly: flush is the wait before the window's fsync began,
// fsync the overlap with the fsync itself, and ack the wake-up after
// it. The request that led its window ran that sync itself, so its ack
// is about zero. Zero timestamps (a lookup miss) and a bracket that
// closed before the wait began (another request's window covered the
// record while the caller was still releasing its locks) attribute the
// whole wait to ack.
func (tr *Trace) MarkDurable(fsyncStart, fsyncEnd time.Time) {
	if tr == nil {
		return
	}
	now := time.Since(tr.start)
	waitStart := tr.mark
	tr.mark = now
	if fsyncStart.IsZero() {
		tr.stages[StageAck] += now - waitStart
		return
	}
	fs := fsyncStart.Sub(tr.start)
	fe := fsyncEnd.Sub(tr.start)
	if fe <= waitStart {
		tr.stages[StageAck] += now - waitStart
		return
	}
	clamp := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	if fs < waitStart {
		fs = waitStart
	}
	if fe > now {
		fe = now
	}
	tr.stages[StageFlush] += clamp(fs - waitStart)
	tr.stages[StageFsync] += clamp(fe - fs)
	tr.stages[StageAck] += clamp(now - fe)
}

// Stages returns a copy of the per-stage durations accumulated so far.
func (tr *Trace) Stages() Stages {
	if tr == nil {
		return Stages{}
	}
	return tr.stages
}

// Duration returns the trace's total wall time (only meaningful from
// an OnFinish callback or on a finished Record).
func (tr *Trace) Duration() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.end
}

// Slow reports whether the finished trace crossed the tracer's slow
// threshold.
func (tr *Trace) Slow() bool { return tr != nil && tr.slow }

// record converts the finished trace into its immutable retained form.
func (tr *Trace) record() Record {
	return Record{
		ID:       tr.ID(),
		Route:    tr.route,
		Campaign: tr.campaign,
		Session:  tr.session,
		Status:   tr.status,
		Start:    tr.start,
		Duration: tr.end,
		Sampled:  tr.sampled,
		Slow:     tr.slow,
		Stages:   tr.stages,
	}
}

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the fraction of requests retained in the sampled
	// ring, 0..1. Requests are traced (stamped and observed) whenever
	// the tracer is enabled; the rate controls retention.
	SampleRate float64
	// Slow is the always-keep threshold: a finished trace at least this
	// slow is retained in the dedicated slow ring regardless of the
	// sampling decision. 0 disables slow capture.
	Slow time.Duration
	// Buffer is the retention capacity of each ring (sampled and slow),
	// in traces. 0 selects DefaultBuffer.
	Buffer int
	// Seed seeds the deterministic sampler and trace-ID generator. 0
	// derives a seed from the clock.
	Seed uint64
	// OnFinish, when set, observes every retained trace (sampled or
	// slow) just before retention — the hook internal/platform feeds
	// stage histograms from. Unretained traces are not observed: at
	// production sample rates the fast path pays only checkpoint
	// stamping, never histogram or ring work. The callback must not
	// retain the *Trace.
	OnFinish func(*Trace)
}

// DefaultBuffer is the per-ring trace retention capacity when
// Config.Buffer is zero.
const DefaultBuffer = 256

// Tracer hands out pooled traces, decides sampling, and retains
// finished traces. A nil *Tracer is valid and traces nothing.
type Tracer struct {
	threshold uint64 // sample iff SplitMix64(seed+n) <= threshold
	slow      time.Duration
	seed      uint64
	seq       atomic.Uint64
	onFinish  func(*Trace)
	pool      sync.Pool
	sampled   *ring
	slowRing  *ring
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	buffer := cfg.Buffer
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	var threshold uint64
	switch {
	case cfg.SampleRate >= 1:
		threshold = math.MaxUint64
	case cfg.SampleRate > 0:
		threshold = uint64(cfg.SampleRate * float64(math.MaxUint64))
	}
	t := &Tracer{
		threshold: threshold,
		slow:      cfg.Slow,
		seed:      seed,
		onFinish:  cfg.OnFinish,
		sampled:   newRing(buffer),
		slowRing:  newRing(buffer),
	}
	t.pool.New = func() any { return new(Trace) }
	return t
}

// Parent is an upstream trace identity extracted from a traceparent or
// trace-id header; see Parse.
type Parent struct {
	TraceID [16]byte
	// Sampled carries the upstream sampled flag: a parent that asked to
	// be sampled is retained regardless of the local sampling decision.
	Sampled bool
}

// Start begins a trace for one request on the named route. parent, when
// non-nil, supplies the trace ID (and may force retention via its
// sampled flag). A nil Tracer returns a nil Trace, which every Trace
// method accepts.
func (t *Tracer) Start(route string, parent *Parent) *Trace {
	if t == nil {
		return nil
	}
	n := t.seq.Add(1)
	draw := rng.SplitMix64(t.seed + n)
	tr := t.pool.Get().(*Trace)
	tr.reset()
	tr.route = route
	tr.start = time.Now()
	tr.sampled = draw <= t.threshold && t.threshold > 0
	if parent != nil {
		tr.id = parent.TraceID
		tr.sampled = tr.sampled || parent.Sampled
	} else {
		binary.BigEndian.PutUint64(tr.id[:8], rng.SplitMix64(draw))
		binary.BigEndian.PutUint64(tr.id[8:], rng.SplitMix64(draw+1))
		if tr.id == ([16]byte{}) {
			tr.id[15] = 1
		}
	}
	return tr
}

// Finish completes the trace with the response status: the residual
// time since the last checkpoint is attributed to StageWrite and the
// slow bit is decided. When the trace is retained (slow ring when
// slow, sampled ring when sampled) OnFinish observes it first;
// unretained traces skip both and go straight back to the pool, so
// the per-request cost at low sample rates is stamping alone. The
// caller must not touch tr afterwards.
func (t *Tracer) Finish(tr *Trace, status int) {
	if t == nil || tr == nil {
		return
	}
	now := time.Since(tr.start)
	tr.stages[StageWrite] += now - tr.mark
	tr.mark = now
	tr.end = now
	tr.status = status
	tr.slow = t.slow > 0 && now >= t.slow
	if tr.slow || tr.sampled {
		if t.onFinish != nil {
			t.onFinish(tr)
		}
		if tr.slow {
			t.slowRing.add(tr.record())
		} else {
			t.sampled.add(tr.record())
		}
	}
	t.pool.Put(tr)
}

// Snapshot returns every retained trace — slow and sampled — ordered
// by start time (ties broken by ID), newest state at call time.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	recs := t.slowRing.snapshot()
	recs = append(recs, t.sampled.snapshot()...)
	sortRecords(recs)
	return recs
}

// Get returns the retained trace with the given hex ID.
func (t *Tracer) Get(id string) (Record, bool) {
	if t == nil {
		return Record{}, false
	}
	if rec, ok := t.slowRing.get(id); ok {
		return rec, true
	}
	return t.sampled.get(id)
}
