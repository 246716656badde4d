// Persistence: the journal event schema, the op table whose rows apply a
// record for a live request and for crash recovery alike, and the state
// documents, in which a campaign's section is the one form of its state.
//
// A row checks its record, buffers it into the journal and applies it
// inside one shard-locked critical section, so journal order always
// matches memory order. The durability wait (the journal's group-commit
// flush window) is Apply's caller's, after every lock is released, so
// concurrent ops on one shard never serialize behind the disk. Recover
// applies each journaled record through the same row, so the rebuilt
// state is field-for-field the state the journal order produced —
// including the order sessions complete per campaign, which makes
// /results byte-identical after a restart (the analytics fold's float
// aggregation is order-sensitive).
//
// The relaxation this buys is bounded and standard for group commit,
// and holds on every durable server: an op is visible to readers between
// its in-memory apply and its ack, so a crash in that window can lose
// state another request already observed — but never state whose
// requester was acked (the platform answers only after the record's
// window is flushed to the OS, and with Fsync on disk). A durability-wait
// failure latches the journal: the op stays applied in memory, the client
// gets a 5xx, and every further op fails until the operator restarts onto
// the recovered state.
package state

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/response"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// Journal event opcodes, one per op; each names a row of ops.
const (
	OpCampaign = "campaign"
	OpVideo    = "video"
	OpSession  = "session"
	OpEvents   = "events"
	OpBatch    = "batch"
	OpResponse = "response"
	OpFlag     = "flag"
)

// Event is one journaled op. ID is the entity the op targets (campaign,
// video or session by op).
//
// A session record carries the videos its join drew (State.Join), not
// the tests: its row builds the assignment from them (assignment).
//
// Video records carry a content address (Hash + Size) into the blob
// store, never the payload: the blob file is made durable before the
// record referencing it is journaled, so replay always finds the bytes.
type Event struct {
	Op       string        `json:"op"`
	ID       string        `json:"id,omitempty"`
	Campaign string        `json:"campaign,omitempty"`
	Name     string        `json:"name,omitempty"`
	Kind     string        `json:"kind,omitempty"`
	Hash     string        `json:"hash,omitempty"`
	Size     int64         `json:"size,omitempty"`
	Worker   *Worker       `json:"worker,omitempty"`
	Videos   []string      `json:"videos,omitempty"`
	Batch    *EventBatch   `json:"batch,omitempty"`
	Body     *ResponseBody `json:"body,omitempty"`
	Flagger  string        `json:"flagger,omitempty"`
	// Wire is a batch record's raw EYB1 payload: the journal stores the
	// compact wire bytes a binary batch arrived as, and replay runs them
	// back through the same pooled decoder the live path used.
	Wire []byte `json:"wire,omitempty"`
	// Records is a live batch's decode of Wire, so applyBatch does not
	// decode it twice; nil during replay. It never reaches the journal.
	Records []wire.Record `json:"-"`
}

// Result is what an applied op tells its requester beyond its sequence.
type Result struct {
	// Op is the row of the op table that applied the record, an index
	// into Ops; -1 for an op no row applies.
	Op int
	// Flags and Banned are a flagged video's distinct flaggers and ban bit.
	Flags  int
	Banned bool
	// Done reports that an answer completed its session.
	Done bool
	// Tests is the assignment a session record's row built, which a join
	// answers with: a lookup after Apply can miss a session whose answers
	// completed it meanwhile.
	Tests []AssignedTest
}

// op is one row of the op table: a journal opcode and the function that
// applies its record.
type op struct {
	name  string
	apply func(*State, *Event, *trace.Trace) (uint64, Result, error)
}

// ops is the one list of journal opcodes: Apply applies a live or a
// journaled record through its row.
var ops = []op{
	{name: OpCampaign, apply: (*State).applyCampaign},
	{name: OpVideo, apply: (*State).applyVideo},
	{name: OpSession, apply: (*State).applySession},
	{name: OpEvents, apply: (*State).applyJSONBatch},
	{name: OpBatch, apply: (*State).applyBatch},
	{name: OpResponse, apply: (*State).applyResponse},
	{name: OpFlag, apply: (*State).applyFlag},
}

// Ops lists the op table's opcodes in row order.
func Ops() []string {
	names := make([]string, len(ops))
	for i, row := range ops {
		names[i] = row.name
	}
	return names
}

// Apply is the one way state changes: it applies ev through its op's row
// with world held shared, the same for a live request as for a record
// Recover replays. A row fails only before it journals, so a sequence
// comes with no error. It is 0 in memory and during replay; otherwise the
// caller must await it (WaitDurable), since the journal flushes only for
// a waiter. tr, when not nil, receives the op's lock-wait and append
// stages.
func (st *State) Apply(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	row, err := opRow(ev.Op)
	if err != nil {
		return 0, Result{Op: -1}, err
	}
	st.world.RLock()
	seq, res, err := ops[row].apply(st, ev, tr)
	st.world.RUnlock()
	res.Op = row
	return seq, res, err
}

// opRow returns the index of the row of ops that applies op name.
func opRow(name string) (int, error) {
	for i := range ops {
		if ops[i].name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("unknown journal op %q", name)
}

// errMissing refuses a record that lacks a field its op reads.
func errMissing(ev *Event, field string) error {
	return fmt.Errorf("%s %s: record carries no %s", ev.Op, ev.ID, field)
}

// badValue refuses a record for a value it carries, and is
// ErrInvalidValue: text is the HTTP tier's answer, field where the
// record carries the value, which a replay error names too.
type badValue struct{ field, text string }

func (e *badValue) Error() string { return e.text }
func (e *badValue) Unwrap() error { return ErrInvalidValue }

// durationFits reports whether ms milliseconds, counted in nanoseconds,
// fit in an int64, time.Duration's range; NaN and ±Inf do not. Go leaves
// converting a float past it to the machine, so a replay could fold
// another duration.
func durationFits(ms float64) bool {
	ns := ms * float64(time.Millisecond)
	return ns >= -(1<<63) && ns < 1<<63
}

// floatField is a float a record carries; ms marks milliseconds the state
// converts to a duration.
type floatField struct {
	field string
	x     float64
	ms    bool
}

// checkFloats refuses the first of record part's floats that is a
// duration durationFits refuses or that JSON, the journal's encoding,
// cannot carry.
func checkFloats(part string, fields ...floatField) error {
	for _, f := range fields {
		if f.ms && !durationFits(f.x) {
			return &badValue{part + "." + f.field, f.field + " is outside the range of a duration"}
		}
		if math.IsNaN(f.x) || math.IsInf(f.x, 0) {
			return &badValue{part + "." + f.field, f.field + " is not a finite number"}
		}
	}
	return nil
}

// journal buffers ev into the WAL and returns its sequence number.
// Callers hold the shard lock that orders the op, so journal order always
// matches memory order. Durability is NOT awaited here: Apply's caller
// awaits the returned sequence after the world and shard locks are
// released, so a flush window never serializes a shard. Returns 0 in
// memory and during replay, which Recover runs before it attaches the
// journal.
//
// The record is json.Marshal's bytes, encoded into a pooled buffer: the
// encoder's trailing newline is cut, and AppendAsync copies the payload,
// so the buffer goes back to the pool at once.
func (st *State) journal(ev *Event, tr *trace.Trace) (uint64, error) {
	if st.log == nil {
		return 0, nil
	}
	buf, err := encodeJSON(ev)
	if err != nil {
		return 0, err
	}
	seq, err := st.log.AppendAsync(buf.Bytes()[:buf.Len()-1])
	jsonPool.Put(buf)
	tr.Mark(trace.StageAppend)
	return seq, err
}

// jsonBuf is a buffer with the encoder that writes to it, recycled
// through jsonPool: journal encodes each record in one.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	buf := new(jsonBuf)
	buf.enc = json.NewEncoder(&buf.Buffer)
	return buf
}}

// encodeJSON renders v into a pooled buffer. The caller owns the buffer
// and must hand it back to jsonPool once the bytes are used.
func encodeJSON(v any) (*jsonBuf, error) {
	buf := jsonPool.Get().(*jsonBuf)
	buf.Reset()
	if err := buf.enc.Encode(v); err != nil {
		jsonPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// --- apply functions (journal + apply under shard locks) ---
//
// Each is its op's apply. It returns the journal sequence its record was
// buffered at (0 in memory mode / replay), which the caller awaits once
// every shard lock is back on the hook. Each checks everything that can
// fail before it journals, so once it has a sequence it succeeds: first
// the record's own fields (a missing field, a value the HTTP tier would
// refuse), before any lock, then what depends on the state. So a record
// is refused alike live and on replay, in memory and on disk, from the
// HTTP tier and from a direct Apply.

// The refusals State makes before it mints an ID as well as in a row.
var (
	errCampaign = &badValue{"name or kind", "campaign needs a name and kind timeline|ab"}
	errWorkerID = &badValue{"worker.id", "worker id required"}
	errDrawSize = &badValue{"videos", "a session draws " + strconv.Itoa(TestsPerSession) + " videos"}
)

// validCampaign reports whether a campaign can have this name and kind.
func validCampaign(name, kind string) bool {
	return name != "" && (kind == "timeline" || kind == "ab")
}

func (st *State) applyCampaign(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	if !validCampaign(ev.Name, ev.Kind) {
		return 0, Result{}, errCampaign
	}
	if err := checkFileID(ev.ID); err != nil {
		return 0, Result{}, err
	}
	csh := st.campaigns.Shard(ev.ID)
	csh.Lock()
	defer csh.Unlock()
	tr.Mark(trace.StageLockWait)
	if _, exists := csh.Get(ev.ID); exists {
		return 0, Result{}, ErrCampaignExists
	}
	seq, err := st.journal(ev, tr)
	if err != nil {
		return 0, Result{}, err
	}
	c := &Campaign{ID: ev.ID, Name: ev.Name, Kind: ev.Kind, analytics: quality.NewCampaign(ev.Kind)}
	if st.adaptive != nil {
		c.adaptive = adaptive.New(ev.Kind, *st.adaptive)
	}
	csh.Put(ev.ID, c)
	st.bumpID(ev.ID)
	return seq, Result{}, nil
}

// servable refuses a video nothing can serve, which must not be assigned
// to participants: one without a content hash, or whose blob is missing.
// A video record and a state document's video are checked alike.
func (st *State) servable(id, hash string) error {
	if hash == "" {
		return fmt.Errorf("video %s carries no content hash", id)
	}
	if !st.blobs.Has(hash) {
		return fmt.Errorf("video %s references missing blob %s", id, hash)
	}
	return nil
}

func (st *State) applyVideo(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	csh := st.campaigns.Shard(ev.Campaign)
	csh.Lock()
	defer csh.Unlock()
	c, ok := csh.Get(ev.Campaign)
	if !ok {
		return 0, Result{}, ErrNoCampaign
	}
	if err := st.servable(ev.ID, ev.Hash); err != nil {
		return 0, Result{}, err
	}
	vsh := st.videos.Shard(ev.ID)
	vsh.Lock()
	defer vsh.Unlock()
	tr.Mark(trace.StageLockWait)
	if _, held := vsh.Get(ev.ID); held {
		return 0, Result{}, fmt.Errorf("video %s: %w", ev.ID, ErrHeld)
	}
	seq, err := st.journal(ev, tr)
	if err != nil {
		return 0, Result{}, err
	}
	vsh.Put(ev.ID, newVideo(ev.ID, c, ev.Hash, ev.Size))
	c.Videos = append(c.Videos, ev.ID)
	if c.adaptive != nil {
		c.adaptive.AddVideo(ev.ID)
	}
	c.invalidate()
	st.bumpID(ev.ID)
	return seq, Result{}, nil
}

func (st *State) applySession(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	switch {
	case ev.Worker == nil:
		return 0, Result{}, errMissing(ev, "worker")
	case ev.Worker.ID == "":
		return 0, Result{}, errWorkerID
	case len(ev.Videos) != TestsPerSession:
		return 0, Result{}, errDrawSize
	}
	ssh := st.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	// Asked before the campaign shard is taken: frozenLocked takes each
	// campaign shard in turn.
	if _, held := ssh.Get(ev.ID); held || st.frozenLocked(ev.ID, nil) {
		return 0, Result{}, fmt.Errorf("session %s: %w", ev.ID, ErrHeld)
	}
	// The campaign tracks its sessions for live analytics; its shard
	// follows the session's in the lock order.
	csh := st.campaigns.Shard(ev.Campaign)
	csh.Lock()
	defer csh.Unlock()
	tr.Mark(trace.StageLockWait)
	// A session lives in its campaign's section of the state documents,
	// so one whose campaign this state does not hold could not be
	// written to the next snapshot.
	c, ok := csh.Get(ev.Campaign)
	if !ok {
		return 0, Result{}, fmt.Errorf("session %s: %w %s", ev.ID, ErrNoCampaign, ev.Campaign)
	}
	drawn, err := c.draw(ev.Videos)
	if err != nil {
		return 0, Result{}, err
	}
	seq, err := st.journal(ev, tr)
	if err != nil {
		return 0, Result{}, err
	}
	sess := newSession(ev.ID, c, *ev.Worker, assignment(ev.ID, c.Kind, &drawn))
	ssh.Put(ev.ID, sess)
	c.inflight = append(c.inflight, ev.ID)
	// The allocator charges the assignment as bought budget the moment it
	// is journaled — live and replay go through this same line, so pending
	// counts replay identically.
	if c.adaptive != nil {
		c.adaptive.NoteJoin(sess.videos())
	}
	st.joined.Add(1)
	st.bumpID(ev.ID)
	return seq, Result{Tests: sess.Assignment}, nil
}

// assignedVideos appends to dst one video ID per test of an assignment,
// the multiplicity-aware shape the quality tracker weights counters by.
func assignedVideos(dst []string, tests []AssignedTest) []string {
	for _, t := range tests {
		dst = append(dst, t.VideoID)
	}
	return dst
}

// videos returns the session's assignment as assignedVideos lays it out.
func (sess *Session) videos() []string {
	return assignedVideos(make([]string, 0, len(sess.Assignment)), sess.Assignment)
}

// AppendWireRecords converts one JSON-shaped EventBatch into its wire
// records and appends them to dst: an instruction record when the
// batch sets InstructionMs, an engagement record when it names a
// video. It is the JSON apply path's own conversion (applyJSONBatch), so a
// batch ingested over either protocol lands identical durations.
func AppendWireRecords(dst []wire.Record, b EventBatch) []wire.Record {
	if b.InstructionMs > 0 {
		dst = append(dst, wire.Record{
			Kind:          wire.KindInstruction,
			InstructionNs: int64(time.Duration(b.InstructionMs * float64(time.Millisecond))),
		})
	}
	if b.VideoID != "" {
		dst = append(dst, wire.Record{
			Kind:            wire.KindEngagement,
			VideoID:         b.VideoID,
			LoadNs:          int64(time.Duration(b.LoadMs * float64(time.Millisecond))),
			TimeOnVideoNs:   int64(time.Duration(b.TimeOnVideoMs * float64(time.Millisecond))),
			OutOfFocusNs:    int64(time.Duration(b.OutOfFocusMs * float64(time.Millisecond))),
			Plays:           b.Plays,
			Pauses:          b.Pauses,
			Seeks:           b.Seeks,
			WatchedFraction: b.WatchedFraction,
		})
	}
	return dst
}

// applyJSONBatch applies one JSON engagement batch as the wire records it
// is equivalent to, so both ingest protocols reach the tracker through
// the same code. An EYB1 batch needs none of its value checks: it carries
// int64 nanoseconds, and journals its wire bytes.
func (st *State) applyJSONBatch(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	b := ev.Batch
	if b == nil {
		return 0, Result{}, errMissing(ev, "batch")
	}
	if err := checkFloats("batch",
		floatField{"instruction_ms", b.InstructionMs, true}, floatField{"load_ms", b.LoadMs, true},
		floatField{"time_on_video_ms", b.TimeOnVideoMs, true}, floatField{"out_of_focus_ms", b.OutOfFocusMs, true},
		floatField{"watched_fraction", b.WatchedFraction, false}); err != nil {
		return 0, Result{}, err
	}
	var buf [2]wire.Record
	return st.applyRecords(ev, tr, AppendWireRecords(buf[:0], *b))
}

// applyBatch applies one binary batch. On the live path ev.Records
// holds the handler's decode; during replay the raw wire bytes are
// decoded here through the same pooled decoder.
func (st *State) applyBatch(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	recs := ev.Records
	if recs == nil {
		dec := wire.GetDecoder()
		defer wire.PutDecoder(dec)
		var err error
		recs, err = dec.Decode(ev.Wire)
		if err != nil {
			return 0, Result{}, fmt.Errorf("batch payload: %w", err)
		}
	}
	return st.applyRecords(ev, tr, recs)
}

// applyRecords journals ev and folds its engagement records into the
// session's tracker (instruction records are journaled, but no §4.3
// rule reads them). Every record lands under a single session-shard
// lock acquisition and the whole event is one journal record, so a
// replayed journal either carries all of a batch or none of it.
func (st *State) applyRecords(ev *Event, tr *trace.Trace, recs []wire.Record) (uint64, Result, error) {
	ssh := st.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	tr.Mark(trace.StageLockWait)
	sess, ok := ssh.Get(ev.ID)
	if !ok {
		// A completed session's verdict is already folded and frozen;
		// accepting more instrumentation would silently diverge from it.
		if st.frozenLocked(ev.ID, nil) {
			return 0, Result{}, ErrSessionDone
		}
		return 0, Result{}, ErrNoSession
	}
	seq, err := st.journal(ev, tr)
	if err != nil {
		return 0, Result{}, err
	}
	for i := range recs {
		if r := &recs[i]; r.Kind == wire.KindEngagement {
			vt := response.VideoTrace{
				VideoID:         r.VideoID,
				LoadTime:        time.Duration(r.LoadNs),
				TimeOnVideo:     time.Duration(r.TimeOnVideoNs),
				Plays:           r.Plays,
				Pauses:          r.Pauses,
				Seeks:           r.Seeks,
				WatchedFraction: r.WatchedFraction,
				OutOfFocus:      time.Duration(r.OutOfFocusNs),
			}
			// An EYB1 batch may carry a watched fraction JSON cannot, which
			// would fail every state document the session is in. No §4.3
			// rule reads it, so it is kept as 0.
			if math.IsNaN(vt.WatchedFraction) || math.IsInf(vt.WatchedFraction, 0) {
				vt.WatchedFraction = 0
			}
			sess.track.Observe(vt)
		}
	}
	return seq, Result{}, nil
}

func (st *State) applyResponse(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	b := ev.Body
	if b == nil {
		return 0, Result{}, errMissing(ev, "body")
	}
	if err := checkFloats("body", floatField{"submitted_ms", b.SubmittedMs, true},
		floatField{"slider_ms", b.SliderMs, false}, floatField{"helper_ms", b.HelperMs, false}); err != nil {
		return 0, Result{}, err
	}
	ssh := st.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	// A completed session answers from its frozen record. Every test of
	// a frozen record is answered, so parseResponse tells a duplicate
	// from an unknown test; a record that leaves one open is still a
	// session that is done.
	sess, err := st.sessionLocked(ssh, ev.ID)
	if err != nil {
		return 0, Result{}, err
	}
	a, err := parseResponse(sess, ev.Body)
	if err != nil {
		return 0, Result{}, err
	}
	if sess.completed() {
		return 0, Result{}, ErrSessionDone
	}
	// When this answer completes the session, the campaign shard lock
	// must span journaling and the fold: two sessions completing on one
	// campaign journal in the same order they fold, so replay reproduces
	// the completion order exactly.
	var c *Campaign
	if len(sess.answers)+1 >= len(sess.Assignment) {
		c = sess.Campaign
		csh := st.campaigns.Shard(c.ID)
		csh.Lock()
		defer csh.Unlock()
	}
	tr.Mark(trace.StageLockWait)
	seq, err := st.journal(ev, tr)
	if err != nil {
		return 0, Result{}, err
	}
	sess.answers = append(sess.answers, a)
	sess.trackAnswer(a)
	if c != nil {
		completeSession(c, sess)
		ssh.Delete(sess.ID)
	}
	return seq, Result{Done: c != nil}, nil
}

// completeSession is what the completing answer does, on the live path
// and on every replay of its journal record alike: it freezes the
// session's standing, appends the session's ID and frozen record, in one
// frame, to the campaign's records and its ID to the campaign's arena,
// and files it. Each append copies only its own bytes into the streams'
// chunks. It renders no /analytics row: the first poll or snapshot that
// needs the row renders it from the record (catchUpRows). The caller
// then deletes the session from the index, which held the last reference
// to its state and to the ID string its join minted, so the tracker and
// its traces go with them. Caller holds both shard locks.
func completeSession(c *Campaign, sess *Session) {
	sess.track.SetCompleted()
	sess.final = sess.track.Snapshot()
	c.done.frozen = appendFrozen(appendString(c.done.frozen[:0], sess.ID), c, sess)
	c.done.frame = store.AppendRecord(c.done.frame[:0], c.done.frozen)
	c.records.tail.append(c.done.frame...)
	c.records.push(c.spilled)
	c.ids.tail.appendWhole([]byte(sess.ID))
	c.ids.push(0)
	c.fileCompleted(sess)
}

// fileCompleted is the one step every completed session goes through,
// fresh from completeSession or decoded from a campaign's frozen file
// (fileSpilled): it folds the answers into the campaign's analytics and
// stopper and files the session under the next row number, the piece
// the session's record is in its records and its ID, which the caller
// has appended, in its arena. Caller holds the campaign's shard lock, or
// the campaign is not reachable yet: either way the campaign's
// completion scratch is its own.
func (c *Campaign) fileCompleted(sess *Session) {
	rec := c.done.record(sess, c.Kind)
	c.analytics.Complete(rec, sess.final.Final)
	if c.adaptive != nil {
		c.adaptive.Complete(rec, sess.final.Final)
	}
	c.inflight = slices.DeleteFunc(c.inflight, func(id string) bool { return id == sess.ID })
	at, _ := c.frozenAt(sess.ID)
	c.rowOrder = slices.Insert(c.rowOrder, at, c.ids.count()-1)
	c.invalidate()
}

// rowsLag reports whether a completed session has no /analytics row
// yet. Caller holds c's shard lock, at least shared.
func (c *Campaign) rowsLag() bool { return c.rows.count() < c.ids.count() }

// catchUpRows brings c's rows up to its records: it renders the row of
// every session that completed since the rows were last brought up to
// date, in completion order, from its frozen record in place, and
// appends each to the rows. Those records are in the heap: a snapshot
// catches the rows up before it spills. It allocates nothing but the
// rows' chunks. Caller holds c's shard lock exclusively.
func (c *Campaign) catchUpRows() error {
	for i := c.rows.count(); i < c.ids.count(); i++ {
		piece := c.records.inTail(i, c.spilled, &c.done.frame)
		_, rec, n, ok := unframe(piece)
		if !ok || n != len(piece) {
			return c.badFrame(i)
		}
		row, err := c.renderRow(i, rec)
		if err != nil {
			return err
		}
		c.rows.tail.append(row...)
		c.rows.push(c.spilled)
	}
	return nil
}

// renderRow renders completed session i's /analytics row from rec, its
// frozen record, into the completion scratch, adds the row's checksum to
// rowDigest, and returns the row and its comma — the session's piece of
// the rows stream — valid until the next call. Each completed session's
// row goes through it once: rendered to be kept (catchUpRows) or to be
// checked against the rows file (fileSpilled). Caller holds c's shard
// lock exclusively, or c is not reachable yet.
func (c *Campaign) renderRow(i uint32, rec []byte) ([]byte, error) {
	row, ok := appendRowOf(c.done.row[:0], c.completedID(i), rec)
	if !ok {
		return nil, fmt.Errorf("campaign %s row %d (session %s): %w", c.ID, i, c.completedID(i), errFrozen)
	}
	c.rowDigest += crc64.Checksum(row, etagTable)
	c.done.row = append(row, ',')
	return c.done.row, nil
}

// completion is the scratch completeSession, fileCompleted and the row
// renders work in, one per campaign and reused under its shard lock: the
// session's ID and frozen record before they are framed, and the frame,
// before it is appended to its records (or a record assembled from the
// chunks it crosses, for its row to be rendered), its answers as the
// filtering.SessionRecord the §4.3 folds take, and its /analytics row.
// Neither quality.Campaign.Complete nor adaptive.Campaign.Complete keeps
// the record or anything it points to.
type completion struct {
	frozen   []byte
	frame    []byte
	row      []byte
	rec      filtering.SessionRecord
	timeline []response.TimelineResponse
	ab       []response.ABResponse
}

// record views the session's answers as a filtering.SessionRecord,
// control answers included (the stopper releases their pending
// assignment entries). The folds read only each answer's video, value
// and control bit — not the participant, which the record leaves nil.
// The record is valid until the next call.
func (d *completion) record(sess *Session, kind string) *filtering.SessionRecord {
	d.rec.Timeline, d.rec.AB = d.rec.Timeline[:0], d.rec.AB[:0]
	if kind == "ab" {
		d.ab = d.ab[:0]
		for _, a := range sess.answers {
			t := &sess.Assignment[a.Test]
			d.ab = append(d.ab, response.ABResponse{VideoID: t.VideoID, Choice: a.Choice, AOnLeft: true, Control: t.Control})
		}
		for i := range d.ab {
			d.rec.AB = append(d.rec.AB, &d.ab[i])
		}
		return &d.rec
	}
	d.timeline = d.timeline[:0]
	for _, a := range sess.answers {
		t := &sess.Assignment[a.Test]
		d.timeline = append(d.timeline, response.TimelineResponse{VideoID: t.VideoID, Submitted: a.Submitted, Control: t.Control})
	}
	for i := range d.timeline {
		d.rec.Timeline = append(d.rec.Timeline, &d.timeline[i])
	}
	return &d.rec
}

func (st *State) applyFlag(ev *Event, tr *trace.Trace) (uint64, Result, error) {
	if ev.Flagger == "" { // the worker, as the request names it
		return 0, Result{}, &badValue{"flagger", "worker required"}
	}
	vsh := st.videos.Shard(ev.ID)
	vsh.Lock()
	tr.Mark(trace.StageLockWait)
	v, ok := vsh.Get(ev.ID)
	if !ok {
		vsh.Unlock()
		return 0, Result{}, ErrNoVideo
	}
	seq, err := st.journal(ev, tr)
	if err != nil {
		vsh.Unlock()
		return 0, Result{}, err
	}
	v.Flags[ev.Flagger] = true
	res := Result{Flags: len(v.Flags)}
	newlyBanned := !v.Banned && res.Flags >= BanThreshold
	if newlyBanned {
		v.Banned = true
	}
	res.Banned = v.Banned
	c := v.Campaign
	vsh.Unlock()
	if newlyBanned {
		// A ban changes the Banned bit in /results: drop the cache. No
		// join is assigned a banned video again, so it leaves the
		// stopper too, or it would hold an adaptive campaign open.
		// Taken after the video lock is released: a campaign shard comes
		// before a video shard in the lock order.
		csh := st.campaigns.Shard(c.ID)
		csh.Lock()
		c.invalidate()
		if c.adaptive != nil {
			c.adaptive.RemoveVideo(ev.ID)
		}
		csh.Unlock()
	}
	return seq, res, nil
}

// parseResponse resolves the answered test and builds the answer to
// store, rejecting duplicates and malformed A/B choices before anything
// is journaled.
func parseResponse(sess *Session, body *ResponseBody) (answer, error) {
	a := answer{Test: -1}
	for i := range sess.Assignment {
		if sess.Assignment[i].TestID == body.TestID {
			a.Test = i
			break
		}
	}
	if a.Test < 0 {
		return a, ErrUnknownTest
	}
	for _, prev := range sess.answers {
		if prev.Test == a.Test {
			return a, ErrDuplicateTest
		}
	}
	t := &sess.Assignment[a.Test]
	if t.Kind != "ab" {
		a.Submitted = time.Duration(body.SubmittedMs * float64(time.Millisecond))
		// The control helper frame is deliberately wrong: keeping the
		// original choice passes (§3.3).
		a.ControlFailed = t.Control && !body.KeptOriginal
		return a, nil
	}
	// Hard rule: one of the three answers must be present (§3.3).
	switch body.Choice {
	case "left":
		a.Choice = response.ChoiceLeft
	case "right":
		a.Choice = response.ChoiceRight
	case "no difference":
		a.Choice = response.ChoiceNoDifference
	default:
		return a, ErrBadChoice
	}
	// The platform's A/B controls delay the right side.
	a.ControlFailed = t.Control && a.Choice == response.ChoiceRight
	return a, nil
}

// trackAnswer feeds one stored answer to the session's tracker.
func (sess *Session) trackAnswer(a answer) {
	t := &sess.Assignment[a.Test]
	if t.Kind == "ab" {
		sess.track.AddAB(&response.ABResponse{Control: t.Control, ControlPassed: !a.ControlFailed})
	} else {
		sess.track.AddTimeline(&response.TimelineResponse{Control: t.Control, ControlPassed: !a.ControlFailed})
	}
}

// --- state documents ---

// stateVersion is the schema version of the snapshot document, of the
// campaign files it covers and of the journal records after it: a data
// directory opens from a snapshot (Recover), so a format change of any
// of the three bumps it. Version 8 stores an assignment as the videos
// its join drew — in a session record, a session in flight and a frozen
// record alike — where version 7 stored its tests. Version 7 framed each
// frozen record as a journal record (spill.go), where version 6 wrote
// unchecked varint entries and version 5 carried the records in the
// section. No reader for an older layout is kept: a document carrying
// another version is refused.
const stateVersion = 8

// A campaign's section is the one form its state takes in a document: a
// snapshot is the counters and every campaign's section. The analytics,
// stopper state and completed sessions are NOT serialized: a section
// counts its completed sessions and records how long the campaign's two
// files are valid for, and restore walks the files once, re-folding each
// record through fileCompleted, keeping the document small and the
// rebuild exact.

// snapState is a snapshot's document.
type snapState struct {
	Version   int            `json:"version"`
	NextID    int64          `json:"next_id"`
	Joined    int64          `json:"joined"`
	Campaigns []snapCampaign `json:"campaigns,omitempty"`
}

// snapCampaign is one campaign's section: its videos in the campaign's
// order; how many sessions it completed, whose records and rows fill the
// first FrozenBytes of its frozen file and the first RowBytes of its rows
// file, in completion order (spill.go); and its sessions in flight, in ID
// order.
type snapCampaign struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Kind        string        `json:"kind"`
	Videos      []snapVideo   `json:"videos,omitempty"`
	Frozen      int           `json:"frozen,omitempty"`
	FrozenBytes int64         `json:"frozen_bytes,omitempty"`
	RowBytes    int64         `json:"row_bytes,omitempty"`
	Inflight    []snapSession `json:"inflight,omitempty"`
}

// snapSession is one session in flight: the videos its join drew, its
// answers so far and the tracker's latest trace per video.
type snapSession struct {
	ID      string                         `json:"id"`
	Worker  Worker                         `json:"worker"`
	Videos  []string                       `json:"videos"`
	Answers []answer                       `json:"answers,omitempty"`
	Traces  map[string]response.VideoTrace `json:"traces,omitempty"`
}

// snapVideo references its payload by content address; the blob file is
// durable independently of the document.
type snapVideo struct {
	ID     string   `json:"id"`
	Hash   string   `json:"hash"`
	Size   int64    `json:"size,omitempty"`
	Flags  []string `json:"flags,omitempty"`
	Banned bool     `json:"banned,omitempty"`
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// section builds campaign c's section. Caller holds the world lock
// exclusively, so the reads are a consistent cut.
func (st *State) section(c *Campaign) (snapCampaign, error) {
	n := c.ids.count()
	cn := snapCampaign{
		ID: c.ID, Name: c.Name, Kind: c.Kind,
		Videos:      make([]snapVideo, len(c.Videos)),
		Frozen:      int(n),
		FrozenBytes: int64(c.records.size(n)),
		RowBytes:    int64(c.rows.size(n)),
		Inflight:    make([]snapSession, len(c.inflight)),
	}
	for i, vid := range c.Videos {
		v, ok := st.videos.Get(vid)
		if !ok {
			return cn, fmt.Errorf("campaign %s references unknown video %s", c.ID, vid)
		}
		cn.Videos[i] = snapVideo{ID: v.ID, Hash: v.Hash, Size: v.Size, Flags: sortedKeys(v.Flags), Banned: v.Banned}
	}
	for i, sid := range c.inflight {
		sess, _ := st.sessions.Get(sid) // in flight: indexed from join to completion
		cn.Inflight[i] = snapSession{ID: sess.ID, Worker: sess.Worker, Videos: sess.videos(), Answers: sess.answers, Traces: sess.track.Traces()}
	}
	sort.Slice(cn.Inflight, func(i, j int) bool { return cn.Inflight[i].ID < cn.Inflight[j].ID })
	return cn, nil
}

// restored is a section decoded and checked but not reachable yet: the
// campaign with its completed sessions filed, its videos and its
// sessions in flight.
type restored struct {
	c        *Campaign
	videos   []*Video
	inflight []*Session
}

// restore decodes and checks section cn, so a restored campaign is
// field-for-field the one a replay of its journal would have produced.
// It builds the videos, truncates the campaign's files to the lengths cn
// records and walks them, re-folding every completed session, and
// re-feeds each session in flight's tracker, touching no index: every
// failure is an error naming the campaign, returned before anything is
// installed.
func (st *State) restore(cn *snapCampaign) (_ *restored, err error) {
	if err := checkFileID(cn.ID); err != nil {
		return nil, err
	}
	c := &Campaign{
		ID: cn.ID, Name: cn.Name, Kind: cn.Kind,
		Videos:    make([]string, len(cn.Videos)),
		analytics: quality.NewCampaign(cn.Kind),
	}
	defer func() {
		if err != nil {
			c.closeFiles()
		}
	}()
	r := &restored{c: c, videos: make([]*Video, len(cn.Videos))}
	for i, vn := range cn.Videos {
		if err := st.servable(vn.ID, vn.Hash); err != nil {
			return nil, fmt.Errorf("campaign %s %w", cn.ID, err)
		}
		v := newVideo(vn.ID, c, vn.Hash, vn.Size)
		v.Banned = vn.Banned
		for _, worker := range vn.Flags {
			v.Flags[worker] = true
		}
		c.Videos[i], r.videos[i] = vn.ID, v
	}
	// Adaptive state is never snapshotted: it is a pure fold over
	// (videos, joins, completions) under a fixed config, so it is
	// re-derived here exactly as the live path derived it — the
	// crash-replay determinism contract. A join only counts its videos as
	// pending and a completion counts them back, so a completed session's
	// join may be noted beside its completion, not in join order. A banned
	// video left the stopper when it was banned, so it is not registered.
	if st.adaptive != nil {
		c.adaptive = adaptive.New(cn.Kind, *st.adaptive)
		for _, v := range r.videos {
			if !v.Banned {
				c.adaptive.AddVideo(v.ID)
			}
		}
	}
	// One walk of the files checks every record and row and re-folds each
	// session in recorded completion order — the order the journal
	// produced them. Then the bytes leave the heap: the files hold them.
	if cn.Frozen != 0 || cn.FrozenBytes != 0 || cn.RowBytes != 0 {
		if st.disk == nil {
			return nil, fmt.Errorf("campaign %s: its %d completed sessions are in files, and this state has no data directory", cn.ID, cn.Frozen)
		}
		valid, err := st.loadFiles(c, [2]int64{cn.FrozenBytes, cn.RowBytes})
		if err != nil {
			return nil, err
		}
		if err = c.fileSpilled(valid[0], valid[1]); err != nil {
			return nil, err
		}
		if int(c.ids.count()) != cn.Frozen {
			return nil, fmt.Errorf("campaign %s: %s holds %d completed sessions, its document says %d", cn.ID, fileName(cn.ID, 0), c.ids.count(), cn.Frozen)
		}
		c.spilled = uint32(cn.Frozen)
	}
	for _, sn := range cn.Inflight {
		if _, frozen := c.frozenAt(sn.ID); frozen {
			return nil, fmt.Errorf("campaign %s lists session %s both completed and in flight", cn.ID, sn.ID)
		}
		drawn, err := c.draw(sn.Videos)
		if err != nil {
			return nil, fmt.Errorf("campaign %s session %s: %w", cn.ID, sn.ID, err)
		}
		// The tracker is a pure function of the latest per-video traces and
		// the answer list, both order-independent here, so map iteration
		// order cannot diverge the rebuild.
		sess := newSession(sn.ID, c, sn.Worker, assignment(sn.ID, c.Kind, &drawn))
		for _, tr := range sn.Traces {
			sess.track.Observe(tr)
		}
		for _, a := range sn.Answers {
			if a.Test < 0 || a.Test >= len(sess.Assignment) {
				return nil, fmt.Errorf("campaign %s session %s answers test %d of %d", cn.ID, sn.ID, a.Test, len(sess.Assignment))
			}
			sess.answers = append(sess.answers, a)
			sess.trackAnswer(a)
		}
		c.inflight = append(c.inflight, sn.ID)
		if c.adaptive != nil {
			c.adaptive.NoteJoin(sess.videos())
		}
		r.inflight = append(r.inflight, sess)
	}
	return r, nil
}

// held refuses a restored section naming a campaign, video or session
// this server already holds, which installing it would overwrite. The
// section's sessions, in ID order, are looked up in the sessions index,
// which holds the installed sessions in flight, then merged against each
// installed campaign's frozen rows, which are in ID order too, so a load
// stays linear in the sessions it installs for a given campaign count.
func (st *State) held(r *restored) error {
	c := r.c
	if _, ok := st.campaigns.Get(c.ID); ok {
		return fmt.Errorf("campaign %s: %w", c.ID, ErrCampaignExists)
	}
	for _, v := range r.videos {
		if _, ok := st.videos.Get(v.ID); ok {
			return fmt.Errorf("campaign %s video %s is already held here", c.ID, v.ID)
		}
	}
	inflight := slices.Clone(c.inflight)
	slices.Sort(inflight)
	ids := make([]string, 0, len(inflight)+len(c.rowOrder))
	for i := range c.rowOrder {
		sid := c.frozenID(i)
		for ; len(inflight) > 0 && inflight[0] < sid; inflight = inflight[1:] {
			ids = append(ids, inflight[0])
		}
		ids = append(ids, sid)
	}
	ids = append(ids, inflight...)
	dup := ""
	for _, sid := range ids {
		if _, ok := st.sessions.Get(sid); ok {
			dup = sid
			break
		}
	}
	st.campaigns.Range(func(_ string, installed *Campaign) bool {
		for i, j := 0, 0; dup == "" && i < len(ids) && j < len(installed.rowOrder); {
			switch sid := installed.frozenID(j); {
			case ids[i] < sid:
				i++
			case ids[i] > sid:
				j++
			default:
				dup = sid
			}
		}
		return dup == ""
	})
	if dup != "" {
		return fmt.Errorf("campaign %s session %s is already held here", c.ID, dup)
	}
	return nil
}

// install makes a restored section reachable: it puts its videos,
// sessions in flight and campaign into the indexes and moves the ID
// counter past them and past its completed sessions. It cannot fail; restore checked everything first.
func (st *State) install(r *restored) {
	c := r.c
	for _, v := range r.videos {
		st.videos.Put(v.ID, v)
		st.bumpID(v.ID)
	}
	for _, sess := range r.inflight {
		st.sessions.Put(sess.ID, sess)
		st.bumpID(sess.ID)
	}
	for i := range c.ids.count() {
		st.bumpID(c.completedID(i))
	}
	st.campaigns.Put(c.ID, c)
	st.bumpID(c.ID)
}

// load rebuilds the indexes from a snapshot, restoring and installing
// one section at a time. It runs before the state serves anything, so
// unlocked convenience accessors suffice. It reads the document's version
// before the rest, so that a document in another layout fails on its
// version rather than on a field whose type changed.
func (st *State) load(data []byte) error {
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if head.Version != stateVersion {
		return fmt.Errorf("snapshot has schema version %d, this server reads only version %d", head.Version, stateVersion)
	}
	var doc snapState
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	st.nextID.Store(doc.NextID)
	st.joined.Store(doc.Joined)
	for i := range doc.Campaigns {
		r, err := st.restore(&doc.Campaigns[i])
		if err == nil {
			if err = st.held(r); err != nil {
				r.c.closeFiles()
			}
		}
		if err != nil {
			return err
		}
		st.install(r)
	}
	return nil
}
