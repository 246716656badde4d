// Persistence: the journal event schema, the apply functions shared by
// live handlers and crash recovery, and the state documents, in which a
// campaign's section is the one form of its state.
//
// Every mutation is expressed as an event. The live path validates,
// buffers the event into the journal, and applies it inside one
// shard-locked critical section — journal sequence order therefore
// always matches memory order. The durability wait (the journal's
// group-commit flush window, fdatasync'd with Fsync) happens in mutate
// AFTER the shard locks are released, so concurrent mutations on one
// shard never serialize behind the disk (see the durability matrix in
// docs/OPERATIONS.md). Recovery replays the journal through the same
// apply functions, so the rebuilt state is field-for-field the state
// the journal order produced — including the order sessions complete
// per campaign, which is what makes /results byte-identical after a
// restart (the analytics fold's float aggregation is order-sensitive).
//
// The relaxation this buys is bounded and standard for group commit,
// and holds on every durable server: a mutation is visible to readers
// between its in-memory apply and its ack, so a crash in that window
// can lose state another request already observed — but never state
// whose mutator was acked (the HTTP response is written only after the
// record's window is flushed to the OS, and with Fsync on disk). A
// durability-wait failure latches the journal: the mutation stays
// applied in memory, the client gets a 5xx, and every further mutation
// fails until the operator restarts onto the recovered state.
package platform

import (
	"encoding/json"
	"fmt"
	"hash/crc64"
	"slices"
	"sort"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// Journal event opcodes, one per mutation.
const (
	opCampaign = "campaign"
	opVideo    = "video"
	opSession  = "session"
	opEvents   = "events"
	opBatch    = "batch"
	opResponse = "response"
	opFlag     = "flag"
)

// event is one journaled mutation. ID is the entity the op targets
// (campaign, video or session by op).
//
// Video records carry a content address (Hash + Size) into the blob
// store, never the payload: the blob file is made durable before the
// record referencing it is journaled, so replay always finds the bytes.
// (Journals of earlier builds may carry the payload as "data" too; it is
// not read.)
type event struct {
	Op       string         `json:"op"`
	ID       string         `json:"id,omitempty"`
	Campaign string         `json:"campaign,omitempty"`
	Name     string         `json:"name,omitempty"`
	Kind     string         `json:"kind,omitempty"`
	Hash     string         `json:"hash,omitempty"`
	Size     int64          `json:"size,omitempty"`
	Worker   *Worker        `json:"worker,omitempty"`
	Tests    []AssignedTest `json:"tests,omitempty"`
	Batch    *EventBatch    `json:"batch,omitempty"`
	Body     *ResponseBody  `json:"body,omitempty"`
	Flagger  string         `json:"flagger,omitempty"`
	// Wire is an opBatch record's raw EYB1 payload: the journal stores
	// the compact wire bytes a binary batch arrived as, and replay runs
	// them back through the same pooled decoder the live path used.
	Wire []byte `json:"wire,omitempty"`

	// tr stamps the live request's lock-wait/append boundaries as the
	// event moves through its apply function. Unexported so it never
	// reaches the journal; nil during replay and when tracing is off.
	tr *trace.Trace
	// records carries the live path's already-decoded batch so
	// applyBatch does not decode Wire twice; nil during replay.
	records []wire.Record
}

// journal buffers ev into the WAL and returns its sequence number.
// Callers hold the shard lock that orders the mutation, so journal
// order always matches memory order. Durability is NOT awaited here:
// mutate calls WaitDurable on the returned sequence after the world
// and shard locks are released, so a flush window never
// serializes a shard — and every sequence returned must be awaited,
// since the journal flushes only for a waiter. Returns 0 in memory mode
// and during replay.
//
// The record is json.Marshal's bytes, encoded into a pooled buffer:
// the encoder's trailing newline is cut, and AppendAsync copies the
// payload, so the buffer goes back to the pool at once.
func (s *Server) journal(ev *event) (uint64, error) {
	if s.log == nil || s.replaying {
		return 0, nil
	}
	buf, err := encodeJSON(ev)
	if err != nil {
		return 0, err
	}
	seq, err := s.log.AppendAsync(buf.Bytes()[:buf.Len()-1])
	bufPool.Put(buf)
	ev.tr.Mark(trace.StageAppend)
	return seq, err
}

// applyEvent dispatches one replayed journal record.
func (s *Server) applyEvent(ev *event) error {
	switch ev.Op {
	case opCampaign:
		_, err := s.applyCampaign(ev)
		return err
	case opVideo:
		_, err := s.applyVideo(ev)
		return err
	case opSession:
		_, err := s.applySession(ev)
		return err
	case opEvents:
		_, err := s.applyEvents(ev)
		return err
	case opBatch:
		_, err := s.applyBatch(ev)
		return err
	case opResponse:
		_, _, err := s.applyResponse(ev)
		return err
	case opFlag:
		_, _, _, err := s.applyFlag(ev)
		return err
	case "handoff", "import":
		// Builds with a cluster tier journaled these to move a campaign
		// between nodes. Replaying past one would serve a campaign another
		// node owns, or miss one that arrived from another node.
		return fmt.Errorf("journal %s record moved a campaign between cluster nodes; this server runs one node and cannot replay it", ev.Op)
	default:
		return fmt.Errorf("unknown journal op %q", ev.Op)
	}
}

// --- apply functions (journal + mutate under shard locks) ---
//
// Each returns the journal sequence its record was buffered at (0 in
// memory mode / replay); mutate awaits that sequence's durability after
// every shard lock is back on the hook. Each checks everything that can
// fail before it journals, so once it has a sequence it succeeds.

func (s *Server) applyCampaign(ev *event) (uint64, error) {
	csh := s.campaigns.Shard(ev.ID)
	csh.Lock()
	defer csh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	if _, exists := csh.Get(ev.ID); exists {
		return 0, errCampaignExists
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	c := &campaignState{ID: ev.ID, Name: ev.Name, Kind: ev.Kind, analytics: quality.NewCampaign(ev.Kind)}
	if s.adaptive {
		c.adaptive = adaptive.New(ev.Kind, s.adaptiveCfg)
	}
	csh.Put(ev.ID, c)
	s.bumpID(ev.ID)
	s.countMutation(opCampaign)
	return seq, nil
}

func (s *Server) applyVideo(ev *event) (uint64, error) {
	csh := s.campaigns.Shard(ev.Campaign)
	csh.Lock()
	defer csh.Unlock()
	c, ok := csh.Get(ev.Campaign)
	if !ok {
		return 0, errNoCampaign
	}
	if ev.Hash == "" {
		return 0, fmt.Errorf("video %s: record carries no content hash", ev.ID)
	}
	// Same refusal as restore: a video nothing can serve must not be
	// assigned to participants.
	if !s.blobs.Has(ev.Hash) {
		return 0, fmt.Errorf("video %s references missing blob %s", ev.ID, ev.Hash)
	}
	vsh := s.videos.Shard(ev.ID)
	vsh.Lock()
	defer vsh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	vsh.Put(ev.ID, newVideoState(ev.ID, c, ev.Hash, ev.Size))
	c.Videos = append(c.Videos, ev.ID)
	if c.adaptive != nil {
		c.adaptive.AddVideo(ev.ID)
	}
	c.invalidate()
	s.bumpID(ev.ID)
	s.countMutation(opVideo)
	return seq, nil
}

func (s *Server) applySession(ev *event) (uint64, error) {
	ssh := s.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	// The campaign tracks its sessions for live analytics; its shard
	// follows the session's in the lock order.
	csh := s.campaigns.Shard(ev.Campaign)
	csh.Lock()
	defer csh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	// A session lives in its campaign's section of the state documents,
	// so one whose campaign this server does not hold could not be
	// written to the next snapshot.
	c, ok := csh.Get(ev.Campaign)
	if !ok {
		return 0, fmt.Errorf("session %s: %w %s", ev.ID, errNoCampaign, ev.Campaign)
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	sess := newSessionState(ev.ID, c, *ev.Worker, ev.Tests)
	ssh.Put(ev.ID, sessionEntry{live: sess})
	c.inflight = append(c.inflight, ev.ID)
	// The allocator charges the assignment as bought budget the moment it
	// is journaled — live and replay go through this same line, so pending
	// counts replay identically.
	if c.adaptive != nil {
		c.adaptive.NoteJoin(sess.videos())
	}
	s.joined.Add(1)
	s.bumpID(ev.ID)
	s.countMutation(opSession)
	return seq, nil
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
func (sess *sessionState) videos() []string {
	return assignedVideos(make([]string, 0, len(sess.Assignment)), sess.Assignment)
}

// applyEvents applies one JSON engagement batch as the wire records it
// is equivalent to, so both ingest protocols reach the tracker through
// the same code.
func (s *Server) applyEvents(ev *event) (uint64, error) {
	var buf [2]wire.Record
	return s.applyRecords(ev, AppendWireRecords(buf[:0], *ev.Batch))
}

// applyBatch applies one binary batch. On the live path ev.records
// holds the handler's decode; during replay the raw wire bytes are
// decoded here through the same pooled decoder.
func (s *Server) applyBatch(ev *event) (uint64, error) {
	recs := ev.records
	if recs == nil {
		dec := wire.GetDecoder()
		defer wire.PutDecoder(dec)
		var err error
		recs, err = dec.Decode(ev.Wire)
		if err != nil {
			return 0, fmt.Errorf("batch payload: %w", err)
		}
	}
	return s.applyRecords(ev, recs)
}

// applyRecords journals ev and folds its engagement records into the
// session's tracker (instruction records are journaled, but no §4.3
// rule reads them). Every record lands under a single session-shard
// lock acquisition and the whole event is one journal record, so a
// replayed journal either carries all of a batch or none of it.
func (s *Server) applyRecords(ev *event, recs []wire.Record) (uint64, error) {
	ssh := s.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	e, ok := ssh.Get(ev.ID)
	if !ok {
		return 0, errNoSession
	}
	// A completed session's verdict is already folded and frozen;
	// accepting more instrumentation would silently diverge from it.
	sess := e.live
	if sess == nil {
		return 0, errSessionDone
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	for i := range recs {
		if r := &recs[i]; r.Kind == wire.KindEngagement {
			sess.track.Observe(survey.VideoTrace{
				VideoID:         r.VideoID,
				LoadTime:        time.Duration(r.LoadNs),
				TimeOnVideo:     time.Duration(r.TimeOnVideoNs),
				Plays:           r.Plays,
				Pauses:          r.Pauses,
				Seeks:           r.Seeks,
				WatchedFraction: r.WatchedFraction,
				OutOfFocus:      time.Duration(r.OutOfFocusNs),
			})
		}
	}
	s.countMutation(ev.Op)
	return seq, nil
}

func (s *Server) applyResponse(ev *event) (seq uint64, done bool, err error) {
	ssh := s.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	// A completed session answers from its frozen record. Every test of
	// a frozen record is answered, so parseResponse tells a duplicate
	// from an unknown test; a record that leaves one open is still a
	// session that is done.
	sess, err := s.sessionLocked(ssh, ev.ID)
	if err != nil {
		return 0, false, err
	}
	a, err := parseResponse(sess, ev.Body)
	if err != nil {
		return 0, false, err
	}
	if sess.completed() {
		return 0, false, errSessionDone
	}
	// When this answer completes the session, the campaign shard lock
	// must span journaling and the fold: two sessions completing on one
	// campaign journal in the same order they fold, so replay reproduces
	// the completion order exactly.
	var c *campaignState
	if len(sess.answers)+1 >= len(sess.Assignment) {
		c = sess.campaign
		csh := s.campaigns.Shard(c.ID)
		csh.Lock()
		defer csh.Unlock()
	}
	ev.tr.Mark(trace.StageLockWait)
	seq, err = s.journal(ev)
	if err != nil {
		return 0, false, err
	}
	sess.answers = append(sess.answers, a)
	sess.trackAnswer(a)
	if c != nil {
		// Keyed by sess.ID, the string the campaign files the session
		// under: a map assignment replaces the key, and ev.ID is a
		// substring of the request line on the live path.
		ssh.Put(sess.ID, s.completeSession(c, sess))
	}
	s.countMutation(opResponse)
	return seq, c != nil, nil
}

// completeSession is what the completing answer does, on the live path
// and on every replay of its journal record alike: it freezes the
// session's standing, appends the session's frozen record to the
// campaign's arena and files it. The entry returned replaces the
// session's state in the index, which held the last reference to it, so
// the tracker and its traces go with the state. Caller holds both shard
// locks.
func (s *Server) completeSession(c *campaignState, sess *sessionState) sessionEntry {
	sess.track.SetCompleted()
	sess.final = sess.track.Snapshot()
	c.arena = appendFrozen(c.arena, c, sess)
	c.arenaEnds = append(c.arenaEnds, uint32(len(c.arena)))
	return sessionEntry{done: c, row: c.fileCompleted(sess)}
}

// fileCompleted is the one step every completed session goes through,
// fresh from completeSession or decoded from a restored arena (restore):
// it folds the answers into the campaign's analytics and stopper and
// files the session and its /analytics row under the next row number,
// which it returns — the row the session's record sits at in the arena.
// Caller holds the campaign's shard lock, or the campaign is not
// reachable yet: either way the campaign's completion scratch is its own.
func (c *campaignState) fileCompleted(sess *sessionState) uint32 {
	rec := c.done.record(sess, c.Kind)
	c.analytics.Complete(rec, sess.final.Final)
	if c.adaptive != nil {
		c.adaptive.Complete(rec, sess.final.Final)
	}
	c.inflight = slices.DeleteFunc(c.inflight, func(id string) bool { return id == sess.ID })
	at, _ := c.frozenAt(sess.ID)
	n := uint32(len(c.recordSessions))
	c.rowOrder = slices.Insert(c.rowOrder, at, n)
	c.recordSessions = append(c.recordSessions, sess.ID)
	c.done.verdict = sess.verdict()
	start := len(c.rows)
	c.rows = c.done.verdict.appendRow(c.rows)
	c.rowDigest += crc64.Checksum(c.rows[start:], etagTable)
	c.rows = append(c.rows, ',')
	c.rowEnds = append(c.rowEnds, uint32(len(c.rows)))
	c.done.verdict = ParticipantVerdict{} // the scratch pins no session's strings
	c.invalidate()
	return n
}

// completion is the scratch fileCompleted folds a session from, one per
// campaign and reused under its shard lock: the session's answers as the
// filtering.SessionRecord the §4.3 folds take, and its /analytics row's
// fields. Neither quality.Campaign.Complete nor adaptive.Campaign.Complete
// keeps the record or anything it points to.
type completion struct {
	rec      filtering.SessionRecord
	timeline []survey.TimelineResponse
	ab       []survey.ABResponse
	verdict  ParticipantVerdict
}

// record views the session's answers as a filtering.SessionRecord,
// control answers included (the stopper releases their pending
// assignment entries). The folds read only each answer's video, value
// and control bit — not the participant, which the record leaves nil.
// The record is valid until the next call.
func (d *completion) record(sess *sessionState, kind string) *filtering.SessionRecord {
	d.rec.Timeline, d.rec.AB = d.rec.Timeline[:0], d.rec.AB[:0]
	if kind == "ab" {
		d.ab = d.ab[:0]
		for _, a := range sess.answers {
			t := &sess.Assignment[a.Test]
			d.ab = append(d.ab, survey.ABResponse{VideoID: t.VideoID, Choice: a.Choice, AOnLeft: true, Control: t.Control})
		}
		for i := range d.ab {
			d.rec.AB = append(d.rec.AB, &d.ab[i])
		}
		return &d.rec
	}
	d.timeline = d.timeline[:0]
	for _, a := range sess.answers {
		t := &sess.Assignment[a.Test]
		d.timeline = append(d.timeline, survey.TimelineResponse{VideoID: t.VideoID, Submitted: a.Submitted, Control: t.Control})
	}
	for i := range d.timeline {
		d.rec.Timeline = append(d.rec.Timeline, &d.timeline[i])
	}
	return &d.rec
}

func (s *Server) applyFlag(ev *event) (seq uint64, flags int, banned bool, err error) {
	vsh := s.videos.Shard(ev.ID)
	vsh.Lock()
	ev.tr.Mark(trace.StageLockWait)
	v, ok := vsh.Get(ev.ID)
	if !ok {
		vsh.Unlock()
		return 0, 0, false, errNoVideo
	}
	seq, err = s.journal(ev)
	if err != nil {
		vsh.Unlock()
		return 0, 0, false, err
	}
	v.Flags[ev.Flagger] = true
	flags = len(v.Flags)
	newlyBanned := !v.Banned && flags >= BanThreshold
	if newlyBanned {
		v.Banned = true
	}
	banned = v.Banned
	c := v.campaign
	vsh.Unlock()
	if newlyBanned {
		// A ban changes the Banned bit in /results: drop the cache.
		// Taken after the video lock is released: a campaign shard comes
		// before a video shard in the lock order.
		csh := s.campaigns.Shard(c.ID)
		csh.Lock()
		c.invalidate()
		csh.Unlock()
	}
	s.countMutation(opFlag)
	return seq, flags, banned, nil
}

// parseResponse resolves the answered test and builds the answer to
// store, rejecting duplicates and malformed A/B choices before anything
// is journaled.
func parseResponse(sess *sessionState, body *ResponseBody) (answer, error) {
	a := answer{Test: -1}
	for i := range sess.Assignment {
		if sess.Assignment[i].TestID == body.TestID {
			a.Test = i
			break
		}
	}
	if a.Test < 0 {
		return a, errUnknownTest
	}
	for _, prev := range sess.answers {
		if prev.Test == a.Test {
			return a, errDuplicateTest
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
		a.Choice = survey.ChoiceLeft
	case "right":
		a.Choice = survey.ChoiceRight
	case "no difference":
		a.Choice = survey.ChoiceNoDifference
	default:
		return a, errBadChoice
	}
	// The platform's A/B controls delay the right side.
	a.ControlFailed = t.Control && a.Choice == survey.ChoiceRight
	return a, nil
}

// trackAnswer feeds one stored answer to the session's tracker.
func (sess *sessionState) trackAnswer(a answer) {
	t := &sess.Assignment[a.Test]
	if t.Kind == "ab" {
		sess.track.AddAB(&survey.ABResponse{Control: t.Control, ControlPassed: !a.ControlFailed})
	} else {
		sess.track.AddTimeline(&survey.TimelineResponse{Control: t.Control, ControlPassed: !a.ControlFailed})
	}
}

// --- state documents ---

// stateVersion is the schema version of the snapshot document; version
// 4 nests a campaign's videos and sessions in flight in its section. No
// reader for an older layout is kept: a document carrying another
// version is refused.
const stateVersion = 4

// decodeState reads the version of doc before the rest of it, so that a
// document in another layout fails on its version rather than on a field
// whose type changed, then decodes all of it into v.
func decodeState(doc string, data []byte, v any) error {
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %w", doc, err)
	}
	if head.Version != stateVersion {
		return fmt.Errorf("%s has schema version %d, this server reads only version %d", doc, head.Version, stateVersion)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", doc, err)
	}
	return nil
}

// A campaign's section is the one form its state takes in a document: a
// snapshot is the counters and every campaign's section. The analytics,
// stopper state and /analytics rows are NOT serialized: a section carries
// its completed sessions' IDs in completion order and their frozen
// records as the arena's bytes, and restore walks the arena once,
// re-folding each record through fileCompleted, keeping the document
// small and the rebuild exact.

type snapState struct {
	Version   int            `json:"version"`
	NextID    int64          `json:"next_id"`
	Joined    int64          `json:"joined"`
	Campaigns []snapCampaign `json:"campaigns,omitempty"`
}

// snapCampaign is one campaign's section: its videos in the campaign's
// order; its completed sessions, which Records names in completion order,
// with Arena their frozen records back to back (base64 in the document)
// and ArenaEnds where each one ends, so record i is Records[i]'s; and its
// sessions in flight, in ID order.
type snapCampaign struct {
	ID        string        `json:"id"`
	Name      string        `json:"name"`
	Kind      string        `json:"kind"`
	Videos    []snapVideo   `json:"videos,omitempty"`
	Records   []string      `json:"records,omitempty"`
	Arena     []byte        `json:"arena,omitempty"`
	ArenaEnds []uint32      `json:"arena_ends,omitempty"`
	Inflight  []snapSession `json:"inflight,omitempty"`
	// Moved is never written. Builds with a cluster tier set it on a
	// campaign handed off to another node; it is read only so that
	// restore refuses such a section instead of serving the campaign.
	Moved string `json:"moved,omitempty"`
}

// snapSession is one session in flight: its answers so far and the
// tracker's latest trace per video.
type snapSession struct {
	ID      string                       `json:"id"`
	Worker  Worker                       `json:"worker"`
	Tests   []AssignedTest               `json:"tests"`
	Answers []answer                     `json:"answers,omitempty"`
	Traces  map[string]survey.VideoTrace `json:"traces,omitempty"`
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
func (s *Server) section(c *campaignState) (snapCampaign, error) {
	cn := snapCampaign{
		ID: c.ID, Name: c.Name, Kind: c.Kind,
		Videos:    make([]snapVideo, len(c.Videos)),
		Records:   c.recordSessions,
		Arena:     c.arena,
		ArenaEnds: c.arenaEnds,
		Inflight:  make([]snapSession, len(c.inflight)),
	}
	for i, vid := range c.Videos {
		v, ok := s.videos.Get(vid)
		if !ok {
			return cn, fmt.Errorf("campaign %s references unknown video %s", c.ID, vid)
		}
		cn.Videos[i] = snapVideo{ID: v.ID, Hash: v.Hash, Size: v.Size, Flags: sortedKeys(v.Flags), Banned: v.Banned}
	}
	for i, sid := range c.inflight {
		e, _ := s.sessions.Get(sid) // in flight: indexed at join, with its state
		sess := e.live
		cn.Inflight[i] = snapSession{ID: sess.ID, Worker: sess.Worker, Tests: sess.Assignment, Answers: sess.answers, Traces: sess.track.Traces()}
	}
	sort.Slice(cn.Inflight, func(i, j int) bool { return cn.Inflight[i].ID < cn.Inflight[j].ID })
	return cn, nil
}

// marshalState serializes the full platform state: the counters and
// every campaign's section, in ID order. Caller holds the world lock
// exclusively.
func (s *Server) marshalState() ([]byte, error) {
	st := snapState{Version: stateVersion, NextID: s.nextID.Load(), Joined: s.joined.Load()}
	var err error
	s.campaigns.Range(func(_ string, c *campaignState) bool {
		var cn snapCampaign
		cn, err = s.section(c)
		st.Campaigns = append(st.Campaigns, cn)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(st.Campaigns, func(i, j int) bool { return st.Campaigns[i].ID < st.Campaigns[j].ID })
	return json.Marshal(&st)
}

// restored is a section decoded and checked but not reachable yet: the
// campaign with its completed sessions filed, its videos and its
// sessions in flight.
type restored struct {
	c        *campaignState
	videos   []*videoState
	inflight []*sessionState
}

// restore decodes and checks section cn, so a restored campaign is
// field-for-field the one a replay of its journal would have produced.
// It builds the videos, walks the arena re-folding every completed
// session, and re-feeds each session in flight's tracker, touching no
// index: every failure is an error naming the campaign, returned before
// anything is installed.
func (s *Server) restore(cn *snapCampaign) (*restored, error) {
	if cn.Moved != "" {
		return nil, fmt.Errorf("campaign %s was handed off to cluster node %s; this server runs one node and does not serve a campaign another node owns", cn.ID, cn.Moved)
	}
	c := &campaignState{
		ID: cn.ID, Name: cn.Name, Kind: cn.Kind,
		Videos:         make([]string, len(cn.Videos)),
		recordSessions: make([]string, 0, len(cn.Records)),
		arena:          cn.Arena,
		arenaEnds:      cn.ArenaEnds,
		analytics:      quality.NewCampaign(cn.Kind),
	}
	r := &restored{c: c, videos: make([]*videoState, len(cn.Videos))}
	for i, vn := range cn.Videos {
		// Same refusals as applyVideo: a video nothing can serve must not
		// be assigned to participants.
		if vn.Hash == "" {
			return nil, fmt.Errorf("campaign %s video %s carries no content hash", cn.ID, vn.ID)
		}
		if !s.blobs.Has(vn.Hash) {
			return nil, fmt.Errorf("campaign %s video %s references missing blob %s", cn.ID, vn.ID, vn.Hash)
		}
		v := newVideoState(vn.ID, c, vn.Hash, vn.Size)
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
	// join may be noted beside its completion, not in join order.
	if s.adaptive {
		c.adaptive = adaptive.New(cn.Kind, s.adaptiveCfg)
		for _, vid := range c.Videos {
			c.adaptive.AddVideo(vid)
		}
	}
	// The arena is kept as it came; one walk checks every record and
	// re-folds it in recorded completion order — the order the journal
	// produced them.
	if len(cn.ArenaEnds) != len(cn.Records) {
		return nil, fmt.Errorf("campaign %s has %d frozen records for %d completed sessions", cn.ID, len(cn.ArenaEnds), len(cn.Records))
	}
	start := uint32(0)
	for row, sid := range cn.Records {
		end := cn.ArenaEnds[row]
		if end < start || uint64(end) > uint64(len(cn.Arena)) {
			return nil, fmt.Errorf("campaign %s row %d (session %s): record ends at byte %d, not within %d..%d", cn.ID, row, sid, end, start, len(cn.Arena))
		}
		sess, err := decodeFrozen(c, sid, cn.Arena[start:end])
		if err != nil {
			return nil, fmt.Errorf("campaign %s row %d (session %s): %w", cn.ID, row, sid, err)
		}
		if c.adaptive != nil {
			c.adaptive.NoteJoin(sess.videos())
		}
		c.fileCompleted(sess)
		start = end
	}
	if int(start) != len(cn.Arena) {
		return nil, fmt.Errorf("campaign %s: %d arena bytes follow its last record", cn.ID, len(cn.Arena)-int(start))
	}
	for _, sn := range cn.Inflight {
		if _, frozen := c.frozenAt(sn.ID); frozen {
			return nil, fmt.Errorf("campaign %s lists session %s both completed and in flight", cn.ID, sn.ID)
		}
		// The tracker is a pure function of the latest per-video traces and
		// the answer list, both order-independent here, so map iteration
		// order cannot diverge the rebuild.
		sess := newSessionState(sn.ID, c, sn.Worker, sn.Tests)
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
// this server already holds, which installing it would overwrite.
func (s *Server) held(r *restored) error {
	if _, ok := s.campaigns.Get(r.c.ID); ok {
		return fmt.Errorf("campaign %s: %w", r.c.ID, errCampaignExists)
	}
	for _, v := range r.videos {
		if _, ok := s.videos.Get(v.ID); ok {
			return fmt.Errorf("campaign %s video %s is already held here", r.c.ID, v.ID)
		}
	}
	for _, sid := range slices.Concat(r.c.inflight, r.c.recordSessions) {
		if _, ok := s.sessions.Get(sid); ok {
			return fmt.Errorf("campaign %s session %s is already held here", r.c.ID, sid)
		}
	}
	return nil
}

// install makes a restored section reachable: it puts its videos,
// sessions and campaign into the indexes and moves the ID counter past
// them. It cannot fail; restore checked everything first.
func (s *Server) install(r *restored) {
	c := r.c
	for _, v := range r.videos {
		s.videos.Put(v.ID, v)
		s.bumpID(v.ID)
	}
	for _, sess := range r.inflight {
		s.sessions.Put(sess.ID, sessionEntry{live: sess})
		s.bumpID(sess.ID)
	}
	for row, sid := range c.recordSessions {
		s.sessions.Put(sid, sessionEntry{done: c, row: uint32(row)})
		s.bumpID(sid)
	}
	s.campaigns.Put(c.ID, c)
	s.bumpID(c.ID)
}

// loadState rebuilds the indexes from a snapshot, restoring and
// installing one section at a time. Runs before the server accepts
// requests, so unlocked convenience accessors suffice.
func (s *Server) loadState(data []byte) error {
	var st snapState
	if err := decodeState("snapshot", data, &st); err != nil {
		return err
	}
	s.nextID.Store(st.NextID)
	s.joined.Store(st.Joined)
	for i := range st.Campaigns {
		r, err := s.restore(&st.Campaigns[i])
		if err == nil {
			err = s.held(r)
		}
		if err != nil {
			return err
		}
		s.install(r)
	}
	return nil
}
