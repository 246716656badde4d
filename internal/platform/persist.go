// Persistence: the journal event schema, the apply functions shared by
// live handlers and crash recovery, and the snapshot encode/decode.
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
	// opHandoff fences a campaign that moved to another cluster node;
	// opImport installs a campaign received from one (its whole export in
	// a single record, so a replayed journal either has the whole
	// campaign or none of it).
	opHandoff = "handoff"
	opImport  = "import"
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
	// Target is an opHandoff record's destination node; State is an
	// opImport record's campaignExport document.
	Target string          `json:"target,omitempty"`
	State  json.RawMessage `json:"state,omitempty"`
	// LegacyTail is read, never written: earlier builds exported a
	// campaign before fencing it and put what the old owner journaled in
	// between in the import record under "tail". applyImport refuses a
	// record that carries one rather than silently drop its mutations.
	LegacyTail []json.RawMessage `json:"tail,omitempty"`

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
	case opHandoff:
		_, err := s.applyHandoff(ev)
		return err
	case opImport:
		_, err := s.applyImport(ev)
		return err
	default:
		return fmt.Errorf("unknown journal op %q", ev.Op)
	}
}

// campaignMoved is the lock-free fencing check session- and video-
// scoped mutations run before journaling: once a campaign is handed
// off, nothing may double-apply on the old owner.
func (s *Server) campaignMoved(campaign string) error {
	if t, ok := s.moved.Load(campaign); ok {
		return fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, campaign, t)
	}
	return nil
}

// --- apply functions (journal + mutate under shard locks) ---
//
// Each returns the journal sequence its record was buffered at (0 in
// memory mode / replay); mutate awaits that sequence's durability after
// every shard lock is back on the hook. Each checks everything that can
// fail before it journals, so once it has a sequence it succeeds; only
// applyImport, whose document is installed after its record, can fail
// after journaling, and it returns the sequence with its error.

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
	if c.movedTo != "" {
		return 0, fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, c.ID, c.movedTo)
	}
	if ev.Hash == "" {
		return 0, fmt.Errorf("video %s: record carries no content hash", ev.ID)
	}
	// Same refusal as restoreVideo: a video nothing can serve must not be
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
	// The campaign's own ID string, not the record's: on the live path
	// that is a substring of the upload's request line.
	vsh.Put(ev.ID, newVideoState(ev.ID, c.ID, ev.Hash, ev.Size))
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
	c, ok := csh.Get(ev.Campaign)
	if ok && c.movedTo != "" {
		return 0, fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, c.ID, c.movedTo)
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	// The session names its campaign by the campaign's own string rather
	// than the join body's copy of it.
	campaign := ev.Campaign
	if ok {
		campaign = c.ID
	}
	ssh.Put(ev.ID, sessionEntry{live: &sessionState{
		ID:         ev.ID,
		Campaign:   campaign,
		Worker:     *ev.Worker,
		Assignment: ev.Tests,
		answers:    make([]answer, 0, len(ev.Tests)),
		track:      quality.NewTracker(assignedVideos(ev.Tests)),
	}})
	if ok {
		c.inflight = append(c.inflight, ev.ID)
		// The allocator charges the assignment as bought budget the
		// moment it is journaled — live and replay go through this same
		// line, so pending counts replay identically.
		if c.adaptive != nil {
			c.adaptive.NoteJoin(assignedVideos(ev.Tests))
		}
	}
	s.joined.Add(1)
	s.bumpID(ev.ID)
	s.countMutation(opSession)
	return seq, nil
}

// assignedVideos flattens an assignment to one video ID per test, the
// multiplicity-aware shape the quality tracker weights counters by.
func assignedVideos(tests []AssignedTest) []string {
	vids := make([]string, len(tests))
	for i, t := range tests {
		vids[i] = t.VideoID
	}
	return vids
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
	if err := s.campaignMoved(sess.Campaign); err != nil {
		return 0, err
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
	// a record this server wrote is answered, so parseResponse tells a
	// duplicate from an unknown test; an imported record that leaves one
	// open is still a session that is done.
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
	if err := s.campaignMoved(sess.Campaign); err != nil {
		return 0, false, err
	}
	// When this answer completes the session, the campaign shard lock
	// must span journaling and the fold: two sessions completing on one
	// campaign journal in the same order they fold, so replay reproduces
	// the completion order exactly.
	var c *campaignState
	if len(sess.answers)+1 >= len(sess.Assignment) {
		csh := s.campaigns.Shard(sess.Campaign)
		csh.Lock()
		defer csh.Unlock()
		var ok bool
		if c, ok = csh.Get(sess.Campaign); !ok {
			return 0, false, errNoCampaign
		}
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
// session's standing, releases the tracker with its traces, appends the
// session's frozen record to the campaign's arena and files it. The
// entry returned replaces the session's state in the index, which held
// the last reference to it. Caller holds both shard locks.
func (s *Server) completeSession(c *campaignState, sess *sessionState) sessionEntry {
	sess.track.SetCompleted()
	sess.final = sess.track.Snapshot()
	sess.track = nil
	c.arena = appendFrozen(c.arena, c, sess)
	c.arenaEnds = append(c.arenaEnds, uint32(len(c.arena)))
	s.completedN.Add(1)
	return sessionEntry{done: c, row: c.fileCompleted(sess)}
}

// fileCompleted is the one step every completed session goes through,
// fresh from completeSession or decoded from a loaded arena
// (restoreCampaign): it folds the answers into the campaign's analytics
// and stopper and files the session and its /analytics row under the
// next row number, which it returns — the row the session's record sits
// at in the arena. Caller holds the campaign's shard lock, or the
// campaign is not reachable yet.
func (c *campaignState) fileCompleted(sess *sessionState) uint32 {
	rec := sess.record(c.Kind)
	c.analytics.Complete(rec, sess.final.Final)
	if c.adaptive != nil {
		c.adaptive.Complete(rec, sess.final.Final)
	}
	c.inflight = slices.DeleteFunc(c.inflight, func(id string) bool { return id == sess.ID })
	at, _ := c.frozenAt(sess.ID)
	n := uint32(len(c.recordSessions))
	c.rowOrder = slices.Insert(c.rowOrder, at, n)
	c.recordSessions = append(c.recordSessions, sess.ID)
	row := sess.verdictRow()
	c.rows = append(append(c.rows, row...), ',')
	c.rowEnds = append(c.rowEnds, uint32(len(c.rows)))
	c.rowDigest += crc64.Checksum(row, etagTable)
	c.invalidate()
	return n
}

// record views the session's answers as the filtering.SessionRecord the
// §4.3 folds take, control answers included (the stopper releases their
// pending assignment entries). The folds read only each answer's video,
// value and control bit — not the participant, which the record leaves
// nil — and keep none of it, so one backing array serves all answers
// and nothing outlives the call.
func (sess *sessionState) record(kind string) *filtering.SessionRecord {
	rec := &filtering.SessionRecord{}
	n := len(sess.answers)
	if kind == "ab" {
		resp := make([]survey.ABResponse, n)
		rec.AB = make([]*survey.ABResponse, n)
		for i, a := range sess.answers {
			t := &sess.Assignment[a.Test]
			resp[i] = survey.ABResponse{VideoID: t.VideoID, Choice: a.Choice, AOnLeft: true, Control: t.Control}
			rec.AB[i] = &resp[i]
		}
		return rec
	}
	resp := make([]survey.TimelineResponse, n)
	rec.Timeline = make([]*survey.TimelineResponse, n)
	for i, a := range sess.answers {
		t := &sess.Assignment[a.Test]
		resp[i] = survey.TimelineResponse{VideoID: t.VideoID, Submitted: a.Submitted, Control: t.Control}
		rec.Timeline[i] = &resp[i]
	}
	return rec
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
	if err := s.campaignMoved(v.Campaign); err != nil {
		vsh.Unlock()
		return 0, 0, false, err
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
	campaign := v.Campaign
	vsh.Unlock()
	if newlyBanned {
		// A ban changes the Banned bit in /results: drop the cache.
		// Taken after the video lock is released: a campaign shard comes
		// before a video shard in the lock order.
		csh := s.campaigns.Shard(campaign)
		csh.Lock()
		if c, ok := csh.Get(campaign); ok {
			c.invalidate()
		}
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

// --- snapshots ---

// stateVersion is the schema version of the snapshot and campaign-export
// documents. Version 3 carries a campaign's completed sessions as its
// arena of frozen records; version 2 listed each one as a session DTO,
// and the unversioned layout before it serialized per-session traces
// that a completed session no longer has. No reader for either is kept:
// a document carrying any other version is refused.
const stateVersion = 3

func checkStateVersion(doc string, got int) error {
	if got != stateVersion {
		return fmt.Errorf("%s has schema version %d, this server reads only version %d", doc, got, stateVersion)
	}
	return nil
}

// The snapshot is a JSON document of plain DTOs. The analytics, stopper
// state and /analytics rows are NOT serialized: a campaign carries its
// completed sessions' IDs in completion order and their frozen records
// as the arena's bytes, and load walks the arena once, re-folding each
// record through fileCompleted, keeping the snapshot small and the
// rebuild exact.

type snapState struct {
	Version   int             `json:"version"`
	NextID    int64           `json:"next_id"`
	Joined    int64           `json:"joined"`
	Campaigns []*snapCampaign `json:"campaigns,omitempty"`
	Sessions  []*snapSession  `json:"sessions,omitempty"`
	Videos    []*snapVideo    `json:"videos,omitempty"`
}

// snapCampaign is one campaign. Records names its completed sessions in
// completion order; Arena is their frozen records back to back (base64
// in the document) and ArenaEnds where each one ends, so record i is
// Records[i]'s. Its sessions in flight are the document's session DTOs
// that name it. (Documents written before the join-order list was
// dropped also carry a "sessions" key here; it is ignored.)
type snapCampaign struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	Kind      string   `json:"kind"`
	Videos    []string `json:"videos,omitempty"`
	Records   []string `json:"records,omitempty"`
	Arena     []byte   `json:"arena,omitempty"`
	ArenaEnds []uint32 `json:"arena_ends,omitempty"`
	Moved     string   `json:"moved,omitempty"` // node the campaign was handed off to
}

// snapSession is one session in flight: its answers so far and the
// tracker's latest trace per video. Completed sessions are not listed;
// their campaign's arena has them.
type snapSession struct {
	ID       string                       `json:"id"`
	Campaign string                       `json:"campaign"`
	Worker   Worker                       `json:"worker"`
	Tests    []AssignedTest               `json:"tests"`
	Answers  []answer                     `json:"answers,omitempty"`
	Traces   map[string]survey.VideoTrace `json:"traces,omitempty"`
}

// snapVideo references its payload by content address; the blob file is
// durable independently of the snapshot.
type snapVideo struct {
	ID       string   `json:"id"`
	Campaign string   `json:"campaign"`
	Hash     string   `json:"hash"`
	Size     int64    `json:"size,omitempty"`
	Flags    []string `json:"flags,omitempty"`
	Banned   bool     `json:"banned,omitempty"`
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

// exportCampaignState, exportSessionState and exportVideoState turn
// live state into snapshot DTOs; marshalState and exportCampaign share
// them. Callers hold the world lock (exclusively), so reads are a
// consistent cut.
func exportCampaignState(c *campaignState) *snapCampaign {
	return &snapCampaign{
		ID: c.ID, Name: c.Name, Kind: c.Kind,
		Videos:    c.Videos,
		Records:   c.recordSessions,
		Arena:     c.arena,
		ArenaEnds: c.arenaEnds,
		Moved:     c.movedTo,
	}
}

func exportSessionState(sess *sessionState) *snapSession {
	return &snapSession{
		ID:       sess.ID,
		Campaign: sess.Campaign,
		Worker:   sess.Worker,
		Tests:    sess.Assignment,
		Answers:  sess.answers,
		Traces:   sess.track.Traces(),
	}
}

func exportVideoState(v *videoState) *snapVideo {
	return &snapVideo{
		ID: v.ID, Campaign: v.Campaign, Hash: v.Hash, Size: v.Size,
		Flags: sortedKeys(v.Flags), Banned: v.Banned,
	}
}

// marshalState serializes the full platform state. Caller holds the
// world lock exclusively, so shard-by-shard iteration is a consistent
// cut.
func (s *Server) marshalState() ([]byte, error) {
	st := snapState{Version: stateVersion, NextID: s.nextID.Load(), Joined: s.joined.Load()}
	s.campaigns.Range(func(_ string, c *campaignState) bool {
		st.Campaigns = append(st.Campaigns, exportCampaignState(c))
		return true
	})
	s.sessions.Range(func(_ string, e sessionEntry) bool {
		if e.live != nil {
			st.Sessions = append(st.Sessions, exportSessionState(e.live))
		}
		return true
	})
	s.videos.Range(func(_ string, v *videoState) bool {
		st.Videos = append(st.Videos, exportVideoState(v))
		return true
	})
	sort.Slice(st.Campaigns, func(i, j int) bool { return st.Campaigns[i].ID < st.Campaigns[j].ID })
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	sort.Slice(st.Videos, func(i, j int) bool { return st.Videos[i].ID < st.Videos[j].ID })
	return json.Marshal(&st)
}

// restoreSession rebuilds one in-flight session from its DTO, its
// tracker re-fed. loadState and applyImport share it so a migrated
// session is field-for-field the session a local replay would have
// produced.
func restoreSession(sn *snapSession) (*sessionState, error) {
	sess := &sessionState{
		ID:         sn.ID,
		Campaign:   sn.Campaign,
		Worker:     sn.Worker,
		Assignment: sn.Tests,
		answers:    sn.Answers,
		// The tracker is a pure function of the latest per-video traces
		// and the answer list, both order-independent here, so map
		// iteration order cannot diverge the rebuild.
		track: quality.NewTracker(assignedVideos(sn.Tests)),
	}
	for _, tr := range sn.Traces {
		sess.track.Observe(tr)
	}
	for _, a := range sess.answers {
		if a.Test < 0 || a.Test >= len(sess.Assignment) {
			return nil, fmt.Errorf("snapshot session %s answers test %d of %d", sn.ID, a.Test, len(sess.Assignment))
		}
		sess.trackAnswer(a)
	}
	return sess, nil
}

// restoreVideo rebuilds one video from its DTO, verifying that the blob
// it names is present.
func (s *Server) restoreVideo(vn *snapVideo) (*videoState, error) {
	if vn.Hash == "" {
		return nil, fmt.Errorf("snapshot video %s carries no content hash", vn.ID)
	}
	if !s.blobs.Has(vn.Hash) {
		return nil, fmt.Errorf("snapshot video %s references missing blob %s", vn.ID, vn.Hash)
	}
	v := newVideoState(vn.ID, vn.Campaign, vn.Hash, vn.Size)
	v.Banned = vn.Banned
	for _, worker := range vn.Flags {
		v.Flags[worker] = true
	}
	return v, nil
}

// restoreCampaign rebuilds one campaign from its DTO and those of its
// sessions in flight and, once all of it checked out, indexes its
// completed sessions. The caller has put the in-flight sessions in the
// sessions index; the campaign itself is not reachable until the caller
// puts it in its own.
func (s *Server) restoreCampaign(cn *snapCampaign, inflight []*snapSession) (*campaignState, error) {
	c := &campaignState{
		ID: cn.ID, Name: cn.Name, Kind: cn.Kind,
		Videos:         cn.Videos,
		recordSessions: make([]string, 0, len(cn.Records)),
		arena:          cn.Arena,
		arenaEnds:      cn.ArenaEnds,
		analytics:      quality.NewCampaign(cn.Kind),
		movedTo:        cn.Moved,
	}
	// Adaptive state is never snapshotted: it is a pure fold over
	// (videos, joins, completions) under a fixed config, so it is
	// re-derived here exactly as the live path derived it — the
	// crash-replay determinism contract. A join only counts its videos as
	// pending and a completion counts them back, so a completed session's
	// join may be noted beside its completion, not in join order.
	if s.adaptive {
		c.adaptive = adaptive.New(cn.Kind, s.adaptiveCfg)
		for _, vid := range cn.Videos {
			c.adaptive.AddVideo(vid)
		}
	}
	// The arena is installed as it came; one walk checks every record and
	// re-folds it in recorded completion order — the order the journal
	// produced them.
	if len(cn.ArenaEnds) != len(cn.Records) {
		return nil, fmt.Errorf("snapshot campaign %s has %d frozen records for %d completed sessions", cn.ID, len(cn.ArenaEnds), len(cn.Records))
	}
	start := uint32(0)
	for row, sid := range cn.Records {
		end := cn.ArenaEnds[row]
		if end < start || uint64(end) > uint64(len(cn.Arena)) {
			return nil, fmt.Errorf("snapshot campaign %s row %d (session %s): record ends at byte %d, not within %d..%d", cn.ID, row, sid, end, start, len(cn.Arena))
		}
		sess, err := decodeFrozen(c, sid, cn.Arena[start:end])
		if err != nil {
			return nil, fmt.Errorf("snapshot campaign %s row %d (session %s): %w", cn.ID, row, sid, err)
		}
		if c.adaptive != nil {
			c.adaptive.NoteJoin(assignedVideos(sess.Assignment))
		}
		c.fileCompleted(sess)
		start = end
	}
	if int(start) != len(cn.Arena) {
		return nil, fmt.Errorf("snapshot campaign %s: %d arena bytes follow its last record", cn.ID, len(cn.Arena)-int(start))
	}
	for _, sn := range inflight {
		if sn.Campaign != cn.ID {
			return nil, fmt.Errorf("snapshot session %s belongs to campaign %s, not %s", sn.ID, sn.Campaign, cn.ID)
		}
		if _, frozen := c.frozenAt(sn.ID); frozen {
			return nil, fmt.Errorf("snapshot campaign %s lists session %s both completed and in flight", cn.ID, sn.ID)
		}
		c.inflight = append(c.inflight, sn.ID)
		if c.adaptive != nil {
			c.adaptive.NoteJoin(assignedVideos(sn.Tests))
		}
	}
	for row, sid := range cn.Records {
		s.sessions.Put(sid, sessionEntry{done: c, row: uint32(row)})
	}
	s.completedN.Add(int64(len(cn.Records)))
	if cn.Moved != "" {
		s.moved.Store(cn.ID, cn.Moved)
	}
	return c, nil
}

// loadState rebuilds the indexes from a snapshot. Runs before the
// server accepts requests, so unlocked convenience accessors suffice.
func (s *Server) loadState(data []byte) error {
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if err := checkStateVersion("snapshot", st.Version); err != nil {
		return err
	}
	s.nextID.Store(st.NextID)
	s.joined.Store(st.Joined)
	inflight := map[string][]*snapSession{} // by campaign
	for _, sn := range st.Sessions {
		sess, err := restoreSession(sn)
		if err != nil {
			return err
		}
		s.sessions.Put(sn.ID, sessionEntry{live: sess})
		inflight[sn.Campaign] = append(inflight[sn.Campaign], sn)
	}
	for _, vn := range st.Videos {
		v, err := s.restoreVideo(vn)
		if err != nil {
			return err
		}
		s.videos.Put(vn.ID, v)
	}
	for _, cn := range st.Campaigns {
		c, err := s.restoreCampaign(cn, inflight[cn.ID])
		if err != nil {
			return err
		}
		s.campaigns.Put(cn.ID, c)
	}
	for _, sn := range st.Sessions {
		if _, ok := s.campaigns.Get(sn.Campaign); !ok {
			return fmt.Errorf("snapshot session %s belongs to campaign %s, which the snapshot does not carry", sn.ID, sn.Campaign)
		}
	}
	return nil
}
