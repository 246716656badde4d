// Package state is the campaign state machine of the Eyeorg platform:
// the campaigns, videos and participant sessions, the journal op table
// that changes them, the frozen records completed sessions become, the
// state documents snapshots carry, and the §4.3 fold (internal/quality)
// and adaptive stopper (internal/adaptive) they feed. Every result the
// platform serves is a fold over this package's ops.
//
// The package imports no net/http and no telemetry (TestStateDeps at the
// repository root holds it to that): internal/platform decodes requests,
// builds an Event and calls Apply, and answers from the queries below.
// State is the only taker of its locks — world, held shared by Apply and
// exclusively by Snapshot, then a session shard, a campaign shard, a
// video shard — in the order internal/store's doc.go writes down; a
// query takes its shard locks and releases them before it returns.
package state

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/response"
	"github.com/eyeorg/eyeorg/internal/store"
)

// BanThreshold is how many distinct participants must flag a video before
// it is automatically banned.
const BanThreshold = 5

// TestsPerSession is the assignment size (6 videos + 1 control).
const TestsPerSession = 7

// maxIDTail bounds the number a caller-supplied campaign ID may end in
// (2^53): the ID counter moves past every ID it indexes, and a tail near
// the top of an int64 would wrap the counter, so a minted ID could repeat
// one already held. Every ID the counter mints stays far below it.
const maxIDTail = 1 << 53

// Lookup and apply failures; internal/platform maps each to a status.
var (
	ErrNoCampaign    = errors.New("no such campaign")
	ErrNoSession     = errors.New("no such session")
	ErrNoVideo       = errors.New("no such video")
	ErrUnknownTest   = errors.New("unknown test")
	ErrDuplicateTest = errors.New("test already answered")
	ErrSessionDone   = errors.New("session already complete")
	ErrBadChoice     = errors.New("choice must be left, right or no difference")
	// ErrCampaignClosed refuses joins once the adaptive stopper resolved
	// every comparison — the same 409 shape a fully-banned video set gets.
	ErrCampaignClosed = errors.New("campaign closed: every comparison resolved")
	ErrNoUsableVideos = errors.New("campaign has no usable videos")
	// ErrCampaignExists refuses a caller-supplied campaign ID that is
	// already present; ErrHeld a video or session record whose ID is.
	ErrCampaignExists = errors.New("campaign already exists")
	ErrHeld           = errors.New("id already held")
	// ErrSpillCorrupt is a completed session's bytes failing their check
	// (spill.go); every later read of the same bytes fails the same way.
	ErrSpillCorrupt = errors.New("spilled bytes corrupt")
	// ErrInvalidValue refuses a record for a value it carries (a
	// duration out of range, a flag without a flagger, ...); the
	// refusal's own text names the field.
	ErrInvalidValue = errors.New("record carries an invalid value")
)

// State is the platform's campaign state. Its methods are safe for
// concurrent use.
type State struct {
	campaigns *store.Map[*Campaign]
	// sessions holds the sessions in flight. A completed one lives only in
	// its campaign, which frozenLocked finds it in.
	sessions *store.Map[*Session]
	videos   *store.Map[*Video]
	blobs    *blob.Store
	adaptive *adaptive.Config

	nextID atomic.Int64
	joined atomic.Int64 // sessions ever created (persisted)
	// assign hands each join a unique round-robin offset. Drawn with
	// Add so concurrent joins never share an assignment; seeded from
	// joined by Recover so coverage continues across restarts.
	assign atomic.Int64

	// world is held shared by every Apply and exclusively by Snapshot
	// alone, which gives a state document a quiescent point without
	// funnelling the request path through one serial lock.
	world sync.RWMutex
	// log is the journal Apply appends to; nil in memory and during
	// Recover's replay. disk is the same journal from the start of
	// Recover on, as the owner of the campaigns' files (spill.go); nil in
	// memory.
	log, disk *store.Log
	closed    atomic.Bool // Close has run
}

// New returns an empty state whose indexes have store.DefaultShards
// shards each. blobs holds every video payload: a video whose blob it
// lacks is refused. With adaptive set, every campaign gets a sequential
// stopper of that configuration.
func New(blobs *blob.Store, adaptive *adaptive.Config) *State {
	return &State{
		campaigns: store.NewMap[*Campaign](store.DefaultShards),
		sessions:  store.NewMap[*Session](store.DefaultShards),
		videos:    store.NewMap[*Video](store.DefaultShards),
		blobs:     blobs,
		adaptive:  adaptive,
	}
}

// Campaign is one campaign. ID, Name and Kind never change; the rest is
// guarded by the campaign's shard lock, so a reader outside this package
// reads it only while no op applies.
type Campaign struct {
	ID     string
	Name   string
	Kind   string // "timeline" | "ab"
	Videos []string

	// ids is the completed sessions' IDs, one piece each in completion
	// order — the order a snapshot load re-folds them into analytics —
	// packed in one arena that never spills and whose written bytes never
	// change, so an ID read from it (completedID) is a view that stays
	// valid however the arena grows. It is the only copy a completed
	// session's ID keeps.
	// cache is the rendered /results body and cacheTag its ETag, as the
	// header value a reply assigns, both nil when stale.
	ids      stream
	cache    []byte
	cacheTag []string

	// The completed sessions, one piece each in completion order (piece i
	// is completedID(i)'s), in two streams (spill.go) whose first
	// spilled pieces are in files: records, all that is left of them, each
	// one's ID and frozen record (frozen.go) in a checked frame, which a
	// lookup that misses the sessions index finds through rowOrder
	// (frozenLocked); and rows, each one's /analytics row, rendered once
	// by fileCompleted.
	records, rows stream
	spilled       uint32

	// rowOrder lists row numbers ascending by session ID, the payload's
	// order; rowDigest sums the rows' checksums, so the /analytics ETag
	// does not depend on the order they arrived in. inflight lists the
	// sessions not yet completed, in no order that reaches a reply.
	// Rebuilt on load, never serialized.
	rowOrder  []uint32
	rowDigest uint64
	inflight  []string

	// analytics is the incremental §4.3 aggregate folded in as sessions
	// complete — what /results and the /analytics summary and bands
	// render from.
	analytics *quality.Campaign
	// done is the scratch fileCompleted folds and renders a completing
	// session from.
	done completion
	// adaptive is the sequential stopper/allocator (nil unless the state
	// has Config.Adaptive). Its state is a pure fold over the journaled
	// events, so it is never snapshotted: restore rebuilds it from the
	// campaign's section.
	adaptive *adaptive.Campaign
}

// Completed lists the campaign's completed sessions in completion order,
// each ID a view of the campaign's arena (completedID).
func (c *Campaign) Completed() []string {
	ids := make([]string, len(c.ids.ends))
	for i := range ids {
		ids[i] = c.completedID(uint32(i))
	}
	return ids
}

// completedID returns completed session i's ID as a view of the arena,
// with no copy: the arena's written bytes never change.
func (c *Campaign) completedID(i uint32) string {
	id := c.ids.span(nil, i, i+1, 0)
	return unsafe.String(unsafe.SliceData(id), len(id))
}

// Analytics is the campaign's incremental §4.3 fold.
func (c *Campaign) Analytics() *quality.Campaign { return c.analytics }

// Adaptive is the campaign's stopper: nil unless the state runs
// adaptive campaigns.
func (c *Campaign) Adaptive() *adaptive.Campaign { return c.adaptive }

// invalidate drops the rendered /results body and its ETag. Caller
// holds the campaign's shard lock; every mutation that changes what
// /results would say (video add, session completion, ban) goes through
// here so conditional GETs can trust the tag.
func (c *Campaign) invalidate() {
	c.cache = nil
	c.cacheTag = nil
}

// Video is one video of a campaign, guarded by its shard lock.
type Video struct {
	ID       string
	Campaign *Campaign
	VideoHead
	Flags  map[string]bool
	Banned bool
}

// VideoHead is what GET /videos/{id} serves of a video besides its bytes:
// the content address of the EYV1 payload in the blob store, the strong
// content-hash validator, and the validator and the size as reply header
// values. All of it is rendered once at creation and never written to, so
// the read path builds no strings and a copy may outlive the shard lock.
type VideoHead struct {
	Hash                   string
	Size                   int64
	ETag                   string
	ETagValue, LengthValue []string
}

// newVideo builds campaign c's video index entry around its content
// address.
func newVideo(id string, c *Campaign, hash string, size int64) *Video {
	etag := `"` + hash + `"`
	return &Video{
		ID: id, Campaign: c,
		VideoHead: VideoHead{
			Hash: hash, Size: size, ETag: etag,
			ETagValue:   []string{etag},
			LengthValue: []string{strconv.FormatInt(size, 10)},
		},
		Flags: map[string]bool{},
	}
}

// Session is one participant session in flight, guarded by its shard
// lock; completion encodes it into its campaign's records and drops it from
// the sessions index (see completeSession). Its tracker and the answers'
// storage are its own fields, so the state is one object beside its
// tracker's entries and its strings. A completed session takes this form
// again only in passing, decoded from its record (decodeFrozen) to answer
// a late request or to be folded on load: final, the standing frozen when
// the session completed, is set then and the tracker is empty.
type Session struct {
	ID         string
	Campaign   *Campaign
	Worker     Worker
	Assignment []AssignedTest
	// answers holds one entry per answered test, in answer order. It is
	// what duplicate detection scans and what completion folds into the
	// campaign's analytics. A live assignment's answers fit in answerBuf.
	answers   []answer
	answerBuf [TestsPerSession]answer
	// track follows the session against the per-participant §4.3 rules
	// and holds its latest engagement trace per video.
	track quality.Tracker
	// final is the completed session's standing: the traces that produced
	// it are gone, so it cannot be derived again.
	final quality.Snapshot
}

// newSession starts the state of session id, in flight on campaign c
// with the given assignment: the tracker fed nothing, no answer stored.
func newSession(id string, c *Campaign, worker Worker, tests []AssignedTest) *Session {
	sess := &Session{ID: id, Campaign: c, Worker: worker, Assignment: tests}
	sess.answers = sess.answerBuf[:0]
	var buf [TestsPerSession]string
	sess.track = *quality.NewTracker(assignedVideos(buf[:0], tests))
	return sess
}

// completed reports whether the session answered its full assignment.
func (sess *Session) completed() bool { return sess.final.Completed }

// Standing is the session's standing against the §4.3 rules: frozen at
// completion, provisional while in flight.
func (sess *Session) Standing() quality.Snapshot {
	if sess.completed() {
		return sess.final
	}
	return sess.track.Snapshot()
}

// answer is one stored response, reduced to what the §4.3 fold reads.
// The answered video and its control bit come from Assignment[Test].
type answer struct {
	Test int `json:"test"`
	// Submitted is a timeline answer's final position on the video
	// clock; Choice is an A/B answer's side.
	Submitted time.Duration     `json:"submitted_ns,omitempty"`
	Choice    response.ABChoice `json:"choice,omitempty"`
	// ControlFailed marks a control question answered wrong.
	ControlFailed bool `json:"control_failed,omitempty"`
}

// Worker identifies a participant joining a session.
type Worker struct {
	ID      string `json:"id"`
	Gender  string `json:"gender"`
	Country string `json:"country"`
	Source  string `json:"source"` // e.g. "crowdflower", "microworkers"
}

// AssignedTest is one item of a participant's assignment.
type AssignedTest struct {
	TestID  string `json:"test_id"`
	VideoID string `json:"video_id"`
	Kind    string `json:"kind"`
	Control bool   `json:"control"`
}

// EventBatch reports engagement instrumentation for one video.
type EventBatch struct {
	VideoID         string  `json:"video_id"`
	InstructionMs   float64 `json:"instruction_ms,omitempty"`
	LoadMs          float64 `json:"load_ms"`
	TimeOnVideoMs   float64 `json:"time_on_video_ms"`
	Plays           int     `json:"plays"`
	Pauses          int     `json:"pauses"`
	Seeks           int     `json:"seeks"`
	WatchedFraction float64 `json:"watched_fraction"`
	OutOfFocusMs    float64 `json:"out_of_focus_ms"`
}

// ResponseBody submits one answer.
type ResponseBody struct {
	TestID string `json:"test_id"`
	// Timeline fields (milliseconds on the video clock).
	SliderMs       float64 `json:"slider_ms,omitempty"`
	HelperMs       float64 `json:"helper_ms,omitempty"`
	SubmittedMs    float64 `json:"submitted_ms,omitempty"`
	AcceptedHelper bool    `json:"accepted_helper,omitempty"`
	KeptOriginal   bool    `json:"kept_original,omitempty"`
	// A/B field: "left" | "right" | "no difference".
	Choice string `json:"choice,omitempty"`
}

// Recover rebuilds the state from jl — its newest snapshot, then every
// journal record past it, each through Apply — and then journals every
// later op to jl. It runs before the state serves anything.
//
// A data directory opens from a snapshot, whose version names the format
// of the records after it too: a journal with records and no snapshot is
// refused before anything is read or removed, and a fresh directory gets
// its first snapshot before any record is appended.
func (st *State) Recover(jl *store.Log) error {
	st.disk = jl
	_, data, ok := jl.Snapshot()
	switch {
	case ok:
		if err := st.load(data); err != nil {
			return fmt.Errorf("loading snapshot: %w", err)
		}
	case jl.Seq() > 0:
		return fmt.Errorf("journal holds %d records and no snapshot: this server reads only records that follow a snapshot of version %d", jl.Seq(), stateVersion)
	}
	if err := st.sweep(); err != nil {
		return fmt.Errorf("removing files the snapshot does not cover: %w", err)
	}
	err := jl.Replay(func(seq uint64, payload []byte) error {
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		if _, _, err := st.Apply(&ev, nil); err != nil {
			var bad *badValue
			if errors.As(err, &bad) {
				return fmt.Errorf("record %d (%s) %s: %w", seq, ev.Op, bad.field, err)
			}
			return fmt.Errorf("record %d (%s): %w", seq, ev.Op, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replaying journal: %w", err)
	}
	st.log = jl // after replay, which journals nothing
	st.assign.Store(st.joined.Load())
	if !ok {
		if err := st.Snapshot(jl.WriteSnapshot); err != nil {
			return fmt.Errorf("writing the first snapshot: %w", err)
		}
	}
	return nil
}

// Snapshot hands write the state document, with every op quiesced
// (queries proceed) until it returns: the journal's WriteSnapshot makes
// it the snapshot of every record so far. On a state with a data
// directory it first appends what each campaign completed since the last
// snapshot to the campaign's files and syncs them, so the document it
// writes covers only durable bytes; once write succeeds, each campaign
// drops from the heap what its files now hold (spill.go). world is held
// for work that grows with what completed since the last snapshot and
// with the sessions in flight, not with every completed session.
func (st *State) Snapshot(write func(doc []byte) error) error {
	st.world.Lock()
	defer st.world.Unlock()
	var campaigns []*Campaign
	st.campaigns.Range(func(_ string, c *Campaign) bool {
		campaigns = append(campaigns, c)
		return true
	})
	slices.SortFunc(campaigns, func(a, b *Campaign) int { return strings.Compare(a.ID, b.ID) })
	doc := snapState{Version: stateVersion, NextID: st.nextID.Load(), Joined: st.joined.Load()}
	for _, c := range campaigns {
		if err := st.spill(c); err != nil {
			return err
		}
		cn, err := st.section(c)
		if err != nil {
			return err
		}
		doc.Campaigns = append(doc.Campaigns, cn)
	}
	data, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	if err := write(data); err != nil {
		return err
	}
	for i, c := range campaigns {
		st.advance(c, uint32(doc.Campaigns[i].Frozen))
	}
	return nil
}

// Close closes the campaigns' files, once however often it is called.
// The state serves nothing after it.
func (st *State) Close() error {
	if !st.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	st.campaigns.Range(func(_ string, c *Campaign) bool {
		if ferr := c.closeFiles(); err == nil {
			err = ferr
		}
		return true
	})
	return err
}

// NewID mints a fresh entity ID: prefix and the next number.
func (st *State) NewID(prefix string) string {
	return string(strconv.AppendInt(append(make([]byte, 0, 32), prefix...), st.nextID.Add(1), 10))
}

// NewCampaignID returns the ID a campaign create names, id or a fresh one
// when id is empty, or refuses, before it mints anything, a create that
// applyCampaign or validCampaignID would refuse.
func (st *State) NewCampaignID(id, name, kind string) (string, error) {
	switch {
	case !validCampaign(name, kind):
		return "", errCampaign
	case id == "":
		return st.NewID("c"), nil
	case !validCampaignID(id):
		return "", &badValue{"id", "campaign id must match c[A-Za-z0-9.-]{1,63}, its number at most 2^53"}
	}
	return id, nil
}

// validCampaignID accepts caller-supplied campaign IDs: "c" followed by
// 1..63 tag/counter characters, and no number past maxIDTail (one too
// large for an int64 included).
func validCampaignID(id string) bool {
	if len(id) < 2 || len(id) > 64 || id[0] != 'c' {
		return false
	}
	for i := 1; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-':
		default:
			return false
		}
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	return !errors.Is(err, strconv.ErrRange) && (err != nil || n <= maxIDTail)
}

// bumpID advances the ID counter to cover id, so replayed and
// snapshot-restored entities never collide with fresh allocations. An ID
// whose tail is not a number, or is one past maxIDTail, does not move it.
func (st *State) bumpID(id string) {
	if len(id) < 2 {
		return
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n > maxIDTail {
		return
	}
	for {
		cur := st.nextID.Load()
		if cur >= n || st.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Campaign returns campaign id.
func (st *State) Campaign(id string) (*Campaign, bool) { return st.campaigns.Get(id) }

// CampaignID returns the campaign's own ID string for id when the state
// holds the campaign, and a copy of id otherwise: a join body names its
// campaign without a string of its own.
func (st *State) CampaignID(id []byte) string {
	if c, ok := st.campaigns.Get(string(id)); ok {
		return c.ID
	}
	return string(id)
}

// poolPool recycles the live-video lists Join draws assignments from.
var poolPool = sync.Pool{New: func() any { return new([]string) }}

// Join mints a session ID for worker joining campaign id and draws its
// assignment, or refuses before it mints: TestsPerSession tests over the
// campaign's unbanned videos, the last of them the control. Fixed campaigns round-robin over
// the live videos via the offset counter; adaptive campaigns cycle the
// allocator's most-needed-first pool instead, so the assignment is a
// deterministic function of the journaled campaign state (the in-flight
// counts the allocator steers by advance on every join). Either way the
// assignment is what the session record journals, so replay does not
// depend on how it was drawn.
func (st *State) Join(id, worker string) (sid string, tests []AssignedTest, err error) {
	if worker == "" {
		return "", nil, errWorkerID
	}
	csh := st.campaigns.Shard(id)
	scratch := poolPool.Get().(*[]string)
	defer func() {
		clear(*scratch)
		*scratch = (*scratch)[:0]
		poolPool.Put(scratch)
	}()
	csh.RLock()
	c, ok := csh.Get(id)
	pool := (*scratch)[:0]
	if ok {
		// Video shards follow campaign shards in the lock order, so the
		// live (unbanned) set and the allocator's pool are computed under
		// one campaign lock: the pool is a pure function of the journaled
		// state this lock guards.
		for _, vid := range c.Videos {
			if !st.videoBanned(vid) {
				pool = append(pool, vid)
			}
		}
		*scratch = pool
		switch {
		case c.adaptive != nil && c.adaptive.Closed():
			err = ErrCampaignClosed
		case c.adaptive != nil && len(pool) > 0:
			pool = c.adaptive.Assign(pool)
		}
	}
	csh.RUnlock()
	switch {
	case !ok:
		return "", nil, ErrNoCampaign
	case err != nil:
		return "", nil, err
	case len(pool) == 0:
		return "", nil, ErrNoUsableVideos
	}
	offset := 0
	if st.adaptive == nil {
		offset = int(st.assign.Add(1) - 1)
	}
	sid = st.NewID("s")
	// The seven test IDs are cut from one string: they live and die
	// together, with the session's state, and its frozen record keeps none
	// of them. The session ID is its own; the campaign's lists keep it for
	// good.
	tests = make([]AssignedTest, TestsPerSession)
	var ends [TestsPerSession]int
	ids := make([]byte, 0, 128)
	for k := range tests {
		t := &tests[k]
		t.Kind = c.Kind
		if t.Control = k == TestsPerSession-1; t.Control {
			t.VideoID = pool[offset%len(pool)]
		} else {
			t.VideoID = pool[(offset*(TestsPerSession-1)+k)%len(pool)]
		}
		ids = appendTestID(ids, sid, k, t.Control)
		ends[k] = len(ids)
	}
	all, start := string(ids), 0
	for k, end := range ends {
		tests[k].TestID = all[start:end]
		start = end
	}
	return sid, tests, nil
}

// Assignment returns session id's assignment while the session is in
// flight (it is immutable from the join on), nil otherwise: the strings
// the in-place decoders resolve a body's video and test IDs to, so that
// what the tracker keeps of a body is the session's own string.
func (st *State) Assignment(id string) []AssignedTest {
	if sess, ok := st.sessions.Get(id); ok {
		return sess.Assignment
	}
	return nil
}

// Held reports whether the state holds session id, in flight or
// completed, without decoding a completed one's record.
func (st *State) Held(id string) bool {
	ssh := st.sessions.Shard(id)
	ssh.RLock()
	defer ssh.RUnlock()
	_, ok := ssh.Get(id)
	return ok || st.frozenLocked(id, nil)
}

// Session returns session id: the indexed state while it is in flight,
// one decoded from its frozen record once completed, which is the
// caller's own.
func (st *State) Session(id string) (*Session, error) {
	ssh := st.sessions.Shard(id)
	ssh.RLock()
	defer ssh.RUnlock()
	return st.sessionLocked(ssh, id)
}

// sessionLocked is Session with ssh, id's session shard, held.
func (st *State) sessionLocked(ssh *store.Shard[*Session], id string) (*Session, error) {
	if sess, ok := ssh.Get(id); ok {
		return sess, nil
	}
	var sess *Session
	err := ErrNoSession
	st.frozenLocked(id, func(c *Campaign, i uint32) {
		var rec []byte
		if rec, err = c.record(i); err == nil {
			sess, err = decodeFrozen(c, id, rec)
		}
	})
	return sess, err
}

// frozenLocked is where a lookup that misses the sessions index goes: it
// reports whether a campaign filed session id as completed and, if one
// did and fn is not nil, calls fn with the campaign and the session's
// row number. It asks each campaign's frozenAt in turn under
// that campaign's shard lock, held shared and released before the next
// shard's is taken, so it never holds two; fn runs under it. Caller
// holds id's session shard lock, which comes before a campaign's in the
// lock order: a completion deletes the session from the index and files
// it under both, so the session is in exactly one of the two places.
func (st *State) frozenLocked(id string, fn func(c *Campaign, i uint32)) bool {
	found := false
	st.campaigns.Range(func(_ string, c *Campaign) bool {
		at, ok := c.frozenAt(id)
		if ok && fn != nil {
			fn(c, c.rowOrder[at])
		}
		found = ok
		return !ok
	})
	return found
}

// Video resolves a video ID to what a GET serves of it. Only the head and
// the ban bit cross the shard lock — no payload bytes are touched, let
// alone copied, while it is held.
func (st *State) Video(id string) (v VideoHead, banned, ok bool) {
	vsh := st.videos.Shard(id)
	vsh.RLock()
	if p, found := vsh.Get(id); found {
		v, banned, ok = p.VideoHead, p.Banned, true
	}
	vsh.RUnlock()
	return v, banned, ok
}

// videoBanned reads a video's ban bit under its shard lock.
func (st *State) videoBanned(id string) bool {
	_, banned, _ := st.Video(id)
	return banned
}

// Counts is what /metrics reports of the state. Each index and campaign
// is read under its own shard lock, so the fields are not one instant's.
type Counts struct {
	Campaigns, Videos, Banned int
	// Sessions is the sessions index, which holds the sessions in flight;
	// InFlight sums the campaigns' lists of them.
	Sessions, InFlight int
	Joined             int64
	// CompletedBytes is what completed sessions hold in the heap, and
	// SpilledBytes what they hold in the campaigns' files: frozen records
	// and /analytics rows.
	CompletedBytes, SpilledBytes int
	// Verdicts counts completed sessions by their §4.3 verdict.
	Verdicts [filtering.DropControl + 1]int
}

// Counts walks the indexes and every campaign once.
func (st *State) Counts() Counts {
	n := Counts{
		Campaigns: st.campaigns.Len(), Videos: st.videos.Len(),
		Sessions: st.sessions.Len(), Joined: st.joined.Load(),
	}
	st.videos.Range(func(_ string, v *Video) bool {
		if v.Banned {
			n.Banned++
		}
		return true
	})
	st.campaigns.Range(func(_ string, c *Campaign) bool {
		n.InFlight += len(c.inflight)
		for _, s := range c.streams() {
			n.CompletedBytes += len(s.tail)
			n.SpilledBytes += int(s.size(c.spilled))
		}
		sum := c.analytics.Summary()
		n.Verdicts[filtering.Kept] += sum.Kept
		n.Verdicts[filtering.DropEngagementSeeks] += sum.EngagementSeeks
		n.Verdicts[filtering.DropEngagementFocus] += sum.EngagementFocus
		n.Verdicts[filtering.DropSoft] += sum.Soft
		n.Verdicts[filtering.DropControl] += sum.Control
		return true
	})
	return n
}

// Sessions calls fn with each session in flight, and the key the index
// holds it under, until fn returns false.
func (st *State) Sessions(fn func(key string, sess *Session) bool) { st.sessions.Range(fn) }
