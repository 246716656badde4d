package state

// The reference model of the state machine: a campaign's state written
// the obvious way, with maps of plain structs on one goroutine and no
// encoding, no spill, no shards and no incremental fold. The state's
// fast representations (frozen records, the spill boundary and its
// files, rowOrder, the band memo, the sessions index that forgets
// completed sessions, the shard locks) share none of its code, so
// FuzzStateVsModel checks them against something other than a sibling
// of themselves. /results is filtering.Clean over the completed
// sessions' records in completion order; /analytics is encoding/json
// over a sorted slice of rows. It may use the §4.3 reference
// (internal/filtering, internal/stats) and, with adaptive campaigns, an
// adaptive.Campaign of its own fed in completion order. It also mints
// IDs and draws assignments as a server does, so it answers a create
// and a join before any record exists.
//
// FuzzServerVsModel (server_test.go, package state_test) holds the HTTP
// tier to the same model and programs: Model, Program and ModelSeeds are
// exported for it, and so are the methods it calls.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/response"
	"github.com/eyeorg/eyeorg/internal/stats"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// rig is a durable State over a data directory of its own, opened as a
// server opens one: the journal, then Recover. Its blob store lives as
// long as the rig, across reopens.
type rig struct {
	tb       testing.TB
	dir      string
	adaptive *adaptive.Config
	blobs    *blob.Store
	jl       *store.Log
	st       *State
}

// standIn is every rig's video payload: the state never reads a blob's
// bytes, only asks whether the store holds it.
const standIn = "EYV1 stand-in"

// newRig returns a rig over dir, not yet open, whose blob store holds
// the stand-in payload.
func newRig(tb testing.TB, dir string, cfg *adaptive.Config) *rig {
	tb.Helper()
	blobs, err := blob.Open(blob.Options{})
	if err == nil {
		_, _, err = blobs.Put(strings.NewReader(standIn))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return &rig{tb: tb, dir: dir, adaptive: cfg, blobs: blobs}
}

// openRig opens a rig over dir, failing tb if Recover does.
func openRig(tb testing.TB, dir string, cfg *adaptive.Config) *rig {
	tb.Helper()
	r := newRig(tb, dir, cfg)
	if err := r.open(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.close)
	return r
}

// openErr is what opening a state over dir says, a panic included; a
// state that opens is closed again.
func openErr(tb testing.TB, dir string) (err error) {
	tb.Helper()
	r := newRig(tb, dir, nil)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("Recover panicked: %v", p)
		}
	}()
	if err = r.open(); err == nil {
		r.close()
	}
	return err
}

func (r *rig) open() error {
	jl, err := store.Open(r.dir, store.Options{})
	if err != nil {
		return err
	}
	st := New(r.blobs, r.adaptive)
	if err := st.Recover(jl); err != nil {
		jl.Close()
		st.Close()
		return err
	}
	r.jl, r.st = jl, st
	return nil
}

// close closes the journal and the campaigns' files, once.
func (r *rig) close() {
	if r.jl == nil {
		return
	}
	if err := r.jl.Close(); err != nil {
		r.tb.Error(err)
	}
	if err := r.st.Close(); err != nil {
		r.tb.Error(err)
	}
	r.jl, r.st = nil, nil
}

// reopen is a clean restart over the same directory.
func (r *rig) reopen() error {
	r.close()
	return r.open()
}

// apply hands ev to Apply and awaits its record, as the platform's
// commit tail does.
func (r *rig) apply(ev *Event) (Result, error) {
	seq, res, err := r.st.Apply(ev, nil)
	if err == nil && seq != 0 {
		err = r.jl.WaitDurable(seq)
	}
	return res, err
}

// mustApply applies ev and fails tb if it is refused.
func (r *rig) mustApply(ev *Event) Result {
	r.tb.Helper()
	res, err := r.apply(ev)
	if err != nil {
		r.tb.Fatalf("%s %s: %v", ev.Op, ev.ID, err)
	}
	return res
}

// snapshot writes a state document to the journal, spilling first.
func (r *rig) snapshot() error { return r.st.Snapshot(r.jl.WriteSnapshot) }

// document returns the state document a snapshot taken now would
// write. Like a snapshot whose document never lands, it spills.
func (r *rig) document() []byte {
	r.tb.Helper()
	var doc []byte
	if err := r.st.Snapshot(func(b []byte) error { doc = b; return nil }); err != nil {
		r.tb.Fatal(err)
	}
	return doc
}

// video returns the stand-in payload's content address.
func (r *rig) video() (hash string, size int64) {
	r.tb.Helper()
	ref, _, err := r.blobs.Put(strings.NewReader(standIn))
	if err != nil {
		r.tb.Fatal(err)
	}
	return ref.Hash, ref.Size
}

// analytics renders campaign id's /analytics at [lo, hi] in full.
func (r *rig) analytics(id string, lo, hi float64) ([]byte, error) {
	body, _, err := r.st.Analytics(nil, id, lo, hi, func(ETag) bool { return false })
	return body, err
}

// --- the model ---

// Model is the model as FuzzServerVsModel names it.
type Model = model

type model struct {
	adaptive  *adaptive.Config
	blobs     map[string]bool
	campaigns map[string]*modelCampaign
	videos    map[string]*modelVideo
	sessions  map[string]*modelSession // joined ever, in flight or completed
	next      int64                    // the number the newest ID minted or held ends in
}

type modelCampaign struct {
	id, name, kind string
	videos         []string
	completed      []*modelSession // completion order
	stopper        *adaptive.Campaign
}

type modelVideo struct {
	id     string
	c      *modelCampaign
	hash   string
	size   int64
	flags  map[string]bool
	banned bool
}

type modelSession struct {
	id      string
	c       *modelCampaign
	worker  Worker
	tests   []AssignedTest
	latest  map[string]wire.Record // the newest engagement record per video
	answers []modelAnswer
	done    bool
}

type modelAnswer struct {
	test      int
	submitted time.Duration
	choice    response.ABChoice
	failed    bool // a control answered wrong
}

// errRefused is the model's refusal where the state names no sentinel.
var errRefused = errors.New("refused")

// NewModel returns an empty model whose campaigns stop under cfg (nil:
// fixed campaigns) and whose blob store holds blobs.
func NewModel(cfg *adaptive.Config, blobs ...string) *model {
	m := &model{
		adaptive:  cfg,
		blobs:     map[string]bool{},
		campaigns: map[string]*modelCampaign{},
		videos:    map[string]*modelVideo{},
		sessions:  map[string]*modelSession{},
	}
	for _, hash := range blobs {
		m.blobs[hash] = true
	}
	return m
}

// Apply applies ev, or refuses it and changes nothing.
func (m *model) Apply(ev *Event) (Result, error) {
	res := Result{Op: slices.Index(Ops(), ev.Op)}
	var err error
	switch ev.Op {
	case OpCampaign:
		err = m.campaign(ev)
	case OpVideo:
		err = m.video(ev)
	case OpSession:
		res.Tests, err = m.session(ev)
	case OpEvents:
		b := ev.Batch
		switch {
		case b == nil:
			err = errRefused
		case !fits(b.InstructionMs, b.LoadMs, b.TimeOnVideoMs, b.OutOfFocusMs) || !carriable(b.WatchedFraction):
			err = ErrInvalidValue
		default:
			var recs []wire.Record
			if b.VideoID != "" {
				recs = append(recs, wire.Record{
					Kind: wire.KindEngagement, VideoID: b.VideoID,
					LoadNs: nanos(b.LoadMs), TimeOnVideoNs: nanos(b.TimeOnVideoMs), OutOfFocusNs: nanos(b.OutOfFocusMs),
					Plays: b.Plays, Pauses: b.Pauses, Seeks: b.Seeks, WatchedFraction: b.WatchedFraction,
				})
			}
			err = m.engagement(ev.ID, recs)
		}
	case OpBatch:
		recs := ev.Records
		if recs == nil {
			recs, err = wire.NewDecoder().Decode(ev.Wire)
		}
		if err == nil {
			err = m.engagement(ev.ID, recs)
		}
	case OpResponse:
		res.Done, err = m.response(ev)
	case OpFlag:
		res.Flags, res.Banned, err = m.flag(ev)
	default: // an op no row applies
		err = errRefused
	}
	if err == nil && (ev.Op == OpCampaign || ev.Op == OpVideo || ev.Op == OpSession) {
		m.hold(ev.ID)
	}
	return res, err
}

// hold moves the ID counter past the number id ends in, if it is one no
// larger than 2^53, so that no minted ID repeats a held one.
func (m *model) hold(id string) {
	if len(id) < 2 {
		return
	}
	if n, err := strconv.ParseInt(id[1:], 10, 64); err == nil && n <= 1<<53 && n > m.next {
		m.next = n
	}
}

// NewID mints an ID: prefix and the counter's next number.
func (m *model) NewID(prefix string) string {
	m.next++
	return prefix + strconv.FormatInt(m.next, 10)
}

// campaignIDShape is what a caller-supplied campaign ID looks like.
var campaignIDShape = regexp.MustCompile(`^c[A-Za-z0-9.-]{1,63}$`)

// NewCampaignID is the ID a create of campaign id (minted when empty)
// of this name and kind gets, or the refusal of one no campaign may
// have, which mints nothing.
func (m *model) NewCampaignID(id, name, kind string) (string, error) {
	if name == "" || kind != "timeline" && kind != "ab" {
		return "", ErrInvalidValue
	}
	if id == "" {
		return m.NewID("c"), nil
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if !campaignIDShape.MatchString(id) || errors.Is(err, strconv.ErrRange) || err == nil && n > 1<<53 {
		return "", ErrInvalidValue
	}
	return id, nil
}

// Join mints the session ID and draws the videos a join of worker to
// campaign id gets, or refuses it and mints nothing: TestsPerSession of
// the campaign's unbanned videos in the order they were added, the last
// the control's, round-robin from the number of sessions joined so far;
// in an adaptive campaign, over its stopper's most-needed-first order
// from the start.
func (m *model) Join(id, worker string) (string, []string, error) {
	c := m.campaigns[id]
	switch {
	case worker == "":
		return "", nil, ErrInvalidValue
	case c == nil:
		return "", nil, ErrNoCampaign
	case c.stopper != nil && c.stopper.Closed():
		return "", nil, ErrCampaignClosed
	}
	var pool []string
	for _, v := range c.videos {
		if !m.videos[v].banned {
			pool = append(pool, v)
		}
	}
	if len(pool) == 0 {
		return "", nil, ErrNoUsableVideos
	}
	offset := len(m.sessions)
	if c.stopper != nil {
		pool, offset = c.stopper.Assign(pool), 0
	}
	videos := make([]string, TestsPerSession)
	for k := range videos {
		videos[k] = pool[(offset*(TestsPerSession-1)+k)%len(pool)]
	}
	videos[TestsPerSession-1] = pool[offset%len(pool)]
	return m.NewID("s"), videos, nil
}

// carriable reports whether JSON can carry every x.
func carriable(xs ...float64) bool {
	return !slices.ContainsFunc(xs, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
}

// fits reports whether every ms, as nanoseconds, lies in [-2^63, 2^63):
// a time.Duration holds it, whatever machine converts it.
func fits(ms ...float64) bool {
	return !slices.ContainsFunc(ms, func(ms float64) bool {
		ns := ms * 1e6
		return !(ns >= -math.Ldexp(1, 63) && ns < math.Ldexp(1, 63))
	})
}

func nanos(ms float64) int64 { return int64(time.Duration(ms * float64(time.Millisecond))) }

// namesFile reports whether a campaign ID can name the campaign's files:
// not empty, "." or "..", no NUL or path separator, and short enough
// for a file name of 255 bytes with the longer extension.
func namesFile(id string) bool {
	return id != "" && id != "." && id != ".." && len(id)+len(".frozen") <= 255 && !strings.ContainsAny(id, "/\\\x00")
}

func (m *model) campaign(ev *Event) error {
	switch {
	case ev.Name == "" || ev.Kind != "timeline" && ev.Kind != "ab":
		return ErrInvalidValue
	case !namesFile(ev.ID):
		return errRefused
	case m.campaigns[ev.ID] != nil:
		return ErrCampaignExists
	}
	c := &modelCampaign{id: ev.ID, name: ev.Name, kind: ev.Kind}
	if m.adaptive != nil {
		c.stopper = adaptive.New(ev.Kind, *m.adaptive)
	}
	m.campaigns[ev.ID] = c
	return nil
}

func (m *model) video(ev *Event) error {
	c := m.campaigns[ev.Campaign]
	switch {
	case c == nil:
		return ErrNoCampaign
	case !m.blobs[ev.Hash]:
		return errRefused
	case m.videos[ev.ID] != nil:
		return ErrHeld
	}
	m.videos[ev.ID] = &modelVideo{id: ev.ID, c: c, hash: ev.Hash, size: ev.Size, flags: map[string]bool{}}
	c.videos = append(c.videos, ev.ID)
	if c.stopper != nil {
		c.stopper.AddVideo(ev.ID)
	}
	return nil
}

// session applies a session record: its tests are TestsPerSession of its
// campaign's videos, the last the control, each of the campaign's kind
// and with the ID the join mints for it.
func (m *model) session(ev *Event) ([]AssignedTest, error) {
	c := m.campaigns[ev.Campaign]
	switch {
	case ev.Worker == nil:
		return nil, errRefused
	case ev.Worker.ID == "" || len(ev.Videos) != TestsPerSession:
		return nil, ErrInvalidValue
	case m.sessions[ev.ID] != nil:
		return nil, ErrHeld
	case c == nil:
		return nil, ErrNoCampaign
	}
	s := &modelSession{id: ev.ID, c: c, worker: *ev.Worker, latest: map[string]wire.Record{}}
	for k, v := range ev.Videos {
		if !slices.Contains(c.videos, v) {
			return nil, ErrInvalidValue
		}
		s.tests = append(s.tests, AssignedTest{Kind: c.kind, VideoID: v, TestID: ev.ID + "-t" + strconv.Itoa(k)})
	}
	control := &s.tests[TestsPerSession-1]
	control.Control, control.TestID = true, ev.ID+"-control"
	m.sessions[ev.ID] = s
	if c.stopper != nil {
		c.stopper.NoteJoin(slices.Clone(ev.Videos))
	}
	return s.tests, nil
}

// engagement files a session's engagement records.
func (m *model) engagement(id string, recs []wire.Record) error {
	s := m.sessions[id]
	switch {
	case s == nil:
		return ErrNoSession
	case s.done:
		return ErrSessionDone
	}
	for _, r := range recs {
		if r.Kind == wire.KindEngagement {
			s.latest[r.VideoID] = r
		}
	}
	return nil
}

func (m *model) response(ev *Event) (done bool, err error) {
	switch b := ev.Body; {
	case b == nil:
		return false, errRefused
	case !fits(b.SubmittedMs) || !carriable(b.SliderMs, b.HelperMs):
		return false, ErrInvalidValue
	}
	s := m.sessions[ev.ID]
	if s == nil {
		return false, ErrNoSession
	}
	k := slices.IndexFunc(s.tests, func(t AssignedTest) bool { return t.TestID == ev.Body.TestID })
	switch {
	case k < 0:
		return false, ErrUnknownTest
	case slices.ContainsFunc(s.answers, func(a modelAnswer) bool { return a.test == k }):
		return false, ErrDuplicateTest
	}
	t, a := s.tests[k], modelAnswer{test: k}
	if t.Kind == "ab" {
		choices := map[string]response.ABChoice{"left": response.ChoiceLeft, "right": response.ChoiceRight, "no difference": response.ChoiceNoDifference}
		choice, ok := choices[ev.Body.Choice]
		if !ok {
			return false, ErrBadChoice
		}
		// The platform's A/B controls delay the right side.
		a.choice, a.failed = choice, t.Control && choice == response.ChoiceRight
	} else {
		// A timeline control's helper frame is wrong on purpose.
		a.submitted, a.failed = time.Duration(nanos(ev.Body.SubmittedMs)), t.Control && !ev.Body.KeptOriginal
	}
	if s.done {
		return false, ErrSessionDone
	}
	s.answers = append(s.answers, a)
	if len(s.answers) < len(s.tests) {
		return false, nil
	}
	s.done = true
	s.c.completed = append(s.c.completed, s)
	if s.c.stopper != nil {
		rec := s.record()
		s.c.stopper.Complete(rec, filtering.Classify(rec, 0))
	}
	return true, nil
}

func (m *model) flag(ev *Event) (flags int, banned bool, err error) {
	if ev.Flagger == "" {
		return 0, false, ErrInvalidValue
	}
	v := m.videos[ev.ID]
	if v == nil {
		return 0, false, ErrNoVideo
	}
	v.flags[ev.Flagger] = true
	if !v.banned && len(v.flags) >= BanThreshold {
		v.banned = true
		if v.c.stopper != nil {
			v.c.stopper.RemoveVideo(v.id)
		}
	}
	return len(v.flags), v.banned, nil
}

type participant string

func (p participant) ParticipantID() string { return string(p) }

// record is the session as the offline §4.3 pipeline reads it: one
// trace per assigned test, the newest engagement record of its video,
// and its answers so far, as the campaign's kind reads them.
func (s *modelSession) record() *filtering.SessionRecord {
	rec := &filtering.SessionRecord{Participant: participant(s.worker.ID), Trace: &response.SessionTrace{}}
	for _, t := range s.tests {
		r := s.latest[t.VideoID]
		rec.Trace.Videos = append(rec.Trace.Videos, response.VideoTrace{
			VideoID: t.VideoID, LoadTime: time.Duration(r.LoadNs), TimeOnVideo: time.Duration(r.TimeOnVideoNs),
			Plays: r.Plays, Pauses: r.Pauses, Seeks: r.Seeks, WatchedFraction: r.WatchedFraction,
			OutOfFocus: time.Duration(r.OutOfFocusNs),
		})
	}
	for _, a := range s.answers {
		t := s.tests[a.test]
		if s.c.kind == "ab" {
			rec.AB = append(rec.AB, &response.ABResponse{VideoID: t.VideoID, Choice: a.choice, AOnLeft: true, Control: t.Control, ControlPassed: !a.failed})
		} else {
			rec.Timeline = append(rec.Timeline, &response.TimelineResponse{VideoID: t.VideoID, Submitted: a.submitted, Control: t.Control, ControlPassed: !a.failed})
		}
	}
	return rec
}

// row is the session's /analytics row: its verdict is Classify's on
// what it has answered so far, final once it completed.
func (s *modelSession) row() ParticipantVerdict {
	rec := s.record()
	total, passed := rec.ControlResults()
	return ParticipantVerdict{
		Session: s.id, Worker: s.worker.ID, Completed: s.done,
		Verdict: filtering.Classify(rec, 0).String(), Provisional: !s.done,
		Answered: len(s.answers), Actions: rec.Trace.TotalActions(), ControlsFailed: total - passed,
	}
}

func (c *modelCampaign) clean() *filtering.Outcome {
	recs := make([]*filtering.SessionRecord, len(c.completed))
	for i, s := range c.completed {
		recs[i] = s.record()
	}
	return filtering.Clean(recs, 0)
}

func (m *model) banned(video string) bool {
	v := m.videos[video]
	return v != nil && v.banned
}

// results is campaign c's /results body.
func (m *model) results(c *modelCampaign) []byte {
	out := c.clean()
	res := ResultsResponse{
		Campaign: c.id, Participants: out.Summary.Total, Kept: out.Summary.Kept,
		Engagement: out.Summary.Engagement(), Soft: out.Summary.Soft, Control: out.Summary.Control,
		PerVideo: map[string]VideoAg{},
	}
	if c.kind == "ab" {
		for id, votes := range filtering.ABByVideo(out.Kept) {
			res.PerVideo[id] = VideoAg{Responses: votes.Total(), Agreement: votes.Agreement(), Banned: m.banned(id)}
		}
	} else {
		for id, vals := range filtering.WisdomOfCrowd(filtering.TimelineByVideo(out.Kept)) {
			res.PerVideo[id] = VideoAg{Responses: len(vals), MeanUPLT: stats.Sample(vals).Mean(), Banned: m.banned(id)}
		}
	}
	return jsonLine(res)
}

// analytics is campaign c's /analytics body over the [lo, hi] band.
func (m *model) analytics(c *modelCampaign, lo, hi float64) []byte {
	out := c.clean()
	res := AnalyticsResponse{
		Campaign: c.id, Kind: c.kind, Completed: len(c.completed),
		Summary:      AnalyticsSummary(out.Summary),
		Participants: []ParticipantVerdict{},
		PerVideo:     map[string]VideoAnalytics{},
	}
	for _, s := range m.sessions {
		if s.c == c {
			res.Participants = append(res.Participants, s.row())
		}
	}
	sort.Slice(res.Participants, func(i, j int) bool { return res.Participants[i].Session < res.Participants[j].Session })
	res.Sessions = len(res.Participants)
	if c.kind == "ab" {
		for id, v := range filtering.ABByVideo(out.Kept) {
			res.PerVideo[id] = VideoAnalytics{Responses: v.Total(), VotesA: v.A, VotesB: v.B, NoDiff: v.NoDiff, Agreement: v.Agreement(), Banned: m.banned(id)}
		}
	} else {
		for id, vals := range filtering.TimelineByVideo(out.Kept) {
			s := stats.Sample(vals)
			band := s.IQRFilter(lo, hi)
			res.PerVideo[id] = VideoAnalytics{
				Responses: len(vals), InBand: len(band), BandLoS: s.Percentile(lo), BandHiS: s.Percentile(hi),
				MeanUPLTS: band.Mean(), Banned: m.banned(id),
			}
		}
	}
	if a := c.stopper; a != nil {
		resolved, total := a.Resolved()
		stopping := &StoppingAnalytics{Closed: a.Closed(), Resolved: resolved, Total: total, PerVideo: map[string]VideoStopping{}}
		if c.kind == "timeline" {
			stopping.TargetHalfWidth = a.Config().HalfWidth
		}
		bound := func(x float64) *float64 {
			if math.IsInf(x, 0) {
				return nil
			}
			return &x
		}
		for _, vs := range a.Status(nil) {
			stopping.PerVideo[vs.Video] = VideoStopping{State: string(vs.State), Kept: vs.N, Pending: vs.Pending, Lo: bound(vs.Lo), Hi: bound(vs.Hi), Verdict: string(vs.Verdict)}
		}
		res.Stopping = stopping
	}
	return jsonLine(res)
}

// Results is campaign id's /results body, nil if the model holds no such
// campaign.
func (m *model) Results(id string) []byte {
	if c := m.campaigns[id]; c != nil {
		return m.results(c)
	}
	return nil
}

// Analytics is campaign id's /analytics body over [lo, hi], nil if the
// model holds no such campaign.
func (m *model) Analytics(id string, lo, hi float64) []byte {
	if c := m.campaigns[id]; c != nil {
		return m.analytics(c, lo, hi)
	}
	return nil
}

// Campaigns lists the campaigns the model holds, and Sessions the
// sessions ever joined.
func (m *model) Campaigns() []string { return sortedIDs(m.campaigns) }
func (m *model) Sessions() []string  { return sortedIDs(m.sessions) }

func sortedIDs[V any](held map[string]V) []string {
	ids := make([]string, 0, len(held))
	for id := range held {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Tests is session id's assignment, nil if it was never joined.
func (m *model) Tests(id string) []AssignedTest {
	if s := m.sessions[id]; s != nil {
		return s.tests
	}
	return nil
}

// Banned reports, of each video the model holds, whether it is banned.
func (m *model) Banned() map[string]bool {
	banned := map[string]bool{}
	for id, v := range m.videos {
		banned[id] = v.banned
	}
	return banned
}

func jsonLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// counts is what the state's Counts must report of the model, less the
// byte counts, which only the state's layout defines.
func (m *model) counts() Counts {
	n := Counts{Campaigns: len(m.campaigns), Videos: len(m.videos), Joined: int64(len(m.sessions))}
	for _, v := range m.videos {
		if v.banned {
			n.Banned++
		}
	}
	for _, s := range m.sessions {
		if !s.done {
			n.Sessions++
			n.InFlight++
		}
	}
	for _, c := range m.campaigns {
		sum := c.clean().Summary
		n.Verdicts[filtering.Kept] += sum.Kept
		n.Verdicts[filtering.DropEngagementSeeks] += sum.EngagementSeeks
		n.Verdicts[filtering.DropEngagementFocus] += sum.EngagementFocus
		n.Verdicts[filtering.DropSoft] += sum.Soft
		n.Verdicts[filtering.DropControl] += sum.Control
	}
	return n
}

// sentinels are the errors a refusal is compared by.
var sentinels = []error{
	ErrNoCampaign, ErrNoSession, ErrNoVideo, ErrUnknownTest, ErrDuplicateTest, ErrSessionDone,
	ErrBadChoice, ErrCampaignClosed, ErrNoUsableVideos, ErrCampaignExists, ErrHeld, ErrSpillCorrupt,
	ErrInvalidValue,
}

// sameRefusal reports whether got and want both succeeded, or both
// failed as the same sentinels.
func sameRefusal(got, want error) bool {
	if (got == nil) != (want == nil) {
		return false
	}
	for _, s := range sentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			return false
		}
	}
	return true
}

// compare fails t where state st differs from the model: every
// campaign's /results and its /analytics over [lo, hi], every session's
// worker and tests, every video's head and ban, and the counts the
// platform's gauges read.
func compare(t *testing.T, how string, st *State, m *model, lo, hi float64) {
	t.Helper()
	for id, c := range m.campaigns {
		got, _, err := st.Results(id)
		if want := m.results(c); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: campaign %q /results (%v):\n got %s\nwant %s", how, id, err, got, want)
		}
		got, _, err = st.Analytics(nil, id, lo, hi, func(ETag) bool { return false })
		if want := m.analytics(c, lo, hi); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: campaign %q /analytics?lo=%g&hi=%g (%v):\n got %s\nwant %s", how, id, lo, hi, err, got, want)
		}
	}
	for id, s := range m.sessions {
		sess, err := st.Session(id)
		if err != nil {
			t.Fatalf("%s: session %q: %v", how, id, err)
		}
		if sess.Worker != s.worker || !reflect.DeepEqual(sess.Assignment, s.tests) {
			t.Fatalf("%s: session %q is %+v %+v, want %+v %+v", how, id, sess.Worker, sess.Assignment, s.worker, s.tests)
		}
		if !st.Held(id) {
			t.Fatalf("%s: the state does not hold session %q", how, id)
		}
	}
	if _, err := st.Session("s-never"); m.sessions["s-never"] == nil && (!errors.Is(err, ErrNoSession) || st.Held("s-never")) {
		t.Fatalf("%s: a session never joined: %v", how, err)
	}
	for id, v := range m.videos {
		head, banned, ok := st.Video(id)
		if !ok || head.Hash != v.hash || head.Size != v.size || banned != v.banned {
			t.Fatalf("%s: video %q is %v %+v banned=%v, want %s/%d banned=%v", how, id, ok, head, banned, v.hash, v.size, v.banned)
		}
	}
	got := st.Counts()
	got.Completed, got.SpilledBytes = Footprint{}, 0
	if want := m.counts(); got != want {
		t.Fatalf("%s: counts %+v, want %+v", how, got, want)
	}
	// With the counts equal, the indexes hold what the model does. Each
	// video and session in flight points at its campaign's own entry, so
	// none keeps a string of the record it came in for the campaign.
	pointsAt := func(what, id string, c *Campaign, want *modelCampaign) {
		if held, _ := st.Campaign(want.id); c != held {
			t.Fatalf("%s: %s %q does not point at campaign %q", how, what, id, want.id)
		}
	}
	st.videos.Range(func(id string, v *Video) bool {
		pointsAt("video", id, v.Campaign, m.videos[id].c)
		return true
	})
	st.Sessions(func(id string, sess *Session) bool {
		pointsAt("session", id, sess.Campaign, m.sessions[id].c)
		return true
	})
}

// --- the programs ---

// An op of a fuzz program is opSize bytes: its code, fields whose
// meaning the code picks, and the percentile band the views are
// compared at after it. A code names an op of ProgOps; one past them is
// a snapshot or a reopen. A program runs at most maxProgOps ops.
const (
	opSize           = 9
	maxProgOps       = 256
	maxProgCampaigns = 4
)

// ProgOps are the ops a program's codes name: the op table's rows, then
// two ops no row applies, the cluster records of earlier builds, so the
// committed programs keep their meaning and every target refuses those.
var ProgOps = append(Ops(), "handoff", "import")

// The codes Program.Next reads past ProgOps.
const (
	ProgSnapshot = -1 - iota
	ProgReopen
)

// Program reads a fuzz program of FuzzStateVsModel or FuzzServerVsModel:
// a header byte, whose bit 0 switches adaptive campaigns on (the HTTP
// fuzzer reads more of it), then ops, each built into a record by Event.
// A record names the entities the program has applied (Applied notes
// them), minted ones and the fuzzer's strings. The program's model
// applies what the program's targets apply.
type Program struct {
	Header    byte
	Model     *Model
	hash      string // the one video payload's content address
	size      int64
	strs      [2]string
	x         float64 // the fuzzer's number
	fresh     int
	campaigns []string // applied, in order
	videos    []string
	sessions  []string
	rest      []byte // the ops not read yet
	f         []byte // the current op's fields
	band      byte   // the current op's band
	read      int
}

// AdaptiveConfig is the stopper a program's header asks for, nil for
// fixed campaigns.
func AdaptiveConfig(prog []byte) *adaptive.Config {
	if len(prog) > 0 && prog[0]&1 == 1 {
		return &adaptive.Config{HalfWidth: 0.4}
	}
	return nil
}

// NewProgram starts reading prog, whose one video payload has content
// address hash and size bytes; a and b are the fuzzer's strings, x its
// number. As every string a record carries was decoded from JSON or
// minted, the strings are made valid UTF-8.
func NewProgram(prog []byte, a, b string, x float64, hash string, size int64) *Program {
	p := &Program{
		Model: NewModel(AdaptiveConfig(prog), hash), hash: hash, size: size,
		strs: [2]string{strings.ToValidUTF8(a, "�"), strings.ToValidUTF8(b, "�")},
		x:    x,
	}
	if len(prog) > 0 {
		p.Header, p.rest = prog[0], prog[1:]
	}
	return p
}

// Next reads the next op and returns its code: an index into ProgOps,
// ProgSnapshot or ProgReopen; ok is false past the program's last op.
func (p *Program) Next() (code int, ok bool) {
	if len(p.rest) < opSize || p.read == maxProgOps {
		return 0, false
	}
	n := len(ProgOps)
	code = int(p.rest[0]) % (n + 2)
	switch code {
	case n:
		code = ProgSnapshot
	case n + 1:
		code = ProgReopen
	}
	p.f, p.band = p.rest[1:opSize-1], p.rest[opSize-1]
	p.rest = p.rest[opSize:]
	p.read++
	return code, true
}

// Band is the percentile band the current op's views are compared at:
// the default band for 0, else bounds on a 10-point grid.
func (p *Program) Band() (lo, hi float64) {
	if p.band == 0 {
		return filtering.WisdomLo, filtering.WisdomHi
	}
	lo = float64(p.band%11) * 10
	return lo, min(100, lo+float64(p.band/11%11)*10)
}

// field returns the current op's field i.
func (p *Program) field(i int) int { return int(p.f[i]) }

// newID draws the ID of an entity the op creates: a fresh one, one
// already held, or one of the fuzzer's strings; or none, for one the
// target mints, when mint is set and sel picks it.
func (p *Program) newID(held []string, prefix string, sel int, mint bool) string {
	switch {
	case mint && sel >= 144 && sel < 160:
		return ""
	case sel < 160 || (sel < 220 && len(held) == 0):
		p.fresh++
		return prefix + strconv.Itoa(p.fresh)
	}
	return p.ref(held, prefix, sel)
}

// ref draws the ID an op names: one held, counting back from the
// newest, or one of the fuzzer's strings, or one nothing holds.
func (p *Program) ref(held []string, prefix string, sel int) string {
	switch {
	case sel >= 238:
		return p.strs[1]
	case sel >= 220:
		return p.strs[0]
	case len(held) == 0:
		return prefix + "404"
	}
	return held[len(held)-1-sel%len(held)]
}

// draw draws the videos of a session of campaign c: n round-robin over
// the campaign's videos from offset, with video odd%8 made odd in the
// way odd/8%3 picks when odd is 8 or more (oddTest writes one): a video
// no campaign lists, another campaign's, or the fuzzer's string.
func (p *Program) draw(c *modelCampaign, n, odd, offset int) []string {
	var videos []string
	for k := 0; k < n; k++ {
		v := "v-gone"
		if c != nil && len(c.videos) > 0 {
			v = c.videos[(offset+k)%len(c.videos)]
		}
		if odd >= 8 && k == odd%8 {
			switch odd / 8 % 3 {
			case 0:
				v = "v-elsewhere"
			case 1:
				for _, held := range p.videos {
					if p.Model.videos[held].c != c {
						v = held
					}
				}
			case 2:
				v = p.strs[0]
			}
		}
		videos = append(videos, v)
	}
	return videos
}

// Event builds the record of op row, one of ProgOps, from the current
// op's fields. A campaign or session record with no ID is one to mint: a
// create whose ID the target mints, or a join, whose assignment it draws
// too.
func (p *Program) Event(row string) *Event {
	ev := &Event{Op: row}
	sessionOf := func(sel int) (string, *modelSession) {
		id := p.ref(p.sessions, "s", sel)
		return id, p.Model.sessions[id]
	}
	switch row {
	case OpCampaign:
		// Each campaign's first snapshot opens two files, the costliest
		// step of a run, so a program holds a few campaigns at most.
		sel := p.field(0)
		if len(p.campaigns) >= maxProgCampaigns {
			sel = max(sel, 160)
		}
		ev.ID = p.newID(p.campaigns, "c", sel, true)
		ev.Name = []string{"campaign", "campaign", "", p.strs[1]}[p.field(1)%4]
		ev.Kind = []string{"timeline", "ab", "timeline", "ab", "survey", p.strs[1]}[p.field(2)%6]
	case OpVideo:
		ev.ID = p.newID(p.videos, "v", p.field(0), false)
		ev.Campaign = p.ref(p.campaigns, "c", p.field(1))
		ev.Hash = []string{p.hash, p.hash, p.hash, "", strings.Repeat("ab", 32)}[p.field(2)%5]
		ev.Size = int64(p.field(3)%3) * p.size
	case OpSession:
		ev.ID = p.newID(p.sessions, "s", p.field(0), true)
		ev.Campaign = p.ref(p.campaigns, "c", p.field(1))
		if w := p.field(2); w%8 != 7 {
			ev.Worker = &Worker{ID: "w" + strconv.Itoa(w%5), Gender: "f", Country: p.strs[0], Source: "crowdflower"}
			if w%8 == 6 {
				ev.Worker.ID = ""
			}
		}
		if ev.ID != "" {
			n := []int{TestsPerSession, TestsPerSession, TestsPerSession, 1, TestsPerSession - 1, 0}[p.field(3)%6]
			ev.Videos = p.draw(p.Model.campaigns[ev.Campaign], n, p.field(4), p.field(5))
		}
	case OpEvents, OpBatch:
		var s *modelSession
		ev.ID, s = sessionOf(p.field(0))
		video := "v-gone"
		if s != nil && len(s.tests) > 0 {
			video = s.tests[p.field(1)%len(s.tests)].VideoID
		}
		b := EventBatch{
			VideoID:         video,
			InstructionMs:   []float64{0, 20_000}[p.field(5)%2],
			LoadMs:          []float64{900, 900, 20_000, 0, p.x}[p.field(2)%5],
			TimeOnVideoMs:   []float64{21_000, p.x}[p.field(3)/4%2],
			Plays:           []int{1, 1, 0, 2}[p.field(2)/4%4],
			Pauses:          p.field(5) / 2 % 3,
			Seeks:           []int{0, 4, 12, 600}[p.field(3)%4],
			WatchedFraction: []float64{0.9, p.x}[p.field(4)/4%2],
			OutOfFocusMs:    []float64{0, 0, 15_000, 5_000}[p.field(4)%4],
		}
		switch mode := p.field(6) % 8; {
		case row == OpEvents && mode == 7:
		case row == OpEvents:
			ev.Batch = &b
		case mode == 7:
			ev.Wire = []byte(p.strs[1])
		default:
			recs := AppendWireRecords(nil, b)
			if mode == 6 && s != nil {
				// A client's whole buffer in one batch: a record for every
				// test, each with values of its own.
				for k, t := range s.tests {
					b.VideoID, b.Seeks, b.InstructionMs = t.VideoID, k, 0
					recs = AppendWireRecords(recs, b)
				}
			}
			var enc wire.Encoder
			ev.Wire = enc.AppendBatch(nil, recs)
			if mode%2 == 1 { // the live path hands Apply its decode
				ev.Records = recs
			}
		}
	case OpResponse:
		var s *modelSession
		ev.ID, s = sessionOf(p.field(0))
		if p.field(1)%8 == 7 {
			break
		}
		body := &ResponseBody{
			TestID:       "t-unknown",
			SubmittedMs:  1_000 + 37*float64(p.field(3)%64),
			KeptOriginal: p.field(4)%4 != 3,
			Choice:       []string{"left", "right", "no difference", "left", "", "bogus"}[p.field(4)/4%6],
		}
		if p.field(3) == 255 {
			body.SubmittedMs = p.x
		}
		body.SliderMs, body.HelperMs = body.SubmittedMs+200, body.SubmittedMs
		if s != nil && len(s.tests) > 0 && p.field(2) != 255 {
			body.TestID = s.tests[p.field(2)%len(s.tests)].TestID
		}
		ev.Body = body
	case OpFlag:
		ev.ID = p.ref(p.videos, "v", p.field(0))
		ev.Flagger = []string{"", "f0", "f1", "f2", "f3", "f4", "f5", "f6"}[p.field(1)%8]
	default: // an op no row applies
		ev.ID = p.ref(p.campaigns, "c", p.field(0))
	}
	return ev
}

// Applied notes that ev, a record every target and the model applied,
// created the entity it names.
func (p *Program) Applied(ev *Event) {
	switch ev.Op {
	case OpCampaign:
		p.campaigns = append(p.campaigns, ev.ID)
	case OpVideo:
		p.videos = append(p.videos, ev.ID)
	case OpSession:
		p.sessions = append(p.sessions, ev.ID)
	}
}

// --- the fuzzer ---

// runner runs a program on the rig, a state in memory and the model, and
// compares them after each op.
type runner struct {
	*Program
	t   *testing.T
	r   *rig
	mem *State // no journal, no data directory
}

// mint gives ev, a create or a join, the ID the states mint for it (and
// a join the model's assignment) and reports true, or checks that all
// three refuse it alike before they mint anything and reports false.
func (d *runner) mint(i int, ev *Event) bool {
	var ids [3]string
	var errs [3]error
	if ev.Op == OpCampaign {
		ids[0], errs[0] = d.r.st.NewCampaignID("", ev.Name, ev.Kind)
		ids[1], errs[1] = d.mem.NewCampaignID("", ev.Name, ev.Kind)
		ids[2], errs[2] = d.Model.NewCampaignID("", ev.Name, ev.Kind)
	} else {
		worker := ""
		if ev.Worker != nil {
			worker = ev.Worker.ID
		}
		// A state's draw depends on the joins since it opened; the HTTP
		// tier's fuzzer checks it. Here every party applies the model's.
		ids[0], _, errs[0] = d.r.st.Join(ev.Campaign, worker)
		ids[1], _, errs[1] = d.mem.Join(ev.Campaign, worker)
		ids[2], ev.Videos, errs[2] = d.Model.Join(ev.Campaign, worker)
	}
	if ids[0] != ids[2] || ids[1] != ids[2] || !sameRefusal(errs[0], errs[2]) || !sameRefusal(errs[1], errs[2]) {
		d.t.Fatalf("op %d: minting %s: state %q %v, in memory %q %v, model %q %v", i, ev.Op, ids[0], errs[0], ids[1], errs[1], ids[2], errs[2])
	}
	ev.ID = ids[2]
	return errs[2] == nil
}

// step runs one op, of code row or ProgSnapshot/ProgReopen, and checks
// what it can of it alone.
func (d *runner) step(i, code int) {
	t := d.t
	switch code {
	case ProgSnapshot:
		if err := d.r.snapshot(); err != nil {
			t.Fatalf("op %d: snapshot: %v", i, err)
		}
		return
	case ProgReopen:
		d.reopen(i)
		return
	}
	ev := d.Event(ProgOps[code])
	if ev.ID == "" && (ev.Op == OpCampaign || ev.Op == OpSession) && !d.mint(i, ev) {
		return
	}
	before := d.r.jl.Seq()
	got, gotErr := d.r.apply(ev)
	memSeq, memGot, memErr := d.mem.Apply(ev, nil)
	want, wantErr := d.Model.Apply(ev)
	if !sameRefusal(gotErr, wantErr) || !reflect.DeepEqual(got, want) || !sameRefusal(memErr, wantErr) || !reflect.DeepEqual(memGot, want) || memSeq != 0 {
		t.Fatalf("op %d: %s %q: state %+v %v, in memory %+v %v (sequence %d), model %+v %v", i, ev.Op, ev.ID, got, gotErr, memGot, memErr, memSeq, want, wantErr)
	}
	after := d.r.jl.Seq()
	switch {
	case gotErr != nil && after != before:
		t.Fatalf("op %d: %s record refused (%v) moved the journal from %d to %d", i, ev.Op, gotErr, before, after)
	case gotErr == nil && after != before+1:
		t.Fatalf("op %d: %s record applied moved the journal from %d to %d", i, ev.Op, before, after)
	}
	if gotErr == nil {
		d.Applied(ev)
	}
}

// reopen restarts the state over its journal: nothing panics, Recover
// succeeds, and the reopened state's document is the live one's, byte
// for byte.
func (d *runner) reopen(i int) {
	d.t.Helper()
	live := d.r.document()
	if err := d.r.reopen(); err != nil {
		d.t.Fatalf("op %d: reopen: %v", i, err)
	}
	if got := d.r.document(); !bytes.Equal(got, live) {
		d.t.Fatalf("op %d: the reopened state's document\n%s\nthe live state's\n%s", i, got, live)
	}
}

// FuzzStateVsModel applies a program of ops to a durable State, to a
// State in memory and to the reference model, each record through Apply.
// Every record, refused ones included, gets the same answer from all
// three — the same Result, or the same sentinel refusal — and a refused
// record leaves the journal's sequence where it was while an accepted one
// moves it by one. A create or join the program leaves to the target
// mints the same ID in all three, or is refused alike before anything is
// minted. After every op the durable state and the model serve the same
// /results, the same /analytics at the op's band, the same tests for
// every session, the same video heads and the same counts. Snapshots,
// which spill, and reopens come where the program puts them, and one
// more reopen ends it: Recover never panics or fails, the reopened
// state's document is the live one's, and the state in memory serves
// what the model does.
//
// The program's first byte switches adaptive campaigns on; then each op
// is opSize bytes (see Program.Event). The fuzzer's two strings are the
// IDs and names a program may use beside minted ones.
func FuzzStateVsModel(f *testing.F) {
	for _, seed := range ModelSeeds() {
		f.Add(seed, "wéird<id>", "c1.rows", 0.75)
	}
	f.Fuzz(runProgram)
}

// runProgram is FuzzStateVsModel's body.
func runProgram(t *testing.T, prog []byte, a, b string, x float64) {
	cfg := AdaptiveConfig(prog)
	r := openRig(t, filepath.Join(t.TempDir(), "data"), cfg)
	hash, size := r.video()
	mem := New(r.blobs, cfg)
	defer mem.Close()
	d := &runner{Program: NewProgram(prog, a, b, x, hash, size), t: t, r: r, mem: mem}
	for i := 0; ; i++ {
		code, ok := d.Next()
		if !ok {
			break
		}
		d.step(i, code)
		lo, hi := d.Band()
		compare(t, "op "+strconv.Itoa(i), r.st, d.Model, lo, hi)
	}
	d.reopen(-1)
	compare(t, "reopened at the end", r.st, d.Model, filtering.WisdomLo, filtering.WisdomHi)
	compare(t, "in memory at the end", mem, d.Model, filtering.WisdomLo, filtering.WisdomHi)
}

// progWriter writes fuzz programs for the seed corpus. A session it
// writes while midReopen is set reopens between its batches.
type progWriter struct {
	b         []byte
	midReopen bool
}

func (p *progWriter) op(row string, band byte, fields ...byte) {
	code := slices.Index(ProgOps, row)
	if code < 0 {
		panic(row)
	}
	p.raw(byte(code), band, fields...)
}

func (p *progWriter) raw(code, band byte, fields ...byte) {
	rec := make([]byte, opSize)
	rec[0], rec[opSize-1] = code, band
	copy(rec[1:opSize-1], fields)
	p.b = append(p.b, rec...)
}

func (p *progWriter) snapshot() { p.raw(byte(len(ProgOps)), 0) }
func (p *progWriter) reopen()   { p.raw(byte(len(ProgOps)+1), 0) }

// oddTest is the session field that makes video k odd in way w of
// Program.draw.
func oddTest(w, k int) byte { return byte(8*(w+3) + k) }

// mintSel is the ID field of a create or join the target mints.
const mintSel = 150

// session joins a session to the newest campaign but skip and drives
// it: an engagement record per test, in JSON and EYB1 batches, then
// answers to its first answered tests. seeks, focus and submitted pick
// its engagement and answer values.
func (p *progWriter) session(skip, odd, offset, seeks, focus, submitted byte, answered int, band byte) {
	p.op(OpSession, band, 0, skip, submitted%5, 0, odd, offset)
	plays := byte(0) // one play
	if seeks == 0 {
		plays = 8 // none: the soft rule drops a session that never touched a video
	}
	for k := 0; k < TestsPerSession; k++ {
		row := OpEvents
		if k%2 == 1 {
			row = OpBatch
		}
		p.op(row, band, 0, byte(k), plays, seeks, focus, 1, byte(k%3))
		if k == 3 && p.midReopen {
			p.reopen()
			p.midReopen = false
		}
	}
	for k := 0; k < answered; k++ {
		answer := byte(k%3) * 4 // the choice; the original kept
		if k == TestsPerSession-1 && submitted%4 == 1 {
			answer = 7 // the control failed: "right", the helper frame taken
		}
		p.op(OpResponse, band+byte(k), 0, 0, byte(k), submitted+byte(5*k), answer)
	}
}

// ModelSeeds are programs that drive every op row, with completions,
// refusals, bans, minted creates and joins, snapshots and reopens, in
// each campaign kind, with and without adaptive campaigns.
func ModelSeeds() [][]byte {
	var seeds [][]byte
	for _, header := range []byte{0, 1} {
		for _, kind := range []byte{0, 1} { // timeline, ab
			p := &progWriter{b: []byte{header}}
			p.op(OpCampaign, 0, 0, 0, kind)
			for i := 0; i < 3; i++ {
				p.op(OpVideo, 0, 0, 0, 0, byte(i))
			}
			// Sessions reference the newest one: a campaign sel past the list
			// wraps, so 0 picks the first campaign.
			p.session(0, 0, 0, 1, 0, 3, TestsPerSession, 0)
			p.session(0, 0, 1, 2, 0, 9, TestsPerSession, 23)
			p.session(0, 0, 2, 3, 0, 17, TestsPerSession, 0) // seeks past the trusted ceiling
			p.session(0, 0, 0, 1, 2, 11, TestsPerSession, 45)
			p.snapshot()
			p.session(0, 0, 2, 1, 0, 23, TestsPerSession, 12)
			p.session(0, oddTest(0, 4), 1, 1, 0, 54, TestsPerSession, 99) // a video of no campaign
			p.session(0, oddTest(2, 6), 1, 1, 0, 52, TestsPerSession, 0)  // the fuzzer's string as the control's
			p.op(OpSession, 0, 0, 0, 0, 4)                                // six videos
			p.op(OpSession, 0, 0, 0, 0, 3)                                // one
			// Late and refused records, on the newest session: completed
			// unless test 0 took test 1's ID.
			p.op(OpResponse, 0, 0, 0, 0, 1, 0)   // duplicate answer
			p.op(OpResponse, 0, 0, 0, 255, 1, 0) // unknown test
			p.op(OpResponse, 0, 0, 7)            // no body
			p.op(OpEvents, 0, 0, 0, 0, 1)        // late events
			p.op(OpEvents, 0, 0, 0, 0, 0, 0, 0, 7)
			p.op(OpBatch, 0, 0, 0, 0, 0, 0, 0, 7) // undecodable payload
			p.op(OpSession, 0, 200, 0, 7)         // no worker, held ID
			p.op(OpSession, 0, 0, 220)            // no such campaign
			p.op(OpCampaign, 0, 160, 2)           // no name
			p.op(OpCampaign, 0, 0, 0, 4)          // no such kind
			p.op(OpVideo, 0, 0, 220, 0)           // no such campaign
			p.op(OpVideo, 0, 0, 0, 3)             // no hash
			p.op(OpVideo, 0, 200, 0, 0)           // held
			p.op(OpFlag, 0, 0, 0)                 // no flagger
			p.op("handoff", 0, 0)
			p.op("import", 0, 0)
			for f := byte(1); f <= BanThreshold; f++ {
				p.op(OpFlag, 0, 2, f)
			}
			p.session(0, 0, 0, 1, 0, 30, TestsPerSession-1, 89) // one answer short
			p.session(0, 0, 1, 0, 0, 31, 2, 0)
			p.snapshot()
			p.session(0, 0, 2, 0, 0, 33, TestsPerSession, 34) // soft: no video played
			p.midReopen = true
			p.session(0, 0, 1, 2, 0, 34, TestsPerSession, 45)
			p.session(0, 0, 0, 2, 0, 35, TestsPerSession, 56)
			// Creates and joins the target mints: each refusal before the
			// mint leaves the next ID to the create or join after it.
			p.op(OpCampaign, 0, mintSel, 2, 1-kind) // no name
			p.op(OpCampaign, 0, mintSel, 0, 4)      // no such kind
			p.op(OpCampaign, 0, mintSel, 0, 1-kind) // a second campaign, of the other kind
			p.op(OpVideo, 0, 0, 0, 0)
			p.op(OpSession, 0, mintSel, 0, 6) // no worker ID
			p.op(OpSession, 0, mintSel, 1, 1) // the first campaign
			p.op(OpBatch, 0, 0, 0, 0, 1, 0, 0, 6)
			p.op(OpSession, 0, 0, 0, 0, 0, oddTest(1, 3)) // a video of the first campaign
			p.session(0, 0, 0, 1, 0, 7, TestsPerSession, 78)
			p.snapshot()
			p.session(0, 0, 0, 1, 0, 8, 3, 0)
			seeds = append(seeds, p.b)
		}
	}
	return seeds
}
