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
// adaptive.Campaign of its own fed in completion order.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
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

type model struct {
	adaptive  *adaptive.Config
	blobs     map[string]bool
	campaigns map[string]*modelCampaign
	videos    map[string]*modelVideo
	sessions  map[string]*modelSession // joined ever, in flight or completed
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

func newModel(cfg *adaptive.Config, blobs ...string) *model {
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

// apply applies ev, or refuses it and changes nothing.
func (m *model) apply(ev *Event) (Result, error) {
	res := Result{Op: slices.IndexFunc(Ops(), func(o OpName) bool { return o.Name == ev.Op })}
	var err error
	switch ev.Op {
	case OpCampaign:
		err = m.campaign(ev)
	case OpVideo:
		err = m.video(ev)
	case OpSession:
		err = m.session(ev)
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
	default: // a retired op
		err = errRefused
	}
	return res, err
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
	case ev.Name == "" || ev.Kind != "timeline" && ev.Kind != "ab", !namesFile(ev.ID):
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

func (m *model) session(ev *Event) error {
	c := m.campaigns[ev.Campaign]
	switch {
	case ev.Worker == nil:
		return errRefused
	case ev.Worker.ID == "":
		return ErrInvalidValue
	case m.sessions[ev.ID] != nil:
		return ErrHeld
	case c == nil:
		return ErrNoCampaign
	}
	s := &modelSession{id: ev.ID, c: c, worker: *ev.Worker, tests: slices.Clone(ev.Tests), latest: map[string]wire.Record{}}
	m.sessions[ev.ID] = s
	if c.stopper != nil {
		var videos []string
		for _, t := range s.tests {
			videos = append(videos, t.VideoID)
		}
		c.stopper.NoteJoin(videos)
	}
	return nil
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
		// The journal does not tell an empty assignment from none (no join
		// mints either), so neither does this.
		if sess.Worker != s.worker || len(sess.Assignment)+len(s.tests) > 0 && !reflect.DeepEqual(sess.Assignment, s.tests) {
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
	got.CompletedBytes, got.SpilledBytes = 0, 0
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

// --- the fuzzer ---

// An op of a fuzz program is opSize bytes: its code, fields whose
// meaning the code picks, and the percentile band the views are
// compared at after it. A code past the op table's rows is a snapshot
// or a reopen. A program runs at most maxProgOps ops.
const (
	opSize           = 9
	maxProgOps       = 256
	maxProgCampaigns = 4
)

const (
	opSnapshot = -1 - iota
	opReopen
)

// runner turns a fuzz program into ops on the rig, a state in memory
// and the model, and compares them after each.
type runner struct {
	t          *testing.T
	r          *rig
	mem        *State // no journal, no data directory
	m          *model
	hash       string
	size       int64
	strs       [2]string
	x          float64 // the fuzzer's number
	fresh      int
	campaigns  []string // applied, in order
	videos     []string
	sessions   []string
	f          []byte // the current op's fields
	adaptiveOn bool
}

// field returns the current op's field i.
func (d *runner) field(i int) int { return int(d.f[i]) }

// newID draws the ID of an entity the op creates: a fresh one, one
// already held, or one of the fuzzer's strings.
func (d *runner) newID(held []string, prefix string, sel int) string {
	if sel < 160 || (sel < 220 && len(held) == 0) {
		d.fresh++
		return prefix + strconv.Itoa(d.fresh)
	}
	return d.ref(held, prefix, sel)
}

// ref draws the ID an op names: one held, counting back from the
// newest, or one of the fuzzer's strings, or one nothing holds.
func (d *runner) ref(held []string, prefix string, sel int) string {
	switch {
	case sel >= 238:
		return d.strs[1]
	case sel >= 220:
		return d.strs[0]
	case len(held) == 0:
		return prefix + "404"
	}
	return held[len(held)-1-sel%len(held)]
}

// tests draws the assignment of session sid of campaign c: n tests
// round-robin over the campaign's videos from offset, the last a
// control, with test odd%8 made odd in the way odd/8%5 picks when odd is
// 8 or more (oddTest writes one).
func (d *runner) tests(sid string, c *modelCampaign, n, odd, offset int) []AssignedTest {
	kind, videos := "timeline", []string(nil)
	if c != nil {
		kind, videos = c.kind, c.videos
	}
	if d.adaptiveOn && len(videos) == 0 {
		n = 0 // an adaptive join draws only from the stopper's videos
	}
	var tests []AssignedTest
	for k := 0; k < n; k++ {
		t := AssignedTest{Kind: kind, Control: k == n-1, VideoID: "v-gone"}
		if len(videos) > 0 {
			t.VideoID = videos[(offset+k)%len(videos)]
		}
		if t.TestID = sid + "-t" + strconv.Itoa(k); t.Control {
			t.TestID = sid + "-control"
		}
		if odd >= 8 && k == odd%8 {
			switch odd / 8 % 5 {
			case 0:
				// A stopper registers a campaign's videos as they are added, so
				// an adaptive session names only those, as every join does.
				if !d.adaptiveOn {
					t.VideoID = "v-elsewhere"
				}
			case 1:
				t.Kind = map[string]string{"timeline": "ab", "ab": "timeline"}[kind]
			case 2:
				t.Kind = "survey"
			case 3:
				t.TestID = d.strs[0]
			case 4:
				t.TestID = sid + "-t" + strconv.Itoa(k+1)
			}
		}
		tests = append(tests, t)
	}
	return tests
}

// event builds the record of op row from the current fields.
func (d *runner) event(row string) *Event {
	ev := &Event{Op: row}
	sessionOf := func(sel int) (string, *modelSession) {
		id := d.ref(d.sessions, "s", sel)
		return id, d.m.sessions[id]
	}
	switch row {
	case OpCampaign:
		// Each campaign's first snapshot opens two files, the costliest
		// step of a run, so a program holds a few campaigns at most.
		sel := d.field(0)
		if len(d.campaigns) >= maxProgCampaigns {
			sel = max(sel, 160)
		}
		ev.ID = d.newID(d.campaigns, "c", sel)
		ev.Name = []string{"campaign", "campaign", "", d.strs[1]}[d.field(1)%4]
		ev.Kind = []string{"timeline", "ab", "timeline", "ab", "survey", d.strs[1]}[d.field(2)%6]
	case OpVideo:
		ev.ID = d.newID(d.videos, "v", d.field(0))
		ev.Campaign = d.ref(d.campaigns, "c", d.field(1))
		ev.Hash = []string{d.hash, d.hash, d.hash, "", strings.Repeat("ab", 32)}[d.field(2)%5]
		ev.Size = int64(d.field(3)%3) * d.size
	case OpSession:
		ev.ID = d.newID(d.sessions, "s", d.field(0))
		ev.Campaign = d.ref(d.campaigns, "c", d.field(1))
		if w := d.field(2); w%8 != 7 {
			ev.Worker = &Worker{ID: "w" + strconv.Itoa(w%5), Gender: "f", Country: d.strs[0], Source: "crowdflower"}
			if w%8 == 6 {
				ev.Worker.ID = ""
			}
		}
		n := []int{TestsPerSession, TestsPerSession, TestsPerSession, 1, 2, 0}[d.field(3)%6]
		ev.Tests = d.tests(ev.ID, d.m.campaigns[ev.Campaign], n, d.field(4), d.field(5))
	case OpEvents, OpBatch:
		var s *modelSession
		ev.ID, s = sessionOf(d.field(0))
		video := "v-gone"
		if s != nil && len(s.tests) > 0 {
			video = s.tests[d.field(1)%len(s.tests)].VideoID
		}
		b := EventBatch{
			VideoID:         video,
			InstructionMs:   []float64{0, 20_000}[d.field(5)%2],
			LoadMs:          []float64{900, 900, 20_000, 0, d.x}[d.field(2)%5],
			TimeOnVideoMs:   []float64{21_000, d.x}[d.field(3)/4%2],
			Plays:           []int{1, 1, 0, 2}[d.field(2)/4%4],
			Pauses:          d.field(5) / 2 % 3,
			Seeks:           []int{0, 4, 12, 600}[d.field(3)%4],
			WatchedFraction: []float64{0.9, d.x}[d.field(4)/4%2],
			OutOfFocusMs:    []float64{0, 0, 15_000, 5_000}[d.field(4)%4],
		}
		switch mode := d.field(6) % 8; {
		case row == OpEvents && mode == 7:
		case row == OpEvents:
			ev.Batch = &b
		case mode == 7:
			ev.Wire = []byte(d.strs[1])
		default:
			recs := AppendWireRecords(nil, b)
			var enc wire.Encoder
			ev.Wire = enc.AppendBatch(nil, recs)
			if mode%2 == 1 { // the live path hands Apply its decode
				ev.Records = recs
			}
		}
	case OpResponse:
		var s *modelSession
		ev.ID, s = sessionOf(d.field(0))
		if d.field(1)%8 == 7 {
			break
		}
		body := &ResponseBody{
			TestID:       "t-unknown",
			SubmittedMs:  1_000 + 37*float64(d.field(3)%64),
			KeptOriginal: d.field(4)%4 != 3,
			Choice:       []string{"left", "right", "no difference", "left", "", "bogus"}[d.field(4)/4%6],
		}
		if d.field(3) == 255 {
			body.SubmittedMs = d.x
		}
		body.SliderMs, body.HelperMs = body.SubmittedMs+200, body.SubmittedMs
		if s != nil && len(s.tests) > 0 && d.field(2) != 255 {
			body.TestID = s.tests[d.field(2)%len(s.tests)].TestID
		}
		ev.Body = body
	case OpFlag:
		ev.ID = d.ref(d.videos, "v", d.field(0))
		ev.Flagger = []string{"", "f0", "f1", "f2", "f3", "f4", "f5", "f6"}[d.field(1)%8]
	default: // a retired op
		ev.ID = d.ref(d.campaigns, "c", d.field(0))
	}
	return ev
}

// step runs one op, of code row or opSnapshot/opReopen, and checks what
// it can of it alone.
func (d *runner) step(i, code int) {
	t := d.t
	switch code {
	case opSnapshot:
		if err := d.r.snapshot(); err != nil {
			t.Fatalf("op %d: snapshot: %v", i, err)
		}
		return
	case opReopen:
		d.reopen(i)
		return
	}
	ev := d.event(Ops()[code].Name)
	before := d.r.jl.Seq()
	got, gotErr := d.r.apply(ev)
	memSeq, memGot, memErr := d.mem.Apply(ev, nil)
	want, wantErr := d.m.apply(ev)
	if !sameRefusal(gotErr, wantErr) || got != want || !sameRefusal(memErr, wantErr) || memGot != want || memSeq != 0 {
		t.Fatalf("op %d: %s %q: state %+v %v, in memory %+v %v (sequence %d), model %+v %v", i, ev.Op, ev.ID, got, gotErr, memGot, memErr, memSeq, want, wantErr)
	}
	after := d.r.jl.Seq()
	switch {
	case gotErr != nil && after != before:
		t.Fatalf("op %d: %s record refused (%v) moved the journal from %d to %d", i, ev.Op, gotErr, before, after)
	case gotErr == nil && after != before+1:
		t.Fatalf("op %d: %s record applied moved the journal from %d to %d", i, ev.Op, before, after)
	}
	if gotErr != nil {
		return
	}
	switch ev.Op {
	case OpCampaign:
		d.campaigns = append(d.campaigns, ev.ID)
	case OpVideo:
		d.videos = append(d.videos, ev.ID)
	case OpSession:
		d.sessions = append(d.sessions, ev.ID)
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

// band reads the percentile band byte b names: the default band for 0,
// else bounds on a 10-point grid.
func band(b byte) (lo, hi float64) {
	if b == 0 {
		return filtering.WisdomLo, filtering.WisdomHi
	}
	lo = float64(b%11) * 10
	return lo, min(100, lo+float64(b/11%11)*10)
}

// FuzzStateVsModel applies a program of ops to a durable State, to a
// State in memory and to the reference model, each record through Apply.
// Every record, refused ones included, gets the same answer from all
// three — the same Result, or the same sentinel refusal — and a refused
// record leaves the journal's sequence where it was while an accepted one
// moves it by one. After every op the durable state and the model serve
// the same /results, the same /analytics at the op's band, the same tests
// for every session, the same video heads and the same counts.
// Snapshots, which spill, and reopens come where the program puts them,
// and one more reopen ends it: Recover never panics or fails, the
// reopened state's document is the live one's, and the state in memory
// serves what the model does.
//
// The program's first byte switches adaptive campaigns on; then each op
// is opSize bytes (see runner.event). The fuzzer's two strings are the
// IDs and names a program may use beside minted ones; as every string a
// record carries was decoded from JSON or minted, they are valid UTF-8.
func FuzzStateVsModel(f *testing.F) {
	for _, seed := range modelSeeds() {
		f.Add(seed, "wéird<id>", "c1.rows", 0.75)
	}
	f.Fuzz(runProgram)
}

// runProgram is FuzzStateVsModel's body.
func runProgram(t *testing.T, prog []byte, a, b string, x float64) {
	var cfg *adaptive.Config
	if len(prog) > 0 && prog[0]&1 == 1 {
		cfg = &adaptive.Config{HalfWidth: 0.4}
	}
	r := openRig(t, filepath.Join(t.TempDir(), "data"), cfg)
	hash, size := r.video()
	mem := New(r.blobs, cfg)
	defer mem.Close()
	d := &runner{
		t: t, r: r, mem: mem, m: newModel(cfg, hash), hash: hash, size: size,
		strs:       [2]string{strings.ToValidUTF8(a, "�"), strings.ToValidUTF8(b, "�")},
		x:          x,
		adaptiveOn: cfg != nil,
	}
	if len(prog) > 0 {
		prog = prog[1:]
	}
	rows := len(Ops())
	for i := 0; len(prog) >= opSize && i < maxProgOps; i, prog = i+1, prog[opSize:] {
		code := int(prog[0]) % (rows + 2)
		switch code {
		case rows:
			code = opSnapshot
		case rows + 1:
			code = opReopen
		}
		d.f = prog[1 : opSize-1]
		d.step(i, code)
		lo, hi := band(prog[opSize-1])
		compare(t, "op "+strconv.Itoa(i), r.st, d.m, lo, hi)
	}
	d.reopen(-1)
	compare(t, "reopened at the end", r.st, d.m, filtering.WisdomLo, filtering.WisdomHi)
	compare(t, "in memory at the end", mem, d.m, filtering.WisdomLo, filtering.WisdomHi)
}

// progWriter writes fuzz programs for the seed corpus.
type progWriter struct{ b []byte }

func (p *progWriter) op(row string, band byte, fields ...byte) {
	code := slices.IndexFunc(Ops(), func(o OpName) bool { return o.Name == row })
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

func (p *progWriter) snapshot() { p.raw(byte(len(Ops())), 0) }
func (p *progWriter) reopen()   { p.raw(byte(len(Ops())+1), 0) }

// oddTest is the session field that makes test k odd in way w of
// runner.tests.
func oddTest(w, k int) byte { return byte(8*(w+5) + k) }

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
	}
	for k := 0; k < answered; k++ {
		answer := byte(k%3) * 4 // the choice; the original kept
		if k == TestsPerSession-1 && submitted%4 == 1 {
			answer = 7 // the control failed: "right", the helper frame taken
		}
		p.op(OpResponse, band+byte(k), 0, 0, byte(k), submitted+byte(5*k), answer)
	}
}

// modelSeeds are programs that drive every op row, with completions,
// refusals, bans, snapshots and reopens, in each campaign kind, with and
// without adaptive campaigns.
func modelSeeds() [][]byte {
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
			p.session(0, oddTest(1, 2), 1, 2, 0, 40, TestsPerSession, 67) // a test of the other kind
			p.session(0, oddTest(2, 3), 2, 1, 0, 23, TestsPerSession, 12) // a test of no campaign's kind
			p.session(0, oddTest(3, 1), 0, 1, 0, 50, TestsPerSession, 0)  // a test ID not minted
			p.session(0, oddTest(4, 0), 0, 1, 0, 52, TestsPerSession, 0)  // a test ID another test's
			p.session(0, oddTest(0, 4), 1, 1, 0, 54, TestsPerSession, 99) // a video of no campaign
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
			p.reopen()
			p.session(0, 0, 0, 2, 0, 35, TestsPerSession, 56)
			p.op(OpCampaign, 0, 0, 0, 1-kind) // a second campaign, of the other kind
			p.op(OpVideo, 0, 0, 0, 0)
			p.session(0, 0, 0, 1, 0, 7, TestsPerSession, 78)
			p.snapshot()
			p.session(0, 0, 0, 1, 0, 8, 3, 0)
			seeds = append(seeds, p.b)
		}
	}
	return seeds
}
