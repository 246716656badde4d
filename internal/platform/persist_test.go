package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/store"
)

// The state document's types and version, under the names the tests
// below have always used.
type (
	snapState    = state.SnapState
	snapCampaign = state.SnapCampaign
	snapSession  = state.SnapSession
)

const stateVersion = state.StateVersion

// campaignsOf returns every campaign srv holds, in ID order: those its
// state document lists.
func campaignsOf(tb testing.TB, srv *Server) []*state.Campaign {
	tb.Helper()
	data, err := document(srv)
	if err != nil {
		tb.Fatal(err)
	}
	var doc snapState
	if err := json.Unmarshal(data, &doc); err != nil {
		tb.Fatal(err)
	}
	var out []*state.Campaign
	for _, cn := range doc.Campaigns {
		c, _ := srv.state.Campaign(cn.ID)
		out = append(out, c)
	}
	return out
}

// document returns the state document a snapshot of srv taken now would
// write.
func document(srv *Server) (doc []byte, err error) {
	err = srv.state.Snapshot(func(b []byte) error {
		doc = b
		return nil
	})
	return doc, err
}

// openPersisted opens a server over dir and wraps it in a test client.
func openPersisted(t *testing.T, dir string, opts Options) (*Server, *client) {
	t.Helper()
	opts.DataDir = dir
	srv, err := Open(opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return srv, newClientFor(t, srv)
}

// rawResults fetches the exact /results body bytes.
func rawResults(t *testing.T, c *client, campaign string) []byte {
	t.Helper()
	resp, err := http.Get(c.srv.URL + "/api/v1/campaigns/" + campaign + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seedPersistedCampaign builds a campaign with completed sessions, a
// flagged-to-ban video, and one in-flight session.
func seedPersistedCampaign(t *testing.T, c *client) (campaign string, vids []string) {
	t.Helper()
	campaign, vids = setupCampaign(c, "timeline", 3)
	for i := 0; i < 4; i++ {
		jr := join(c, campaign, fmt.Sprintf("persist-%d", i))
		completeSession(c, jr, 1400+float64(i)*137, true, 12, 0)
	}
	// One engagement-filtered participant for non-trivial summary rows.
	jr := join(c, campaign, "persist-away")
	completeSession(c, jr, 9000, true, 12, 45_000)
	// Ban one video so the Banned bit must survive recovery.
	for i := 0; i < BanThreshold; i++ {
		c.do("POST", "/api/v1/videos/"+vids[2]+"/flag", map[string]string{"worker": fmt.Sprintf("flagger-%d", i)}, nil)
	}
	// An in-flight (incomplete) session must also survive.
	half := join(c, campaign, "persist-half")
	c.do("POST", "/api/v1/sessions/"+half.Session+"/events", EventBatch{InstructionMs: 20_000}, nil)
	c.do("POST", "/api/v1/sessions/"+half.Session+"/responses", ResponseBody{
		TestID: half.Tests[0].TestID, SliderMs: 1200, SubmittedMs: 1100, KeptOriginal: true,
	}, nil)
	return campaign, vids
}

// TestCrashRecoveryByteIdenticalResults is the acceptance check: a
// reopened store serves byte-identical /results.
func TestCrashRecoveryByteIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{})
	campaign, vids := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := openPersisted(t, dir, Options{})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("results diverged after reopen:\n before: %s\n after:  %s", before, after)
	}
	// Recovered ban state: the banned video is still 410.
	if code := c2.do("GET", "/api/v1/videos/"+vids[2], nil, nil); code != http.StatusGone {
		t.Fatalf("banned video after reopen: %d, want 410", code)
	}
	// Fresh IDs do not collide with recovered entities.
	var created CreateCampaignResponse
	if code := c2.do("POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "new", Kind: "ab"}, &created); code != http.StatusCreated {
		t.Fatalf("create after reopen: %d", code)
	}
	if created.ID == campaign {
		t.Fatalf("recovered server reissued campaign ID %s", created.ID)
	}
	// New sessions keep working against the recovered state.
	jr := join(c2, campaign, "post-restart")
	completeSession(c2, jr, 1500, true, 12, 0)
	var res ResultsResponse
	c2.do("GET", "/api/v1/campaigns/"+campaign+"/results", nil, &res)
	if res.Participants != 6 {
		t.Fatalf("participants after post-restart session = %d, want 6", res.Participants)
	}
}

// TestRecoveryFromSnapshotPlusTail forces snapshots mid-run so recovery
// exercises the snapshot + journal-tail path, not pure replay.
func TestRecoveryFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: 10, SegmentBytes: 4 << 10})
	campaign, _ := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots written (err=%v); cadence broken", err)
	}

	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: 10, SegmentBytes: 4 << 10})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot+tail recovery diverged:\n before: %s\n after:  %s", before, after)
	}
}

// TestRecoveryAfterTornTail simulates a crash mid-append: garbage at
// the journal tail is truncated and everything before it survives.
func TestRecoveryAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{})
	campaign, _ := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err=%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x40\x00\x00\x00torn-mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, c2 := openPersisted(t, dir, Options{})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("torn-tail recovery diverged:\n before: %s\n after:  %s", before, after)
	}
}

// TestExplicitSnapshotCompacts verifies Server.Snapshot writes a
// snapshot and the journal keeps serving identical state from it.
func TestExplicitSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	campaign, _ := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", len(snaps))
	}

	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot-only recovery diverged:\n before: %s\n after:  %s", before, after)
	}
}

// TestInMemoryServerHasNoJournal pins the in-memory default: an empty
// DataDir opens no journal, so nothing can ever reach the filesystem,
// and Snapshot/Close are no-ops even after traffic.
func TestInMemoryServerHasNoJournal(t *testing.T) {
	srv := NewServer()
	if srv.log != nil {
		t.Fatal("in-memory server opened a journal")
	}
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	completeSession(c, join(c, id, "mem-only"), 1500, true, 10, 0)
	if err := srv.Snapshot(); err != nil {
		t.Fatalf("in-memory Snapshot should no-op: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("in-memory Close should no-op: %v", err)
	}
}

// rawDo issues one request and returns the status and exact body bytes.
func rawDo(t *testing.T, c *client, method, path string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

// sessionCounts returns how many sessions the sessions index holds and
// how many completed ones the campaigns file. It fails tb if the index
// holds a completed session, or one a campaign files as completed: a
// completed session lives only in its campaign.
func sessionCounts(tb testing.TB, s *Server) (inflight, completed int) {
	tb.Helper()
	s.state.Sessions(func(id string, sess *state.Session) bool {
		if sess.Standing().Completed {
			tb.Errorf("the sessions index holds completed session %s", id)
		}
		inflight++
		return true
	})
	var filed []string
	for _, c := range campaignsOf(tb, s) {
		filed = append(filed, c.Completed()...)
	}
	for _, id := range filed {
		if s.state.Assignment(id) != nil {
			tb.Errorf("the sessions index holds session %s, which its campaign files as completed", id)
		}
	}
	return inflight, len(filed)
}

// TestCompactSessionRoundTrip: a completed session is its frozen record
// and nothing else, and a server that got the record from a journal
// replay, from a snapshot's arena or from an imported campaign answers
// every endpoint that touches the session byte for byte like the one
// that froze it — including a session whose test IDs do not start with
// its own ID, which the record stores whole — then keeps folding new
// sessions.
func TestCompactSessionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	campaign, vids := seedPersistedCampaign(t, c)
	done := join(c, campaign, "persist-late")
	completeSession(c, done, 1_650, false, 12, 0) // fails its control
	// No handler mints such an assignment; a journal may still carry one.
	odd := JoinResponse{Session: "s-odd"}
	for k := 0; k < TestsPerSession; k++ {
		odd.Tests = append(odd.Tests, AssignedTest{
			TestID: fmt.Sprintf("odd-%d", k), VideoID: vids[k%2], Kind: "timeline", Control: k == TestsPerSession-1,
		})
	}
	ev := &state.Event{Op: state.OpSession, ID: odd.Session, Campaign: campaign, Worker: &Worker{ID: "persist-odd", Country: "PT"}, Tests: odd.Tests}
	if _, err := srv.mutate(ev, nil); err != nil {
		t.Fatal(err)
	}
	completeSession(c, odd, 1_700, true, 12, 0)

	type reply struct {
		status int
		body   []byte
	}
	probe := func(c *client) map[string]reply {
		out := map[string]reply{}
		ask := func(name, method, path string, body any) {
			status, got := rawDo(t, c, method, path, body)
			out[name] = reply{status, got}
		}
		ask("results", "GET", "/api/v1/campaigns/"+campaign+"/results", nil)
		ask("analytics", "GET", "/api/v1/campaigns/"+campaign+"/analytics", nil)
		ask("analytics band", "GET", "/api/v1/campaigns/"+campaign+"/analytics?lo=10&hi=90", nil)
		for _, jr := range []JoinResponse{done, odd} {
			base := "/api/v1/sessions/" + jr.Session
			ask(jr.Session+" tests", "GET", base+"/tests", nil)
			ask(jr.Session+" duplicate answer", "POST", base+"/responses",
				ResponseBody{TestID: jr.Tests[2].TestID, SubmittedMs: 1, KeptOriginal: true})
			ask(jr.Session+" unknown test", "POST", base+"/responses", ResponseBody{TestID: "nope", SubmittedMs: 1})
			ask(jr.Session+" late events", "POST", base+"/events",
				EventBatch{VideoID: jr.Tests[0].VideoID, Plays: 1, Seeks: 900})
		}
		return out
	}
	before := probe(c)
	for _, jr := range []JoinResponse{done, odd} {
		for name, want := range map[string]int{
			" tests": http.StatusOK, " duplicate answer": http.StatusConflict,
			" unknown test": http.StatusBadRequest, " late events": http.StatusConflict,
		} {
			if got := before[jr.Session+name]; got.status != want {
				t.Fatalf("%s%s: status %d %s, want %d", jr.Session, name, got.status, got.body, want)
			}
		}
		var tests JoinResponse
		if err := json.Unmarshal(before[jr.Session+" tests"].body, &tests); err != nil || !reflect.DeepEqual(tests, jr) {
			t.Fatalf("GET tests of completed session %s: %+v (%v), want the assignment it joined with %+v", jr.Session, tests, err, jr)
		}
	}
	// Whatever way a server came by the campaign, the index holds the one
	// session still in flight, the campaign files the seven completed, and
	// the replies are the first server's.
	check := func(how string, s *Server, c *client) {
		t.Helper()
		if inflight, completed := sessionCounts(t, s); inflight != 1 || completed != 7 {
			t.Fatalf("%s: index holds %d sessions and the campaign files %d completed, want 1 and 7", how, inflight, completed)
		}
		after := probe(c)
		for name, want := range before {
			if got := after[name]; got.status != want.status || !bytes.Equal(got.body, want.body) {
				t.Fatalf("%s: %s diverged:\n before: %d %s\n after:  %d %s", how, name, want.status, want.body, got.status, got.body)
			}
		}
	}
	check("live", srv, c)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	check("journal replay", srv2, c2)
	if err := srv2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3, c3 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv3.Close()
	check("snapshot load", srv3, c3)

	// The restored fold keeps folding.
	completeSession(c3, join(c3, campaign, "post-restore"), 1_500, true, 12, 0)
	var res ResultsResponse
	c3.do("GET", "/api/v1/campaigns/"+campaign+"/results", nil, &res)
	if res.Participants != 8 || res.Control != 1 {
		t.Fatalf("after restore + one session: participants=%d control=%d, want 8 and 1", res.Participants, res.Control)
	}
}

// TestLateRequestsAcrossCampaigns: the sessions index holds no completed
// session, so every late request goes to the campaigns, and the
// session's campaign may be any of them. On three campaigns with
// completed sessions in each, live, after a journal replay and after a
// snapshot load: GET tests of a completed session answers the bytes its
// join was answered with, a late answer and late events are 409, an
// unknown session is 404, and under a per-worker rate a completed
// session's key is charged while a made-up one gets no bucket.
func TestLateRequestsAcrossCampaigns(t *testing.T) {
	const burst = 16 // seven answers to complete, three late requests, to spare
	opts := Options{SnapshotEvery: -1, WorkerRate: 0.001, WorkerBurst: burst}
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, opts)
	type completed struct {
		jr   JoinResponse
		join []byte // the join's reply, byte for byte
	}
	var done []completed
	for i, kind := range []string{"timeline", "ab", "timeline"} {
		campaign, _ := setupCampaign(c, kind, 2)
		for k := 0; k < 3; k++ {
			status, body := rawDo(t, c, "POST", "/api/v1/sessions", JoinRequest{
				Campaign: campaign, Worker: Worker{ID: fmt.Sprintf("late-%d-%d", i, k)}, Captcha: "tok",
			})
			var jr JoinResponse
			if err := json.Unmarshal(body, &jr); status != http.StatusCreated || err != nil {
				t.Fatalf("join: %d %s", status, body)
			}
			if k == 2 {
				continue // stays in flight
			}
			for _, tt := range jr.Tests {
				if status, reply := rawDo(t, c, "POST", "/api/v1/sessions/"+jr.Session+"/responses",
					ResponseBody{TestID: tt.TestID, SubmittedMs: 1_500, KeptOriginal: true, Choice: "left"}); status != http.StatusAccepted {
					t.Fatalf("answer: %d %s", status, reply)
				}
			}
			done = append(done, completed{jr, body})
		}
	}
	const madeUp = "s-made-up"
	check := func(how string, srv *Server, c *client) {
		t.Helper()
		if inflight, filed := sessionCounts(t, srv); inflight != 3 || filed != len(done) {
			t.Fatalf("%s: index holds %d sessions and the campaigns file %d completed, want 3 and %d", how, inflight, filed, len(done))
		}
		for _, d := range done {
			base := "/api/v1/sessions/" + d.jr.Session
			if status, body := rawDo(t, c, "GET", base+"/tests", nil); status != http.StatusOK || !bytes.Equal(body, d.join) {
				t.Fatalf("%s: GET tests of completed %s: %d %s, want 200 and its join's reply %s", how, d.jr.Session, status, body, d.join)
			}
			if status, body := rawDo(t, c, "POST", base+"/responses", ResponseBody{TestID: d.jr.Tests[3].TestID, SubmittedMs: 1, Choice: "left"}); status != http.StatusConflict {
				t.Fatalf("%s: late answer to %s: %d %s, want 409", how, d.jr.Session, status, body)
			}
			if status, body := rawDo(t, c, "POST", base+"/events", EventBatch{VideoID: d.jr.Tests[0].VideoID, Plays: 1}); status != http.StatusConflict {
				t.Fatalf("%s: late events of %s: %d %s, want 409", how, d.jr.Session, status, body)
			}
			v, ok := srv.admission.buckets.Load(d.jr.Session)
			if !ok {
				t.Fatalf("%s: completed session %s has no rate bucket", how, d.jr.Session)
			}
			b := v.(*tokenBucket)
			b.mu.Lock()
			tokens := b.tokens
			b.mu.Unlock()
			if tokens > burst-3+0.5 { // the rate refills a thousandth of a token a second
				t.Fatalf("%s: completed session %s holds %.2f of %d tokens after three requests", how, d.jr.Session, tokens, burst)
			}
		}
		base := "/api/v1/sessions/" + madeUp
		for _, r := range []struct {
			method, path string
			body         any
		}{
			{"GET", base + "/tests", nil},
			{"POST", base + "/responses", ResponseBody{TestID: madeUp + "-t0", SubmittedMs: 1}},
			{"POST", base + "/events", EventBatch{VideoID: done[0].jr.Tests[0].VideoID, Plays: 1}},
		} {
			if status, body := rawDo(t, c, r.method, r.path, r.body); status != http.StatusNotFound {
				t.Fatalf("%s: %s %s: %d %s, want 404", how, r.method, r.path, status, body)
			}
		}
		if _, ok := srv.admission.buckets.Load(madeUp); ok {
			t.Fatalf("%s: the made-up session %s got a rate bucket", how, madeUp)
		}
	}
	check("live", srv, c)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, c = openPersisted(t, dir, opts)
	check("journal replay", srv, c)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, c = openPersisted(t, dir, opts)
	defer srv.Close()
	check("snapshot load", srv, c)
}

// TestSnapshotCarriesCompletedSessionsAsArena pins the version-6
// layout: a snapshot is its counters and its campaigns' sections and
// nothing beside them; a section nests its videos in the campaign's order
// and its sessions in flight, and its completed sessions travel as the
// campaign's files — the section counts them and says how long each file
// is valid for, and carries none of their IDs, records or rows.
func TestSnapshotCarriesCompletedSessionsAsArena(t *testing.T) {
	srv, c := openPersisted(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer srv.Close()
	campaign, vids := seedPersistedCampaign(t, c)
	data, err := document(srv)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"campaigns", "joined", "next_id", "version"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("snapshot keys %v, want %v", keys, want)
	}
	var sections []map[string]json.RawMessage
	if err := json.Unmarshal(top["campaigns"], &sections); err != nil {
		t.Fatal(err)
	}
	keys = keys[:0]
	for k := range sections[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"frozen", "frozen_bytes", "id", "inflight", "kind", "name", "row_bytes", "videos"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("section keys %v, want %v", keys, want)
	}
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != stateVersion {
		t.Fatalf("snapshot version %d, want %d", st.Version, stateVersion)
	}
	cs, _ := srv.state.Campaign(campaign)
	cn := st.Campaigns[0]
	if len(cn.Inflight) != 1 || len(cn.Inflight[0].Answers) != 1 {
		t.Fatalf("campaign %s lists %d sessions in flight, want only the one, with its one answer", cn.ID, len(cn.Inflight))
	}
	if cn.Frozen != 5 || cs.Spilled() != 5 {
		t.Fatalf("campaign %s counts %d completed and spilled %d, want 5 and 5", cn.ID, cn.Frozen, cs.Spilled())
	}
	for i, v := range cn.Videos {
		if v.ID != vids[i] || v.Hash == "" || v.Banned != (i == 2) {
			t.Fatalf("video %d of the section is %+v, want %s with its hash, banned only the third", i, v, vids[i])
		}
	}
	if len(cn.Videos) != len(vids) {
		t.Fatalf("the section carries %d videos, the campaign %d", len(cn.Videos), len(vids))
	}
	frozen, rows := cs.Files()
	if frozen == nil || cn.FrozenBytes == 0 || frozen.Size() != cn.FrozenBytes || frozen.Synced() != cn.FrozenBytes {
		t.Fatalf("the section says the frozen file holds %d bytes, the file is %v", cn.FrozenBytes, frozen)
	}
	if rows.Size() != cn.RowBytes || rows.Synced() != cn.RowBytes || cn.RowBytes == 0 {
		t.Fatalf("the section says the rows file holds %d bytes; it holds %d, %d synced", cn.RowBytes, rows.Size(), rows.Synced())
	}
}

// TestStateDocumentRoundTrip: a campaign's section is the one form of
// its state. A snapshot loaded and taken again is the same bytes, and the
// reopened server serves the /results and /analytics it served before.
func TestStateDocumentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	campaign, _ := seedPersistedCampaign(t, c)
	// A second session in flight, and a second campaign.
	join(c, campaign, "round-trip")
	other, _ := setupCampaign(c, "ab", 2)
	join(c, other, "round-trip-ab")
	wantResults, wantAnalytics := rawResults(t, c, campaign), rawAnalytics(t, c, campaign)
	before, err := document(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	src, c = openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer src.Close()
	after, err := document(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot, load, snapshot changed the document:\nbefore: %s\nafter:  %s", before, after)
	}
	if got := rawResults(t, c, campaign); !bytes.Equal(got, wantResults) {
		t.Fatalf("reloaded /results = %s\nbefore the snapshot %s", got, wantResults)
	}
	if got := rawAnalytics(t, c, campaign); !bytes.Equal(got, wantAnalytics) {
		t.Fatalf("reloaded /analytics = %s\nbefore the snapshot %s", got, wantAnalytics)
	}
}

// sectionOf returns campaign's section as srv's next snapshot would
// carry it.
func sectionOf(t *testing.T, srv *Server, campaign string) snapCampaign {
	t.Helper()
	data, err := document(srv)
	if err != nil {
		t.Fatal(err)
	}
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	for _, cn := range st.Campaigns {
		if cn.ID == campaign {
			return cn
		}
	}
	t.Fatalf("the snapshot carries no section for campaign %s", campaign)
	return snapCampaign{}
}

// loadSections loads a snapshot of sections into a new server over a
// fresh data dir that holds the sample video's blob and a copy of every
// campaign file in src's data dir (none when src is empty), and returns
// the server and the load's error.
func loadSections(t *testing.T, src string, sections ...snapCampaign) (*Server, error) {
	t.Helper()
	data, err := json.Marshal(&snapState{Version: stateVersion, Campaigns: sections})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dst, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	if _, _, err := dst.blobs.Put(bytes.NewReader(sampleVideoBytes())); err != nil {
		t.Fatal(err)
	}
	if src != "" {
		names, _ := filepath.Glob(filepath.Join(src, "campaigns", "*"))
		if err := os.MkdirAll(filepath.Join(dir, "campaigns"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			copyFile(t, name, filepath.Join(dir, "campaigns", filepath.Base(name)))
		}
	}
	return dst, dst.state.Load(data)
}

// copyFile copies file from to file to.
func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyCampaignFiles copies campaign from's files in data dir dir to
// campaign to's.
func copyCampaignFiles(t *testing.T, dir, from, to string) {
	t.Helper()
	for _, ext := range []string{".frozen", ".rows"} {
		copyFile(t, filepath.Join(dir, "campaigns", from+ext), filepath.Join(dir, "campaigns", to+ext))
	}
}

// assertNothingInstalled fails t unless s holds no campaign, session or
// video: s started empty, and the only documents it was given were
// refused.
func assertNothingInstalled(t *testing.T, s *Server) {
	t.Helper()
	if n := s.state.Counts(); n.Campaigns+n.Sessions+n.Videos != 0 {
		t.Fatalf("a refused document left %d campaigns, %d sessions and %d videos in the indexes", n.Campaigns, n.Sessions, n.Videos)
	}
}

// refusedByVersion writes fixture, a snapshot a version-v server wrote,
// into a data dir and checks that Open fails on it with an error naming
// its version and this server's — on the version, not on a field whose
// layout changed — and that loadState installs nothing of it.
func refusedByVersion(t *testing.T, fixture string, v int) {
	refusedByVersionIn(t, t.TempDir(), fixture, v)
}

// refusedByVersionIn is refusedByVersion over data dir dir, which may
// already hold the campaign files the fixture's server wrote beside it.
func refusedByVersionIn(t *testing.T, dir, fixture string, v int) {
	snapshot, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("has schema version %d, this server reads only version %d", v, stateVersion)
	srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.log.WriteSnapshot(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, err = Open(Options{DataDir: dir}); err == nil {
		srv.Close()
		t.Fatalf("Open loaded a version-%d snapshot", v)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Open: %v, want an error saying %q", err, want)
	}
	srv = NewServer()
	if err := srv.state.Load(snapshot); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load: %v, want an error saying %q", err, want)
	}
	assertNothingInstalled(t, srv)
}

// TestParentVersion3DocumentsRefused: the snapshot a version-3 server
// wrote (testdata/parent_v3_snapshot.json, the seedPersistedCampaign
// state) lists a campaign's videos as IDs and its sessions in flight
// beside it. It is refused by its version.
func TestParentVersion3DocumentsRefused(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) { refusedByVersion(t, "parent_v3_snapshot.json", 3) })
}

// TestParentVersion4SnapshotRefused: the snapshot a version-4 server
// wrote (testdata/parent_v4_snapshot.json) stores in its frozen records
// every test ID less its session-ID prefix, a form this server no longer
// decodes. It is refused by its version.
func TestParentVersion4SnapshotRefused(t *testing.T) {
	refusedByVersion(t, "parent_v4_snapshot.json", 4)
}

// TestParentVersion5SnapshotRefused: the snapshot a version-5 server
// wrote (testdata/parent_v5_snapshot.json, the seedPersistedCampaign
// state) carries its completed sessions' IDs and frozen records in the
// section, where this server reads them from the campaign's files. It is
// refused by its version.
func TestParentVersion5SnapshotRefused(t *testing.T) {
	refusedByVersion(t, "parent_v5_snapshot.json", 5)
}

// TestParentVersion6SnapshotRefused: the snapshot a version-6 server
// wrote and its campaign's files (testdata/parent_v6, the
// seedPersistedCampaign state) keep each completed session's frozen
// record behind varint lengths and no checksum, where this server reads
// a checked frame. Open over the document and its files is refused by
// the version, before it reads a file.
func TestParentVersion6SnapshotRefused(t *testing.T) {
	fixture := filepath.Join("testdata", "parent_v6")
	names, err := filepath.Glob(filepath.Join(fixture, "campaigns", "*"))
	if err != nil || len(names) != 2 {
		t.Fatalf("the fixture holds campaign files %v (%v), want two", names, err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "campaigns"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		copyFile(t, name, filepath.Join(dir, "campaigns", filepath.Base(name)))
	}
	refusedByVersionIn(t, dir, filepath.Join("parent_v6", "snapshot.json"), 6)
}

// persistedSource seeds seedPersistedCampaign's state on a server over
// a data dir and returns the server, the dir and the campaign's ID and
// section, as a snapshot taken now carries it: the campaign's completed
// sessions are in its files.
func persistedSource(t *testing.T) (src *Server, dir, campaign string, cn snapCampaign) {
	t.Helper()
	dir = t.TempDir()
	src, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	t.Cleanup(func() { src.Close() })
	campaign, _ = seedPersistedCampaign(t, c)
	return src, dir, campaign, sectionOf(t, src, campaign)
}

// completedIDs lists campaign's completed sessions on srv in completion
// order.
func completedIDs(srv *Server, campaign string) []string {
	c, _ := srv.state.Campaign(campaign)
	return c.Completed()
}

// TestStrayInFlightSessionRefused: a section lists its sessions in
// flight itself, so the one stray it can carry is a session it also
// lists as completed, which fails the snapshot load.
func TestStrayInFlightSessionRefused(t *testing.T) {
	src, dir, campaign, cn := persistedSource(t)
	cn.Inflight[0].ID = completedIDs(src, campaign)[0]
	const want = "both completed and in flight"
	if _, err := loadSections(t, dir, cn); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("snapshot load: %v, want an error saying %q", err, want)
	}
}

// TestSnapshotOfHeldEntitiesRefused: installing a section overwrites
// index entries, so a snapshot whose sections share a campaign, a video
// or a session is refused, rather than cross-wire two campaigns.
func TestSnapshotOfHeldEntitiesRefused(t *testing.T) {
	_, dir, campaign, cn := persistedSource(t)
	copyCampaignFiles(t, dir, campaign, "c-copy")
	for name, c := range map[string]struct {
		copyOf func(cn snapCampaign) snapCampaign
		want   string
	}{
		"campaign": {func(cn snapCampaign) snapCampaign { return snapCampaign{ID: cn.ID, Kind: cn.Kind} }, "already exists"},
		"video": {func(cn snapCampaign) snapCampaign {
			cn.ID, cn.Inflight = "c-copy", nil
			return cn
		}, "already held"},
		"session": {func(cn snapCampaign) snapCampaign {
			cn.ID, cn.Videos, cn.Frozen, cn.FrozenBytes, cn.RowBytes = "c-copy", nil, 0, 0, 0
			return cn
		}, "already held"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := loadSections(t, dir, cn, c.copyOf(cn))
			if err == nil || !strings.Contains(err.Error(), name+" ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("loading a snapshot whose sections share a %s: %v, want an error naming the %s, %q", name, err, name, c.want)
			}
		})
	}
}

// TestSnapshotOfHeldCompletedSessionsRefused: the sessions index holds
// no completed session, so the section that names one an installed
// campaign filed as completed, as completed again or as in flight, is
// found by the merge against that campaign's frozen rows and refused.
func TestSnapshotOfHeldCompletedSessionsRefused(t *testing.T) {
	src, dir, campaign, cn := persistedSource(t)
	copyCampaignFiles(t, dir, campaign, "c-copy")
	completed := completedIDs(src, campaign)
	elsewhere := func(cn snapCampaign) snapCampaign {
		cn.ID, cn.Inflight = "c-copy", nil
		cn.Videos = slices.Clone(cn.Videos)
		for i := range cn.Videos {
			cn.Videos[i].ID += "-copy"
		}
		return cn
	}
	for name, copyOf := range map[string]func(cn snapCampaign) snapCampaign{
		"completed again": elsewhere,
		"in flight": func(cn snapCampaign) snapCampaign {
			inflight := cn.Inflight[0]
			inflight.ID = completed[len(completed)-1]
			cn = elsewhere(cn)
			cn.Frozen, cn.FrozenBytes, cn.RowBytes, cn.Inflight = 0, 0, 0, []snapSession{inflight}
			return cn
		},
	} {
		t.Run(name, func(t *testing.T) {
			dup := copyOf(cn)
			_, err := loadSections(t, dir, cn, dup)
			if err == nil || !strings.Contains(err.Error(), "session ") || !strings.Contains(err.Error(), "already held") {
				t.Fatalf("loading a snapshot whose second section lists a session the first completed: %v, want an error naming the session", err)
			}
			// In the other order, the merge runs against the copy's rows.
			if _, err := loadSections(t, dir, dup, cn); err == nil || !strings.Contains(err.Error(), "already held") {
				t.Fatalf("the same sections in the other order: %v, want an error naming the session", err)
			}
		})
	}
}

// TestSessionForUnknownCampaignRefused: a session is written inside its
// campaign's section, so a journaled join naming a campaign this server
// does not hold fails replay with an error naming that campaign, rather
// than index a session no snapshot would carry.
func TestSessionForUnknownCampaignRefused(t *testing.T) {
	rec, err := json.Marshal(&state.Event{Op: state.OpSession, ID: "s9", Campaign: "c999", Worker: &Worker{ID: "w"},
		Tests: []AssignedTest{{TestID: "s9-t0", VideoID: "v1", Kind: "timeline"}}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jl, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jl.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(Options{DataDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("Open replayed a session record naming a campaign it does not hold")
	}
	if !strings.Contains(err.Error(), "c999") {
		t.Fatalf("Open: %v, want an error naming campaign c999", err)
	}
}

// TestLeftoverClusterStateRefused: builds with a cluster tier journaled
// handoff and import records, which carry no version. Open refuses each
// with an error naming the record's op rather than serve a campaign
// another node owns. (Their snapshot sections marked "moved" are at
// state version 4 or older, so the version refuses them:
// TestParentVersion4SnapshotRefused.)
func TestLeftoverClusterStateRefused(t *testing.T) {
	openOver := func(t *testing.T, records ...string) error {
		t.Helper()
		dir := t.TempDir()
		jl, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range records {
			if _, err := jl.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
		if err == nil {
			srv.Close()
		}
		return err
	}
	campaign := `{"op":"campaign","id":"c1","name":"gone","kind":"timeline"}`
	for op, rec := range map[string]string{
		"handoff": `{"op":"handoff","id":"c1","target":"b"}`,
		"import":  fmt.Sprintf(`{"op":"import","state":{"version":%d,"campaign":{"id":"c2","name":"arrived","kind":"ab"}}}`, stateVersion),
	} {
		t.Run(op+" record", func(t *testing.T) {
			err := openOver(t, campaign, rec)
			if err == nil {
				t.Fatalf("Open replayed a journaled %s record", op)
			}
			for _, want := range []string{"journal " + op + " record", "cluster"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Open: %v, want an error naming %q", err, want)
				}
			}
		})
	}
}

// arenaCorruptions cut or misnumber a campaign's completed sessions —
// its section in the document, or its frozen file in data dir dir — each
// in a way restore must refuse with an error naming the campaign and,
// unless row is false, the row.
var arenaCorruptions = map[string]struct {
	corrupt func(t *testing.T, dir string, cn *snapCampaign)
	row     bool
}{
	// The frozen file and the document lose the last byte of the last
	// record alike.
	"truncated record": {func(t *testing.T, dir string, cn *snapCampaign) {
		name := filepath.Join(dir, "campaigns", cn.ID+".frozen")
		if err := os.Truncate(name, cn.FrozenBytes-1); err != nil {
			t.Fatal(err)
		}
		cn.FrozenBytes--
	}, true},
	"video out of range": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.Videos = cn.Videos[:1] }, true},
	// The document says the frozen file is longer than it is.
	"ends past the arena": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.FrozenBytes += 40 }, false},
	// The document ends the rows file inside the last row.
	"ends out of order": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.RowBytes-- }, true},
	// The document counts fewer completed sessions than the files hold.
	"missing ends": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.Frozen-- }, false},
	// The document gives the rows file a negative length.
	"negative length": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.RowBytes = -1 }, false},
}

// TestCorruptArenaRefused: a state document arrives from outside the
// process, so a record that is cut short, points outside its campaign's
// videos or is not where the row ends say fails the snapshot load and
// Open with an error naming the campaign and the row — never a panic,
// and never a half-installed campaign.
func TestCorruptArenaRefused(t *testing.T) {
	for name, corruption := range arenaCorruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			durable, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
			campaign, _ := seedPersistedCampaign(t, c)
			cn := sectionOf(t, durable, campaign)
			corruption.corrupt(t, dir, &cn)
			dst, err := loadSections(t, dir, cn)
			if err == nil || !strings.Contains(err.Error(), "campaign "+campaign) {
				t.Fatalf("snapshot load: %v, want an error naming campaign %s", err, campaign)
			}
			if corruption.row && !strings.Contains(err.Error(), "row ") {
				t.Fatalf("snapshot load: %v, want an error naming the row", err)
			}
			assertNothingInstalled(t, dst)

			// The same section in the data dir's snapshot fails Open.
			data, err := json.Marshal(&snapState{Version: stateVersion, Campaigns: []snapCampaign{cn}})
			if err != nil {
				t.Fatal(err)
			}
			if err := durable.log.WriteSnapshot(data); err != nil {
				t.Fatal(err)
			}
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err == nil {
				reopened.Close()
				t.Fatal("Open over a snapshot with a corrupt arena succeeded")
			}
			if !strings.Contains(err.Error(), "campaign "+campaign) {
				t.Fatalf("Open: %v, want an error naming campaign %s", err, campaign)
			}
		})
	}
}

// TestWrongVersionStateRefused: a snapshot that does not carry the
// current schema version — version 4, whose frozen records kept every
// test ID less its session-ID prefix, version 3, which listed videos and
// sessions in flight beside the campaigns, version 2, which listed
// completed sessions one DTO each, a version not written yet, and the
// unversioned layout older builds wrote — fails Open with an error
// naming the version, rather than loading as empty sessions.
func TestWrongVersionStateRefused(t *testing.T) {
	current := []byte(fmt.Sprintf(`"version":%d`, stateVersion))
	for name, replacement := range map[string]string{
		"version 4": `"version":4`, "version 3": `"version":3`, "version 2": `"version":2`,
		"newer": fmt.Sprintf(`"version":%d`, stateVersion+1), "older": `"version":1`, "unversioned": `"v":0`,
	} {
		t.Run("snapshot/"+name, func(t *testing.T) {
			dir := t.TempDir()
			srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
			seedPersistedCampaign(t, c)
			data, err := document(srv)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, current) {
				t.Fatalf("snapshot carries no %s", current)
			}
			if err := srv.log.WriteSnapshot(bytes.Replace(data, current, []byte(replacement), 1)); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = Open(Options{DataDir: dir})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", stateVersion)) {
				t.Fatalf("Open over a %s snapshot: %v, want an error naming version %d", name, err, stateVersion)
			}
		})
	}
}

// TestVideoWithoutHashRefused: every video record and DTO this repo has
// written carries a content address; one without is an error naming the
// video, on journal replay and on snapshot load alike.
func TestVideoWithoutHashRefused(t *testing.T) {
	srv := NewServer()
	c := newClientFor(t, srv)
	campaign, _ := setupCampaign(c, "timeline", 1)
	_, _, err := srv.state.Apply(&state.Event{Op: state.OpVideo, ID: "v77", Campaign: campaign}, nil)
	if err == nil || !strings.Contains(err.Error(), "v77") {
		t.Fatalf("replaying a hashless video record: %v, want an error naming v77", err)
	}
	data, err := document(srv)
	if err != nil {
		t.Fatal(err)
	}
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	id := st.Campaigns[0].Videos[0].ID
	st.Campaigns[0].Videos[0].Hash = ""
	data, err = json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	err = NewServer().state.Load(data)
	if err == nil || !strings.Contains(err.Error(), id) {
		t.Fatalf("loading a hashless video DTO: %v, want an error naming %s", err, id)
	}
}

// TestVideoWithoutBlobRefused: a video whose blob file is gone cannot
// be served, so recovery refuses it by name and hash on both paths —
// pure journal replay (applyVideo) and snapshot load (restore) —
// rather than one of them opening a server that assigns the video to
// participants and answers 500 for it.
func TestVideoWithoutBlobRefused(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			dir := t.TempDir()
			srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
			_, vids := setupCampaign(c, "timeline", 1)
			v, _, _ := srv.state.Video(vids[0])
			if snapshot {
				if err := srv.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, "blobs", v.Hash[:2], v.Hash)); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err == nil {
				reopened.Close()
				t.Fatalf("Open over a data dir missing %s's blob succeeded", vids[0])
			}
			for _, want := range []string{vids[0], v.Hash, "missing blob"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Open: %v, want an error containing %q", err, want)
				}
			}
		})
	}
}

// TestCampaignIDThatCannotNameAFileRefused: a journaled campaign record
// whose ID cannot name campaigns/<id>.frozen — a NUL, a path separator,
// "." or "..", an empty or over-long name — is refused before it is
// journaled, and the snapshot after it succeeds; a state document that
// lists such a campaign fails Open naming the ID. IDs that are file
// names but outside ValidCampaignID, as older builds journaled them (a
// number past 2^53, the longest name that fits), apply, snapshot and
// reopen.
func TestCampaignIDThatCannotNameAFileRefused(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openPersisted(t, dir, Options{SnapshotEvery: -1})
	for _, id := range []string{"\x00", "c1/x", "../x", `c1\x`, ".", "..", "", strings.Repeat("c", 249)} {
		before := srv.log.Seq()
		if _, err := srv.mutate(&state.Event{Op: state.OpCampaign, ID: id, Name: "n", Kind: "timeline"}, nil); err == nil {
			t.Fatalf("campaign record with ID %q applied", id)
		}
		if after := srv.log.Seq(); after != before {
			t.Fatalf("refused campaign record with ID %q moved the journal from %d to %d", id, before, after)
		}
		if err := srv.Snapshot(); err != nil {
			t.Fatalf("snapshot after refusing ID %q: %v", id, err)
		}
	}
	accepted := []string{"c9007199254740993", strings.Repeat("c", 248), "x.y"}
	for _, id := range accepted {
		if state.ValidCampaignID(id) {
			t.Fatalf("%q is a valid caller ID; the case wants one outside ValidCampaignID", id)
		}
		if _, err := srv.mutate(&state.Event{Op: state.OpCampaign, ID: id, Name: "n", Kind: "timeline"}, nil); err != nil {
			t.Fatalf("campaign record with ID %q: %v", id, err)
		}
	}
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	doc, err := document(srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _ := openPersisted(t, dir, Options{SnapshotEvery: -1})
	for _, id := range accepted {
		if _, ok := reopened.state.Campaign(id); !ok {
			t.Fatalf("campaign %q did not survive the reopen", id)
		}
	}
	// The same document with one campaign renamed "../x".
	if err := reopened.log.WriteSnapshot(bytes.Replace(doc, []byte(`"x.y"`), []byte(`"../x"`), 1)); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, err := Open(Options{DataDir: dir}); err == nil {
		srv.Close()
		t.Fatal("Open loaded a document listing campaign ../x")
	} else if !strings.Contains(err.Error(), `"../x"`) {
		t.Fatalf("Open: %v, want an error naming the ID", err)
	}
}
