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
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/wire"
)

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

// indexCounts walks the sessions index: how many entries still hold a
// sessionState, and how many are the inline (campaign, row) of a
// completed session.
func indexCounts(s *Server) (live, completed int) {
	s.sessions.Range(func(_ string, e sessionEntry) bool {
		if e.live != nil {
			live++
		} else {
			completed++
		}
		return true
	})
	return live, completed
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
	ev := &event{Op: opSession, ID: odd.Session, Campaign: campaign, Worker: &Worker{ID: "persist-odd", Country: "PT"}, Tests: odd.Tests}
	if err := srv.mutate(srv.world.RLocker(), nil, func() (uint64, error) { return srv.applySession(ev) }); err != nil {
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
	// Whatever way a server came by the campaign, the index holds state
	// for the one session still in flight and a row for each of the seven
	// completed, and the replies are the first server's.
	check := func(how string, s *Server, c *client) {
		t.Helper()
		if live, completed := indexCounts(s); live != 1 || completed != 7 {
			t.Fatalf("%s: index holds %d session states and %d completed rows, want 1 and 7", how, live, completed)
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
	state, err := srv3.Handoff(campaign, "b")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewServer()
	if err := dst.ImportCampaign(state); err != nil {
		t.Fatal(err)
	}
	c4 := newClientFor(t, dst)
	check("import", dst, c4)

	// The restored fold keeps folding.
	completeSession(c4, join(c4, campaign, "post-restore"), 1_500, true, 12, 0)
	var res ResultsResponse
	c4.do("GET", "/api/v1/campaigns/"+campaign+"/results", nil, &res)
	if res.Participants != 8 || res.Control != 1 {
		t.Fatalf("after restore + one session: participants=%d control=%d, want 8 and 1", res.Participants, res.Control)
	}
}

// TestSnapshotCarriesCompletedSessionsAsArena pins the version-3 schema:
// the sessions list holds only sessions in flight, and a campaign's completed sessions travel as its arena — one record
// per completed session, the bytes the server holds.
func TestSnapshotCarriesCompletedSessionsAsArena(t *testing.T) {
	srv := NewServer()
	c := newClientFor(t, srv)
	campaign, _ := seedPersistedCampaign(t, c)
	data, err := srv.marshalState()
	if err != nil {
		t.Fatal(err)
	}
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != stateVersion {
		t.Fatalf("snapshot version %d, want %d", st.Version, stateVersion)
	}
	if len(st.Sessions) != 1 || len(st.Sessions[0].Answers) != 1 {
		t.Fatalf("sessions lists %d, want only the one in flight, with its one answer", len(st.Sessions))
	}
	cs, _ := srv.campaigns.Get(campaign)
	cn := st.Campaigns[0]
	if len(cn.Records) != 5 || len(cn.ArenaEnds) != 5 || st.Sessions[0].Campaign != cn.ID {
		t.Fatalf("campaign %s lists %d completed and %d record ends, the session in flight names %s, want 5, 5 and the campaign",
			cn.ID, len(cn.Records), len(cn.ArenaEnds), st.Sessions[0].Campaign)
	}
	if bytes.Contains(data, []byte(`"sessions":["`)) {
		t.Fatal("a campaign still lists the IDs of every session it ever joined")
	}
	if !bytes.Equal(cn.Arena, cs.arena) || len(cn.Arena) == 0 {
		t.Fatalf("snapshot arena is %d bytes, the campaign's %d", len(cn.Arena), len(cs.arena))
	}
}

// TestParentVersion3DocumentsLoad: version 3 did not move when campaigns
// stopped listing the IDs of every session they ever joined, so the
// documents the commit before wrote (testdata/parent_v3_*.json: the
// seedPersistedCampaign state, its campaign's "sessions" key included)
// must load, and serve the /results and /analytics bytes that server
// served, with the session in flight still answerable.
func TestParentVersion3DocumentsLoad(t *testing.T) {
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "parent_v3_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	check := func(t *testing.T, srv *Server) {
		c := newClientFor(t, srv)
		if got := rawResults(t, c, "c1"); !bytes.Equal(got, fixture("results")) {
			t.Errorf("/results = %s\nthe parent served %s", got, fixture("results"))
		}
		if got := rawAnalytics(t, c, "c1"); !bytes.Equal(got, fixture("analytics")) {
			t.Errorf("/analytics = %s\nthe parent served %s", got, fixture("analytics"))
		}
		if inflight, completed := indexCounts(srv); inflight != 1 || completed != 5 || srv.SessionsInFlight() != 1 {
			t.Fatalf("index holds %d in flight and %d completed, %d counted in flight, want 1, 5 and 1", inflight, completed, srv.SessionsInFlight())
		}
		code := c.do("POST", "/api/v1/sessions/s10/responses", ResponseBody{TestID: "s10-t1", SubmittedMs: 1300, KeptOriginal: true}, nil)
		if code != http.StatusAccepted {
			t.Fatalf("the session in flight answers its next test: %d", code)
		}
		if id := join(c, "c1", "after-load").Session; id != "s11" {
			t.Fatalf("next session minted as %s, want s11", id)
		}
	}
	t.Run("snapshot", func(t *testing.T) {
		srv := NewServer()
		if _, _, err := srv.blobs.PutBytes(sampleVideoBytes()); err != nil {
			t.Fatal(err)
		}
		if err := srv.loadState(fixture("snapshot")); err != nil {
			t.Fatal(err)
		}
		srv.assign.Store(srv.joined.Load())
		check(t, srv)
	})
	t.Run("export", func(t *testing.T) {
		srv := NewServer()
		if err := srv.ImportCampaign(fixture("export")); err != nil {
			t.Fatal(err)
		}
		check(t, srv)
	})
}

// TestStrayInFlightSessionRefused: a campaign's sessions in flight are
// the session DTOs that name it, so one naming a campaign the document
// does not carry, or listed as completed too, fails the load.
func TestStrayInFlightSessionRefused(t *testing.T) {
	src := NewServer()
	campaign, _ := seedPersistedCampaign(t, newClientFor(t, src))
	state, err := src.Handoff(campaign, "b")
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		corrupt func(ex *campaignExport)
		want    string
	}{
		"another campaign's": {func(ex *campaignExport) { ex.Sessions[0].Campaign = "c999" }, "belongs to campaign c999"},
		"completed as well":  {func(ex *campaignExport) { ex.Sessions[0].ID = ex.Campaign.Records[0] }, "both completed and in flight"},
	} {
		var ex campaignExport
		if err := json.Unmarshal(state, &ex); err != nil {
			t.Fatal(err)
		}
		tc.corrupt(&ex)
		bad, err := json.Marshal(&ex)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewServer().ImportCampaign(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: import: %v, want an error saying %q", name, err, tc.want)
		}
		st := snapState{Version: stateVersion, Campaigns: []*snapCampaign{ex.Campaign}, Sessions: ex.Sessions, Videos: ex.Videos}
		snap, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		dst := NewServer()
		if _, _, err := dst.blobs.PutBytes(sampleVideoBytes()); err != nil {
			t.Fatal(err)
		}
		if err := dst.loadState(snap); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: snapshot load: %v, want an error saying %q", name, err, tc.want)
		}
	}
}

// TestCorruptArenaRefused: a state document arrives from outside the
// process, so a record that is cut short, points outside its campaign's
// videos or is not where the row ends say fails Open and ImportCampaign
// with an error naming the campaign and the row — never a panic, and
// never a half-installed campaign.
func TestCorruptArenaRefused(t *testing.T) {
	src := NewServer()
	campaign, _ := seedPersistedCampaign(t, newClientFor(t, src))
	state, err := src.Handoff(campaign, "b")
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(cn *snapCampaign){
		"truncated record": func(cn *snapCampaign) {
			cn.Arena = cn.Arena[:len(cn.Arena)-1]
			cn.ArenaEnds[4]--
		},
		"video out of range":  func(cn *snapCampaign) { cn.Videos = cn.Videos[:1] },
		"ends past the arena": func(cn *snapCampaign) { cn.ArenaEnds[4] += 40 },
		"ends out of order":   func(cn *snapCampaign) { cn.ArenaEnds[2] = cn.ArenaEnds[1] - 1 },
		"missing ends":        func(cn *snapCampaign) { cn.ArenaEnds = cn.ArenaEnds[:4] },
	} {
		t.Run(name, func(t *testing.T) {
			var ex campaignExport
			if err := json.Unmarshal(state, &ex); err != nil {
				t.Fatal(err)
			}
			corrupt(ex.Campaign)
			bad, err := json.Marshal(&ex)
			if err != nil {
				t.Fatal(err)
			}
			dst := NewServer()
			err = dst.ImportCampaign(bad)
			if err == nil || !strings.Contains(err.Error(), "campaign "+campaign) {
				t.Fatalf("import: %v, want an error naming campaign %s", err, campaign)
			}
			if name != "missing ends" && !strings.Contains(err.Error(), "row ") {
				t.Fatalf("import: %v, want an error naming the row", err)
			}
			if _, ok := dst.campaigns.Get(campaign); ok {
				t.Fatal("refused import still installed the campaign")
			}
			if _, completed := indexCounts(dst); completed != 0 {
				t.Fatalf("refused import left %d completed sessions in the index", completed)
			}

			// The same campaign inside a snapshot fails Open the same way.
			dir := t.TempDir()
			durable, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := durable.ImportCampaign(state); err != nil {
				t.Fatal(err)
			}
			data, err := durable.marshalState()
			if err != nil {
				t.Fatal(err)
			}
			var st snapState
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			corrupt(st.Campaigns[0])
			if data, err = json.Marshal(&st); err != nil {
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

// TestWrongVersionStateRefused: a snapshot or a campaign export that
// does not carry the current schema version — version 2, which listed
// completed sessions one DTO each, a version not written yet, and the
// unversioned layout older builds wrote — fails Open or import with an
// error naming the version, rather than loading as empty sessions.
func TestWrongVersionStateRefused(t *testing.T) {
	current := []byte(fmt.Sprintf(`"version":%d`, stateVersion))
	for name, replacement := range map[string]string{
		"version 2": `"version":2`, "newer": `"version":4`, "older": `"version":1`, "unversioned": `"v":0`,
	} {
		t.Run("snapshot/"+name, func(t *testing.T) {
			dir := t.TempDir()
			srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
			seedPersistedCampaign(t, c)
			data, err := srv.marshalState()
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
		t.Run("import/"+name, func(t *testing.T) {
			src := NewServer()
			campaign, _ := seedPersistedCampaign(t, newClientFor(t, src))
			state, err := src.Handoff(campaign, "b")
			if err != nil {
				t.Fatal(err)
			}
			dst := NewServer()
			err = dst.ImportCampaign(bytes.Replace(state, current, []byte(replacement), 1))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", stateVersion)) {
				t.Fatalf("import of a %s export: %v, want an error naming version %d", name, err, stateVersion)
			}
			if _, ok := dst.campaigns.Get(campaign); ok {
				t.Fatal("refused import still installed the campaign")
			}
			if err := dst.ImportCampaign(state); err != nil {
				t.Fatalf("import of the current version: %v", err)
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
	err := srv.applyEvent(&event{Op: opVideo, ID: "v77", Campaign: campaign})
	if err == nil || !strings.Contains(err.Error(), "v77") {
		t.Fatalf("replaying a hashless video record: %v, want an error naming v77", err)
	}
	data, err := srv.marshalState()
	if err != nil {
		t.Fatal(err)
	}
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	id := st.Videos[0].ID
	st.Videos[0].Hash = ""
	data, err = json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	err = NewServer().loadState(data)
	if err == nil || !strings.Contains(err.Error(), id) {
		t.Fatalf("loading a hashless video DTO: %v, want an error naming %s", err, id)
	}
}

// TestVideoWithoutBlobRefused: a video whose blob file is gone cannot
// be served, so recovery refuses it by name and hash on both paths —
// pure journal replay (applyVideo) and snapshot load (restoreVideo) —
// rather than one of them opening a server that assigns the video to
// participants and answers 500 for it.
func TestVideoWithoutBlobRefused(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			dir := t.TempDir()
			srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
			_, vids := setupCampaign(c, "timeline", 1)
			v, _ := srv.videos.Get(vids[0])
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

// TestJournalRecordBytesMatchMarshal: journal encodes each record into a
// pooled buffer instead of calling json.Marshal, and the record on disk
// is still json.Marshal's bytes, for every op: strings that encoding/json
// escapes (HTML, U+2028, non-ASCII), a batch's EYB1 Wire bytes and an
// import's State document included.
func TestJournalRecordBytesMatchMarshal(t *testing.T) {
	state, err := os.ReadFile(filepath.Join("testdata", "parent_v3_export.json"))
	if err != nil {
		t.Fatal(err)
	}
	recs := AppendWireRecords(nil, EventBatch{VideoID: "v2", LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4, WatchedFraction: 0.9})
	var enc wire.Encoder
	events := []*event{
		{Op: opCampaign, ID: "c1", Name: "<b>A & B</b> — ünï\u2028code", Kind: "timeline"},
		{Op: opVideo, ID: "v2", Campaign: "c1", Hash: "e2f418a26daa90aec4ab4540ac673fdc9445eb213788a61c67ac01d4e9e51861", Size: 4096},
		{Op: opSession, ID: "s3", Campaign: "c1", Worker: &Worker{ID: "w<1>", Gender: "f", Country: "ES", Source: "crowdflower"},
			Tests: []AssignedTest{{TestID: "s3-t0", VideoID: "v2", Kind: "timeline"}, {TestID: "s3-t1", VideoID: "v2", Kind: "timeline", Control: true}}},
		{Op: opEvents, ID: "s3", Batch: &EventBatch{VideoID: "v2", InstructionMs: 3.5, LoadMs: 912.25, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4, WatchedFraction: 0.9, OutOfFocusMs: 1e-7}},
		{Op: opBatch, ID: "s3", Wire: enc.AppendBatch(nil, recs)},
		{Op: opResponse, ID: "s3", Body: &ResponseBody{TestID: "s3-t0", SliderMs: 1400.5, HelperMs: 1200, SubmittedMs: 1200, KeptOriginal: true}},
		{Op: opResponse, ID: "s4", Body: &ResponseBody{TestID: "s4-t0", Choice: "no difference"}},
		{Op: opFlag, ID: "v2", Flagger: "w&2"},
		{Op: opHandoff, ID: "c1", Target: "b"},
		{Op: opImport, State: state},
	}
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, err := srv.journal(ev); err != nil {
			t.Fatalf("%s: %v", ev.Op, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	jl, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	n := 0
	err = jl.Replay(func(_ uint64, payload []byte) error {
		if n >= len(events) {
			return fmt.Errorf("record %d past the %d journaled", n+1, len(events))
		}
		want, err := json.Marshal(events[n])
		if err != nil {
			return err
		}
		if !bytes.Equal(payload, want) {
			t.Errorf("%s record:\n got %s\nwant %s", events[n].Op, payload, want)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("replayed %d records, journaled %d", n, len(events))
	}
}
