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
	"sort"
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
	if err := srv.mutate(nil, func() (uint64, error) { return srv.applySession(ev) }); err != nil {
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

	// The restored fold keeps folding.
	completeSession(c3, join(c3, campaign, "post-restore"), 1_500, true, 12, 0)
	var res ResultsResponse
	c3.do("GET", "/api/v1/campaigns/"+campaign+"/results", nil, &res)
	if res.Participants != 8 || res.Control != 1 {
		t.Fatalf("after restore + one session: participants=%d control=%d, want 8 and 1", res.Participants, res.Control)
	}
}

// TestSnapshotCarriesCompletedSessionsAsArena pins the version-4 layout:
// a snapshot is its counters and its campaigns' sections and nothing
// beside them; a section nests its videos in the campaign's order and
// its sessions in flight, and its completed sessions travel as its arena
// — one record per completed session, the bytes the server holds.
func TestSnapshotCarriesCompletedSessionsAsArena(t *testing.T) {
	srv := NewServer()
	c := newClientFor(t, srv)
	campaign, vids := seedPersistedCampaign(t, c)
	data, err := srv.marshalState()
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
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != stateVersion {
		t.Fatalf("snapshot version %d, want %d", st.Version, stateVersion)
	}
	cs, _ := srv.campaigns.Get(campaign)
	cn := st.Campaigns[0]
	if len(cn.Inflight) != 1 || len(cn.Inflight[0].Answers) != 1 {
		t.Fatalf("campaign %s lists %d sessions in flight, want only the one, with its one answer", cn.ID, len(cn.Inflight))
	}
	if len(cn.Records) != 5 || len(cn.ArenaEnds) != 5 {
		t.Fatalf("campaign %s lists %d completed and %d record ends, want 5 and 5", cn.ID, len(cn.Records), len(cn.ArenaEnds))
	}
	for i, v := range cn.Videos {
		if v.ID != vids[i] || v.Hash == "" || v.Banned != (i == 2) {
			t.Fatalf("video %d of the section is %+v, want %s with its hash, banned only the third", i, v, vids[i])
		}
	}
	if len(cn.Videos) != len(vids) {
		t.Fatalf("the section carries %d videos, the campaign %d", len(cn.Videos), len(vids))
	}
	if !bytes.Equal(cn.Arena, cs.arena) || len(cn.Arena) == 0 {
		t.Fatalf("snapshot arena is %d bytes, the campaign's %d", len(cn.Arena), len(cs.arena))
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
	before, err := src.marshalState()
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
	after, err := src.marshalState()
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
	data, err := srv.marshalState()
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

// loadSections loads a snapshot of sections into a new in-memory server
// that holds the sample video's blob, and returns the server and the
// load's error.
func loadSections(t *testing.T, sections ...snapCampaign) (*Server, error) {
	t.Helper()
	data, err := json.Marshal(&snapState{Version: stateVersion, Campaigns: sections})
	if err != nil {
		t.Fatal(err)
	}
	dst := NewServer()
	if _, _, err := dst.blobs.Put(bytes.NewReader(sampleVideoBytes())); err != nil {
		t.Fatal(err)
	}
	return dst, dst.loadState(data)
}

// assertNothingInstalled fails t unless s holds no campaign, session or
// video: s started empty, and the only documents it was given were
// refused.
func assertNothingInstalled(t *testing.T, s *Server) {
	t.Helper()
	if nc, ns, nv := s.campaigns.Len(), s.sessions.Len(), s.videos.Len(); nc+ns+nv != 0 {
		t.Fatalf("a refused document left %d campaigns, %d sessions and %d videos in the indexes", nc, ns, nv)
	}
}

// TestParentVersion3DocumentsRefused: the snapshot a version-3 server
// wrote (testdata/parent_v3_snapshot.json, the seedPersistedCampaign
// state) lists a campaign's videos as IDs and its sessions in flight
// beside it. It fails Open with an error naming version 4 — on the
// version, not on the videos' type — and nothing of it is installed.
func TestParentVersion3DocumentsRefused(t *testing.T) {
	snapshot, err := os.ReadFile(filepath.Join("testdata", "parent_v3_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("has schema version 3, this server reads only version %d", stateVersion)
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
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
			t.Fatal("Open loaded a version-3 snapshot")
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Open: %v, want an error saying %q", err, want)
		}
		srv = NewServer()
		if err := srv.loadState(snapshot); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("loadState: %v, want an error saying %q", err, want)
		}
		assertNothingInstalled(t, srv)
	})
}

// TestParentVersion4SnapshotLoads: testdata/parent_v4_snapshot.json was
// written by a server whose tracker kept its traces and multiplicities in
// maps. It holds sessions in flight on two campaigns, one of each kind,
// whose assignments name each video several times and whose traces
// include replacement batches. It loads; each session's engagement total
// weights every trace by its video's multiplicity, as filtering.Classify
// counts the materialized record; and the snapshot taken again is the
// same bytes.
func TestParentVersion4SnapshotLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent_v4_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.blobs.Put(bytes.NewReader(sampleVideoBytes())); err != nil {
		t.Fatal(err)
	}
	if err := srv.log.WriteSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, err = Open(Options{DataDir: dir, SnapshotEvery: -1}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	repeated := 0
	for _, cn := range st.Campaigns {
		for _, sn := range cn.Inflight {
			want, mult := 0, map[string]int{}
			for _, tt := range sn.Tests {
				tr := sn.Traces[tt.VideoID]
				want += tr.Actions()
				if mult[tt.VideoID]++; mult[tt.VideoID] == 2 && tr.VideoID != "" {
					repeated++
				}
			}
			e, _ := srv.sessions.Get(sn.ID)
			if e.live == nil {
				t.Fatalf("session %s is not in flight after the load", sn.ID)
			}
			if got := e.live.track.Snapshot().Actions; got != want {
				t.Errorf("session %s: %d actions, want %d", sn.ID, got, want)
			}
		}
	}
	if repeated == 0 {
		t.Fatal("the fixture has no session in flight with a trace on a video assigned twice")
	}
	got, err := srv.marshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("the loaded snapshot, taken again, differs:\nfixture: %s\nagain:   %s", data, got)
	}
}

// TestStrayInFlightSessionRefused: a section lists its sessions in
// flight itself, so the one stray it can carry is a session it also
// lists as completed, which fails the snapshot load.
func TestStrayInFlightSessionRefused(t *testing.T) {
	src := NewServer()
	campaign, _ := seedPersistedCampaign(t, newClientFor(t, src))
	cn := sectionOf(t, src, campaign)
	cn.Inflight[0].ID = cn.Records[0]
	const want = "both completed and in flight"
	if _, err := loadSections(t, cn); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("snapshot load: %v, want an error saying %q", err, want)
	}
}

// TestSnapshotOfHeldEntitiesRefused: installing a section overwrites
// index entries, so a snapshot whose sections share a campaign, a video
// or a session is refused, rather than cross-wire two campaigns.
func TestSnapshotOfHeldEntitiesRefused(t *testing.T) {
	src := NewServer()
	campaign, _ := seedPersistedCampaign(t, newClientFor(t, src))
	cn := sectionOf(t, src, campaign)
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
			cn.ID, cn.Videos, cn.Records, cn.Arena, cn.ArenaEnds = "c-copy", nil, nil, nil, nil
			return cn
		}, "already held"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := loadSections(t, cn, c.copyOf(cn))
			if err == nil || !strings.Contains(err.Error(), name+" ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("loading a snapshot whose sections share a %s: %v, want an error naming the %s, %q", name, err, name, c.want)
			}
		})
	}
}

// TestSessionForUnknownCampaignRefused: a session is written inside its
// campaign's section, so a journaled join naming a campaign this server
// does not hold fails replay with an error naming that campaign, rather
// than index a session no snapshot would carry.
func TestSessionForUnknownCampaignRefused(t *testing.T) {
	rec, err := json.Marshal(&event{Op: opSession, ID: "s9", Campaign: "c999", Worker: &Worker{ID: "w"},
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

// TestLeftoverClusterStateRefused: builds with a cluster tier wrote two
// things this server cannot honour, a snapshot section marked "moved" to
// another node and a journaled handoff or import record. Open refuses
// each with an error naming the cause (the campaign and the node, or the
// record's op) rather than serve a campaign another node owns.
func TestLeftoverClusterStateRefused(t *testing.T) {
	openOver := func(t *testing.T, snapshot []byte, records ...string) error {
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
		if snapshot != nil {
			if err := jl.WriteSnapshot(snapshot); err != nil {
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
	t.Run("moved section", func(t *testing.T) {
		snap := fmt.Sprintf(`{"version":%d,"next_id":1,"joined":0,"campaigns":[{"id":"c1","name":"gone","kind":"timeline","moved":"b"}]}`, stateVersion)
		err := openOver(t, []byte(snap))
		if err == nil {
			t.Fatal("Open served a campaign its snapshot marks as handed off")
		}
		for _, want := range []string{"campaign c1", "cluster node b"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Open: %v, want an error naming %q", err, want)
			}
		}
	})
	campaign := `{"op":"campaign","id":"c1","name":"gone","kind":"timeline"}`
	for op, rec := range map[string]string{
		"handoff": `{"op":"handoff","id":"c1","target":"b"}`,
		"import":  fmt.Sprintf(`{"op":"import","state":{"version":%d,"campaign":{"id":"c2","name":"arrived","kind":"ab"}}}`, stateVersion),
	} {
		t.Run(op+" record", func(t *testing.T) {
			err := openOver(t, nil, campaign, rec)
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

// arenaCorruptions cut or misnumber a section's arena, each in a way
// restore must refuse with an error naming the campaign (and, but for
// "missing ends", the row).
var arenaCorruptions = map[string]func(cn *snapCampaign){
	"truncated record": func(cn *snapCampaign) {
		cn.Arena = cn.Arena[:len(cn.Arena)-1]
		cn.ArenaEnds[4]--
	},
	"video out of range":  func(cn *snapCampaign) { cn.Videos = cn.Videos[:1] },
	"ends past the arena": func(cn *snapCampaign) { cn.ArenaEnds[4] += 40 },
	"ends out of order":   func(cn *snapCampaign) { cn.ArenaEnds[2] = cn.ArenaEnds[1] - 1 },
	"missing ends":        func(cn *snapCampaign) { cn.ArenaEnds = cn.ArenaEnds[:4] },
}

// TestCorruptArenaRefused: a state document arrives from outside the
// process, so a record that is cut short, points outside its campaign's
// videos or is not where the row ends say fails the snapshot load and
// Open with an error naming the campaign and the row — never a panic,
// and never a half-installed campaign.
func TestCorruptArenaRefused(t *testing.T) {
	for name, corrupt := range arenaCorruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			durable, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
			campaign, _ := seedPersistedCampaign(t, c)
			cn := sectionOf(t, durable, campaign)
			corrupt(&cn)
			dst, err := loadSections(t, cn)
			if err == nil || !strings.Contains(err.Error(), "campaign "+campaign) {
				t.Fatalf("snapshot load: %v, want an error naming campaign %s", err, campaign)
			}
			if name != "missing ends" && !strings.Contains(err.Error(), "row ") {
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
// current schema version — version 3, which listed videos and sessions in
// flight beside the campaigns, version 2, which listed completed sessions
// one DTO each, a version not written yet, and the unversioned layout
// older builds wrote — fails Open with an error naming the version,
// rather than loading as empty sessions.
func TestWrongVersionStateRefused(t *testing.T) {
	current := []byte(fmt.Sprintf(`"version":%d`, stateVersion))
	for name, replacement := range map[string]string{
		"version 3": `"version":3`, "version 2": `"version":2`, "newer": `"version":5`, "older": `"version":1`, "unversioned": `"v":0`,
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
	id := st.Campaigns[0].Videos[0].ID
	st.Campaigns[0].Videos[0].Hash = ""
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
// pure journal replay (applyVideo) and snapshot load (restore) —
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
// escapes (HTML, U+2028, non-ASCII) and a batch's EYB1 Wire bytes
// included.
func TestJournalRecordBytesMatchMarshal(t *testing.T) {
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
