package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/store"
)

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

// abandon drops srv as a crashed process would, without Close: only the
// data directory's lock goes, as the process's exit would release it, so
// the directory can be opened again in this process.
func abandon(srv *Server) { srv.lock.Close() }

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
	for i := 0; i < state.BanThreshold; i++ {
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
// snapshot beside the directory's first and the journal keeps serving
// identical state from it.
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
	if len(snaps) != 2 || filepath.Base(snaps[0]) != firstSnapshot {
		t.Fatalf("snapshots on disk = %q, want %s and the explicit one", snaps, firstSnapshot)
	}

	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot-only recovery diverged:\n before: %s\n after:  %s", before, after)
	}
}

// firstSnapshot is the snapshot Open writes into a fresh data directory.
const firstSnapshot = "snap-0000000000000000.snap"

// TestFreshDataDirSnapshotFirst: Open writes a fresh data directory's
// first snapshot before it returns, so every record the directory ever
// holds follows a snapshot whose version names its format, and a server
// that never takes a cadence snapshot reopens its own directory.
func TestFreshDataDirSnapshotFirst(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	if _, err := os.Stat(filepath.Join(dir, firstSnapshot)); err != nil {
		t.Fatalf("a fresh data dir after Open: %v", err)
	}
	if seq := srv.log.Seq(); seq != 0 {
		t.Fatalf("Open journaled %d records", seq)
	}
	campaign, _ := setupCampaign(c, "timeline", 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv2.Close()
	if code := c2.do("GET", "/api/v1/campaigns/"+campaign+"/results", nil, nil); code != http.StatusOK {
		t.Fatalf("results after reopen: %d", code)
	}
}

// copyDir copies the files under directory from to directory to.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		copyFile(t, path, filepath.Join(to, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParentDataDirFormat: testdata/parent_v7 is a data directory the
// parent build wrote (seedPersistedCampaign with SnapshotEvery -1) and
// the /results it served, twice. Its journal alone, with no snapshot to
// name the records' format, fails Open before anything is swept or
// replayed. After one Snapshot of that build its snapshot names version
// 7, whose session records and frozen records kept whole tests where
// this build keeps the videos a join drew, so Open refuses it, naming
// both versions, before a campaign file is read.
func TestParentDataDirFormat(t *testing.T) {
	fixture := filepath.Join("testdata", "parent_v7")
	t.Run("no snapshot", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, filepath.Join(fixture, "no_snapshot"), dir)
		// Campaign files a failed snapshot could leave, which a sweep of a
		// directory with no snapshot removes.
		files := filepath.Join(dir, "campaigns")
		copyDir(t, filepath.Join(fixture, "snapshot", "campaigns"), files)
		left, err := os.ReadDir(files)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Open(Options{DataDir: dir})
		if err == nil {
			srv.Close()
			t.Fatal("Open over the parent's journal with no snapshot succeeded")
		}
		for _, want := range []string{"92 records", "no snapshot", "version 8"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Open: %v, want an error naming %q", err, want)
			}
		}
		if now, err := os.ReadDir(files); err != nil || len(now) != len(left) {
			t.Fatalf("campaign files after the refused Open: %v (%v), before %v", now, err, left)
		}
		// No record reached the state either.
		jl, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer jl.Close()
		blobs, err := blob.Open(blob.Options{Dir: filepath.Join(dir, "blobs")})
		if err != nil {
			t.Fatal(err)
		}
		st := state.New(blobs, nil)
		defer st.Close()
		if err := st.Recover(jl); err == nil {
			t.Fatal("Recover over the parent's journal with no snapshot succeeded")
		}
		if n := st.Counts(); n != (state.Counts{}) {
			t.Fatalf("the refused Recover applied records: %+v", n)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, filepath.Join(fixture, "snapshot"), dir)
		srv, err := Open(Options{DataDir: dir})
		if err == nil {
			srv.Close()
			t.Fatal("Open over the parent's snapshotted dir succeeded")
		}
		for _, want := range []string{"version 7", "version 8"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Open: %v, want an error naming %q", err, want)
			}
		}
		// The refused directory is the parent's still, byte for byte, beside
		// the lock file Open takes before it reads anything.
		if err := os.Remove(filepath.Join(dir, "LOCK")); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if diff := diffTrees(t, filepath.Join(fixture, "snapshot"), dir); diff != "" {
			t.Fatalf("the refused Open changed the directory: %s", diff)
		}
	})
}

// currentDataDir is testdata's data directory of the layout this build
// writes: TestCurrentDataDirFormat holds the build to it.
const currentDataDir = "data_v8"

// writeDataDir writes into dir, in the layout of testdata/parent_v7,
// what a fresh data directory holds once seedPersistedCampaign has run
// over it with SnapshotEvery -1: no_snapshot, its journal and blobs with
// no snapshot; snapshot, the directory after one Snapshot, holding only
// the newest snapshot and what it covers; and results.json, the
// campaign's /results.
func writeDataDir(t *testing.T, dir string) {
	t.Helper()
	full := t.TempDir()
	srv, c := openPersisted(t, full, Options{SnapshotEvery: -1})
	campaign, _ := seedPersistedCampaign(t, c)
	results := rawResults(t, c, campaign)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seq := srv.log.Seq()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	segment := fmt.Sprintf("wal-%016x.seg", 1)
	snapshot := fmt.Sprintf("snap-%016x.snap", seq)
	next := fmt.Sprintf("wal-%016x.seg", seq+1)
	for part, names := range map[string][]string{
		"no_snapshot": {segment, "blobs"},
		"snapshot":    {snapshot, next, "campaigns", "blobs"},
	} {
		for _, name := range names {
			from, to := filepath.Join(full, name), filepath.Join(dir, part, name)
			if st, err := os.Stat(from); err != nil {
				t.Fatal(err)
			} else if st.IsDir() {
				copyDir(t, from, to)
				continue
			}
			if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
				t.Fatal(err)
			}
			copyFile(t, from, to)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), results, 0o644); err != nil {
		t.Fatal(err)
	}
}

// diffTrees names the first file under directory a or b that the other
// lacks or holds other bytes of, "" when the two trees are the same.
func diffTrees(t *testing.T, a, b string) string {
	t.Helper()
	files := func(root string) map[string][]byte {
		out := map[string][]byte{}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err == nil {
				out[rel], err = os.ReadFile(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fa, fb := files(a), files(b)
	names := make([]string, 0, len(fa)+len(fb))
	for name := range fa {
		names = append(names, name)
	}
	for name := range fb {
		if _, ok := fa[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		x, inA := fa[name]
		y, inB := fb[name]
		switch {
		case !inA:
			return fmt.Sprintf("%s holds %s, %s does not", b, name, a)
		case !inB:
			return fmt.Sprintf("%s holds %s, %s does not", a, name, b)
		case !bytes.Equal(x, y):
			return fmt.Sprintf("%s differs: %d bytes in %s, %d in %s", name, len(x), a, len(y), b)
		}
	}
	return ""
}

// TestCurrentDataDirFormat: testdata/data_v8 is the data directory this
// build writes (writeDataDir), and it serves the campaign's /results as
// the parent build did over testdata/parent_v7, byte for byte. A build
// that writes any other byte there has changed a format the snapshot's
// version names, so it must bump stateVersion, keep the committed
// directory as the next parent fixture and write its own: rewrite with
//
//	go test ./internal/platform -run '^TestCurrentDataDirFormat$' -update
func TestCurrentDataDirFormat(t *testing.T) {
	fixture := filepath.Join("testdata", currentDataDir)
	if *update {
		if err := os.RemoveAll(fixture); err != nil {
			t.Fatal(err)
		}
		writeDataDir(t, fixture)
	}
	t.Run("written", func(t *testing.T) {
		dir := t.TempDir()
		writeDataDir(t, dir)
		if diff := diffTrees(t, fixture, dir); diff != "" {
			t.Fatalf("this build writes another data directory than testdata/%s (%s): a format changed, so bump stateVersion, "+
				"rename testdata/%s to the next parent fixture (testdata/parent_v<its version>, TestParentDataDirFormat's) and "+
				"write this build's directory with -update", currentDataDir, diff, currentDataDir)
		}
	})
	t.Run("served", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("testdata", "parent_v7", "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		copyDir(t, filepath.Join(fixture, "snapshot"), dir)
		srv, c := openPersisted(t, dir, Options{})
		defer srv.Close()
		if got := rawResults(t, c, "c1"); !bytes.Equal(got, want) {
			t.Fatalf("/results over testdata/%s:\n got %s\nwant %s (the parent's, over testdata/parent_v7)", currentDataDir, got, want)
		}
	})
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
// how many completed ones the campaigns, which are all s holds, file. It
// fails tb if the index holds a completed session, or one a campaign
// files as completed: a completed session lives only in its campaign.
func sessionCounts(tb testing.TB, s *Server, campaigns ...string) (inflight, completed int) {
	tb.Helper()
	s.state.Sessions(func(id string, sess *state.Session) bool {
		if sess.Standing().Completed {
			tb.Errorf("the sessions index holds completed session %s", id)
		}
		inflight++
		return true
	})
	if n := s.state.Counts().Campaigns; n != len(campaigns) {
		tb.Fatalf("the server holds %d campaigns, not the %d named", n, len(campaigns))
	}
	var filed []string
	for _, id := range campaigns {
		c, ok := s.state.Campaign(id)
		if !ok {
			tb.Fatalf("the server does not hold campaign %s", id)
		}
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
// that froze it — including a session whose draw no join makes, every
// test the one video, since banned — then keeps folding new sessions.
func TestCompactSessionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	campaign, vids := seedPersistedCampaign(t, c)
	done := join(c, campaign, "persist-late")
	completeSession(c, done, 1_650, false, 12, 0) // fails its control
	// No join draws such a list; a journal may still carry one.
	odd := JoinResponse{Session: "s-odd"}
	ev := &state.Event{Op: state.OpSession, ID: odd.Session, Campaign: campaign, Worker: &Worker{ID: "persist-odd", Country: "PT"}}
	for range TestsPerSession {
		ev.Videos = append(ev.Videos, vids[2])
	}
	joined, err := srv.mutate(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	odd.Tests = joined.Tests
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
		if inflight, completed := sessionCounts(t, s, campaign); inflight != 1 || completed != 7 {
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
	var campaigns []string
	for i, kind := range []string{"timeline", "ab", "timeline"} {
		campaign, _ := setupCampaign(c, kind, 2)
		campaigns = append(campaigns, campaign)
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
		if inflight, filed := sessionCounts(t, srv, campaigns...); inflight != 3 || filed != len(done) {
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
