// The crash matrix of the campaigns' files: a durable server spills its
// completed sessions' frozen records and /analytics rows to them at each
// snapshot, and every way a crash or a lost write can leave the files
// beside the state documents must reopen onto the views a server that
// never crashed serves, or fail by name.
package platform

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/store"
)

// spillViews is what the crash matrix compares: each campaign's /results
// and /analytics bytes.
type spillViews map[string][2][]byte

func viewsOf(t *testing.T, c *client, campaigns ...string) spillViews {
	t.Helper()
	v := spillViews{}
	for _, id := range campaigns {
		v[id] = [2][]byte{rawResults(t, c, id), rawAnalytics(t, c, id)}
	}
	return v
}

func (v spillViews) check(t *testing.T, how string, got spillViews) {
	t.Helper()
	for id, want := range v {
		if !bytes.Equal(got[id][0], want[0]) {
			t.Fatalf("%s: campaign %s /results = %s\nwant %s", how, id, got[id][0], want[0])
		}
		if !bytes.Equal(got[id][1], want[1]) {
			t.Fatalf("%s: campaign %s /analytics = %s\nwant %s", how, id, got[id][1], want[1])
		}
	}
}

// completeN completes n sessions of campaign, timeline or A/B, whose
// workers are named from tag, each with its own answers and engagement.
func completeN(c *client, campaign, tag string, n int) {
	for i := 0; i < n; i++ {
		jr := join(c, campaign, fmt.Sprintf("%s-%d", tag, i))
		for k, tt := range jr.Tests {
			c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{
				VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4 + i%7,
				WatchedFraction: 0.9, OutOfFocusMs: float64(i%3) * 20_000,
			}, nil)
			c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{
				TestID: tt.TestID, SubmittedMs: 1_000 + float64((i*97+k*31)%1500), KeptOriginal: i%5 != 0,
				Choice: []string{"left", "right", "no difference"}[(i+k)%3],
			}, nil)
		}
	}
}

// spillSetup opens a durable server over a new data dir with a timeline
// and an A/B campaign, each with completed sessions and one in flight.
func spillSetup(t *testing.T) (srv *Server, c *client, dir string, campaigns []string) {
	t.Helper()
	dir = t.TempDir()
	srv, c = openPersisted(t, dir, Options{SnapshotEvery: -1})
	for _, kind := range []string{"timeline", "ab"} {
		id, _ := setupCampaign(c, kind, 3)
		completeN(c, id, "first", 6)
		join(c, id, "in-flight-"+kind)
		campaigns = append(campaigns, id)
	}
	return srv, c, dir, campaigns
}

// fileSizes returns every campaign file's size under dir, by name.
func fileSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "campaigns", "*"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes[filepath.Base(name)] = fi.Size()
	}
	return sizes
}

// TestSpillCrashBeforeDocument: a crash after a snapshot appended and
// synced the campaigns' tails but before its document landed leaves the
// files longer than the newest document says. Open truncates them to
// the document's lengths, replays the journal past it, and serves the
// /results and /analytics the server served before the crash; the next
// snapshot spills the rest and reopens onto the same views.
func TestSpillCrashBeforeDocument(t *testing.T) {
	srv, c, dir, campaigns := spillSetup(t)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	covered := fileSizes(t, dir) // the lengths the document records
	for _, id := range campaigns {
		completeN(c, id, "second", 5)
	}
	want := viewsOf(t, c, campaigns...)
	crash := errors.New("the process died before the document landed")
	if err := srv.state.Snapshot(func([]byte) error { return crash }); !errors.Is(err, crash) {
		t.Fatalf("snapshot: %v, want the crash", err)
	}
	grown := fileSizes(t, dir)

	// The crash: the old server is dropped without Close.
	abandon(srv)
	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	for name, size := range fileSizes(t, dir) {
		if size != covered[name] {
			t.Fatalf("after reopen %s is %d bytes, the newest document says %d (it was %d before the crash)", name, size, covered[name], grown[name])
		}
		if grown[name] <= covered[name] {
			t.Fatalf("the failed snapshot did not grow %s past the document's %d bytes", name, covered[name])
		}
	}
	want.check(t, "reopened after the crash", viewsOf(t, c2, campaigns...))

	for _, id := range campaigns {
		completeN(c2, id, "third", 3)
	}
	want = viewsOf(t, c2, campaigns...)
	if err := srv2.Snapshot(); err != nil {
		t.Fatalf("the snapshot after the crash: %v", err)
	}
	want.check(t, "after the next snapshot", viewsOf(t, c2, campaigns...))
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3, c3 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv3.Close()
	want.check(t, "reopened after the next snapshot", viewsOf(t, c3, campaigns...))
}

// TestSpillTornNewestDocument: when the newest state document is torn,
// Open falls back to the older one (the journal keeps two), truncates
// the files to its shorter lengths, and replays the journal past it
// onto the views the server served.
func TestSpillTornNewestDocument(t *testing.T) {
	srv, c, dir, campaigns := spillSetup(t)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	older := fileSizes(t, dir) // the lengths the older document records
	for _, id := range campaigns {
		completeN(c, id, "second", 4)
	}
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, id := range campaigns {
		completeN(c, id, "third", 2)
	}
	want := viewsOf(t, c, campaigns...)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("the data dir holds snapshots %v (%v), want two", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv2.Close()
	var spilled int64
	for name, size := range fileSizes(t, dir) {
		if size != older[name] {
			t.Fatalf("after falling back %s is %d bytes, the older document says %d", name, size, older[name])
		}
		spilled += size
	}
	if got := srv2.state.Counts().SpilledBytes; int64(got) != spilled {
		t.Fatalf("the campaigns hold %d spilled bytes after falling back, the older document %d", got, spilled)
	}
	want.check(t, "reopened onto the older document", viewsOf(t, c2, campaigns...))
}

// TestSpillFileShorterThanDocument: a campaign file shorter than the
// document says it is has lost bytes the document covers; Open fails
// with an error naming the campaign and the file.
func TestSpillFileShorterThanDocument(t *testing.T) {
	for _, ext := range []string{".frozen", ".rows"} {
		t.Run(ext, func(t *testing.T) {
			srv, _, dir, campaigns := spillSetup(t)
			if err := srv.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			name := filepath.Join(dir, "campaigns", campaigns[1]+ext)
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(name, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err == nil {
				reopened.Close()
				t.Fatalf("Open over a %s file one byte short succeeded", ext)
			}
			for _, want := range []string{"campaign " + campaigns[1], "campaigns/" + campaigns[1] + ext} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Open: %v, want an error naming %q", err, want)
				}
			}
		})
	}
}

// TestSpillReopenWritesNothing: reopening, snapshotting with nothing
// completed since the last snapshot and closing, twice, leaves every
// campaign file byte-identical.
func TestSpillReopenWritesNothing(t *testing.T) {
	srv, c, dir, campaigns := spillSetup(t)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := viewsOf(t, c, campaigns...)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	contents := func() map[string]string {
		out := map[string]string{}
		for name := range fileSizes(t, dir) {
			b, err := os.ReadFile(filepath.Join(dir, "campaigns", name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(b)
		}
		return out
	}
	before := contents()
	if len(before) != 2*len(campaigns) {
		t.Fatalf("the data dir holds %d campaign files, want %d", len(before), 2*len(campaigns))
	}
	for i := 0; i < 2; i++ {
		srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
		want.check(t, fmt.Sprintf("reopen %d", i), viewsOf(t, c, campaigns...))
		if err := srv.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		after := contents()
		for name, b := range before {
			if after[name] != b {
				t.Fatalf("reopen %d changed %s: %d bytes, were %d", i, name, len(after[name]), len(b))
			}
		}
	}
}

// TestSpillSweepsUnlistedCampaigns: Open removes the files of a campaign
// the state document does not list — nothing it completed is covered —
// and keeps every listed campaign's.
func TestSpillSweepsUnlistedCampaigns(t *testing.T) {
	srv, _, dir, campaigns := spillSetup(t)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	copyCampaignFiles(t, dir, campaigns[0], "c-gone")
	srv2, _ := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv2.Close()
	sizes := fileSizes(t, dir)
	if _, ok := sizes["c-gone.frozen"]; ok {
		t.Fatalf("Open kept the files of a campaign no document lists: %v", sizes)
	}
	if len(sizes) != 2*len(campaigns) {
		t.Fatalf("after Open the data dir holds %v, want both files of %v", sizes, campaigns)
	}
}

// TestSpillRacesReaders: /analytics polls and lookups of completed
// sessions run while sessions complete and snapshots move the spill
// boundary; every read succeeds, and afterwards the views are the bytes
// an in-memory server that spilled nothing serves. Run it under -race.
func TestSpillRacesReaders(t *testing.T) {
	const sessions = 60
	srv, err := Open(Options{DataDir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	env := &fuzzEnv{handler: h}
	campaign := seedDispatch(t, h, 4)
	completeSessions(t, h, campaign, 0, 10)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c, _ := srv.state.Campaign(campaign)
	done := slices.Clone(c.Completed())
	base := "/api/v1/campaigns/" + campaign
	paths := []string{base + "/analytics", base + "/analytics?lo=10&hi=90"}
	for _, sid := range done[:3] {
		paths = append(paths, "/api/v1/sessions/"+sid+"/tests")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := env.do("GET", path, nil); rec.Code != http.StatusOK {
					t.Errorf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	for i := 10; i < sessions; i += 10 {
		completeSessions(t, h, campaign, i, 10)
		if err := srv.Snapshot(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if held := srv.state.Counts().CompletedBytes; held != 0 || len(c.Completed()) != sessions {
		t.Fatalf("the campaign holds %d bytes of %d completed sessions in the heap, want %d, every one spilled", held, len(c.Completed()), sessions)
	}

	fresh := &fuzzEnv{handler: NewServer().Handler()}
	if id := seedDispatch(t, fresh.handler, 4); id != campaign {
		t.Fatalf("the fresh server minted campaign %s, not %s", id, campaign)
	}
	completeSessions(t, fresh.handler, campaign, 0, sessions)
	for _, path := range append(paths, base+"/results") {
		want := fresh.do("GET", path, nil).Body.Bytes()
		if got := env.do("GET", path, nil).Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("GET %s after the race:\n%s\nwant, as an in-memory server serves:\n%s", path, got, want)
		}
	}
}

// TestSpillBitFlipsRefused: a campaign file whose bytes a document
// covers and which lost none of them can still have one go bad. Flipping
// the low bit of each byte of each campaign file in turn, every flip
// fails Open with an error that names the campaign, the file and an
// offset at or before the flipped byte: a frozen record's frame fails
// its checksum, and a row is not the one its checked record renders.
func TestSpillBitFlipsRefused(t *testing.T) {
	srv, _, dir, campaigns := spillSetup(t)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	offset := regexp.MustCompile(`at offset (\d+)`)
	for _, id := range campaigns {
		for _, ext := range []string{".frozen", ".rows"} {
			name := "campaigns/" + id + ext
			path := filepath.Join(dir, name)
			clean, err := os.ReadFile(path)
			if err != nil || len(clean) == 0 {
				t.Fatalf("%s holds %d bytes (%v)", name, len(clean), err)
			}
			for i := range clean {
				flipped := slices.Clone(clean)
				flipped[i] ^= 1
				if err := os.WriteFile(path, flipped, 0o644); err != nil {
					t.Fatal(err)
				}
				reopened, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
				if err == nil {
					reopened.Close()
					t.Fatalf("Open over %s with byte %d flipped succeeded", name, i)
				}
				for _, want := range []string{"campaign " + id, name} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("byte %d of %s flipped: Open: %v, want an error naming %q", i, name, err, want)
					}
				}
				m := offset.FindStringSubmatch(err.Error())
				if m == nil {
					t.Fatalf("byte %d of %s flipped: Open: %v, want an error naming the offset", i, name, err)
				}
				if at, _ := strconv.Atoi(m[1]); at > i {
					t.Fatalf("byte %d of %s flipped: Open: %v, names an offset past the flip", i, name, err)
				}
			}
			if err := os.WriteFile(path, clean, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv2, _ := openPersisted(t, dir, Options{SnapshotEvery: -1})
	srv2.Close()
}

// TestSpillCorruptRecordAfterOpen: a spilled record that goes bad under
// a running server is refused wherever a lookup reads it, not served:
// GET /sessions/{id}/tests of its session answers 500 and counts it in
// eyeorg_spill_corrupt_total, and /results, which is folded from the
// records Open checked, does not change.
func TestSpillCorruptRecordAfterOpen(t *testing.T) {
	srv, c, dir, campaigns := spillSetup(t)
	defer srv.Close()
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cs, _ := srv.state.Campaign(campaigns[0])
	sid := cs.Completed()[2]
	results := rawResults(t, c, campaigns[0])

	// Walk the frozen file's frames to the one of session sid, and flip a
	// bit of its payload on disk.
	path := filepath.Join(dir, "campaigns", campaigns[0]+".frozen")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := -1
	for off := 0; off < len(raw) && at < 0; {
		payload, n, ok := store.DecodeRecord(raw[off:])
		if !ok {
			t.Fatalf("%s holds no valid frame at offset %d", path, off)
		}
		if bytes.HasPrefix(payload[1:], []byte(sid)) && int(payload[0]) == len(sid) {
			at = off + n - 1
		}
		off += n
	}
	if at < 0 {
		t.Fatalf("%s holds no frame of session %s", path, sid)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{raw[at] ^ 1}, int64(at)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if code := c.do("GET", "/api/v1/sessions/"+sid+"/tests", nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("GET the tests of session %s, whose record is corrupt: %d, want 500", sid, code)
	}
	if got := metricValue(t, scrape(t, c), "eyeorg_spill_corrupt_total"); got != "1" {
		t.Fatalf("eyeorg_spill_corrupt_total = %s after one corrupt read, want 1", got)
	}
	if other := cs.Completed()[3]; c.do("GET", "/api/v1/sessions/"+other+"/tests", nil, nil) != http.StatusOK {
		t.Fatalf("GET the tests of session %s, whose record is intact, failed", other)
	}
	if got := rawResults(t, c, campaigns[0]); !bytes.Equal(got, results) {
		t.Fatalf("/results changed after a record went bad:\n%s\nwant %s", got, results)
	}
}

// BenchmarkOpen prices opening a data directory whose one timeline
// campaign has n completed sessions, every one spilled by a snapshot
// before a clean close: Open reads each campaign file once, checks every
// record's frame, and re-folds and re-renders every session. The close
// after each Open is untimed. Beside wall time it reports cpu-ns/op, the
// process's user and system CPU time (getrusage) across the timed Opens:
// on a shared disk the wall time varies more than any change to Open
// would move it, and the CPU time does not wait on the disk. The three
// sizes give the curve of restart cost against history.
func BenchmarkOpen(b *testing.B) {
	for _, n := range []int{1000, 8000, 32000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			campaign := seedDispatch(b, srv.Handler(), 4)
			completeSessions(b, srv.Handler(), campaign, 0, n)
			if err := srv.Snapshot(); err != nil {
				b.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var cpu time.Duration
			cpuOK := true
			for i := 0; i < b.N; i++ {
				start, ok := processCPU()
				srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				end, ok2 := processCPU()
				cpu += end - start
				cpuOK = cpuOK && ok && ok2
				b.StopTimer()
				if c, _ := srv.state.Campaign(campaign); srv.state.Counts().CompletedBytes != 0 || len(c.Completed()) != n {
					b.Fatalf("the reopened campaign holds %d completed sessions, %d bytes of them in the heap, want %d, every one spilled", len(c.Completed()), srv.state.Counts().CompletedBytes, n)
				}
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if cpuOK {
				b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
			}
		})
	}
}

// BenchmarkSnapshot prices one snapshot of a server with a data
// directory whose campaign has about n completed sessions, 64 of them
// completed since the last snapshot (untimed, before each iteration):
// the tails of the campaign's files, appended and synced, and a state
// document that carries the sessions in flight and no completed one, so
// ns/op and B/op do not grow with n. Each iteration grows the campaign
// by 64 sessions; run it with a fixed -benchtime such as 20x.
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			srv, err := Open(Options{DataDir: b.TempDir(), SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			campaign := seedDispatch(b, h, 4)
			completeSessions(b, h, campaign, 0, n)
			if err := srv.Snapshot(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				completeSessions(b, h, campaign, n+64*i, 64)
				b.StartTimer()
				if err := srv.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSpillKeepsFilesOfDottedCampaignIDs: a campaign whose ID ends in
// one of the files' extensions ("c9.rows", a valid caller ID) keeps both
// its files across reopens: Open's sweep cuts one extension to find the
// ID a file belongs to, so it does not read c9.rows.frozen as campaign
// c9's.
func TestSpillKeepsFilesOfDottedCampaignIDs(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	var created CreateCampaignResponse
	for _, id := range []string{"c9.rows", "c9.frozen"} {
		if code := c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{ID: id, Name: "dotted", Kind: "timeline"}, &created); code != http.StatusCreated {
			t.Fatalf("create campaign %s: %d", id, code)
		}
		for i := 0; i < 2; i++ {
			c.do("POST", "/api/v1/campaigns/"+id+"/videos", sampleVideoBytes(), nil)
		}
		completeN(c, id, id, 3)
	}
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := viewsOf(t, c, "c9.rows", "c9.frozen")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
		want.check(t, fmt.Sprintf("reopen %d", i), viewsOf(t, c, "c9.rows", "c9.frozen"))
		if n := len(fileSizes(t, dir)); n != 4 {
			t.Fatalf("reopen %d: the data dir holds %d campaign files, want 4: %v", i, n, fileSizes(t, dir))
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
