// Nothing runs behind a request: the request whose record crosses the
// snapshot cadence takes the snapshot, the server starts no goroutine,
// and a soak holds a durable server live under sessions, snapshots and
// drain.
package platform

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotLandsBeforeCrossingResponse: with SnapshotEvery 4 and one
// request at a time, every request whose record crosses the cadence
// answers only once the snapshot covering that record is written, so
// after each response the newest snapshot is less than 4 records
// behind the journal.
func TestSnapshotLandsBeforeCrossingResponse(t *testing.T) {
	srv, err := Open(Options{DataDir: t.TempDir(), SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for i := 0; i < 24; i++ {
		dispatch(t, h, "POST", "/api/v1/campaigns", CreateCampaignRequest{Name: fmt.Sprint("cadence-", i), Kind: "timeline"}, nil)
		if seq, snap := srv.log.Seq(), srv.log.SnapshotSeq(); seq-snap >= 4 {
			t.Fatalf("the response to record %d returned before its snapshot: the newest covers %d", seq, snap)
		}
	}
	if n := srv.observer.snapshots.Value(); n != 6 {
		t.Fatalf("%d snapshots over 24 records at a cadence of 4, want 6", n)
	}
}

// TestServerStartsNoGoroutine is TestOpenStartsNoGoroutine one tier up:
// a durable server that snapshots after every record serves a campaign
// and a completed session straight through its handler, and at no point
// runs a goroutine of its own.
func TestServerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := Open(Options{DataDir: t.TempDir(), Fsync: true, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	peak := runtime.NumGoroutine()
	note := func() { peak = max(peak, runtime.NumGoroutine()) }
	var created CreateCampaignResponse
	dispatch(t, h, "POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "no-goroutine", Kind: "timeline"}, &created)
	note()
	for i := 0; i < 2; i++ {
		dispatch(t, h, "POST", "/api/v1/campaigns/"+created.ID+"/videos", sampleVideoBytes(), nil)
		note()
	}
	var jr JoinResponse
	dispatch(t, h, "POST", "/api/v1/sessions", JoinRequest{Campaign: created.ID, Worker: Worker{ID: "ng"}, Captcha: "tok"}, &jr)
	note()
	for _, tt := range jr.Tests {
		dispatch(t, h, "POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, WatchedFraction: 0.9}, nil)
		note()
		dispatch(t, h, "POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{TestID: tt.TestID, SubmittedMs: 1200, KeptOriginal: true}, nil)
		note()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.observer.snapshots.Value(); n < 10 {
		t.Fatalf("%d snapshots, want one per request", n)
	}
	// A goroutine another test left behind may exit in between, never
	// start: a count above before is the server's.
	if after := runtime.NumGoroutine(); peak > before || after > before {
		t.Fatalf("goroutines: %d before Open, up to %d serving, %d after Close", before, peak, after)
	}
}

// watchdog waits for done, and fails the test with every goroutine's
// stack if it has not closed within bound.
func watchdog(t *testing.T, done <-chan struct{}, bound time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(bound):
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s still blocked %v later; all goroutines:\n%s", what, bound, buf)
	}
}

// TestLivenessSoak is internal/store's soak one tier up. A durable
// server snapshots every 8 records, so crossing requests take snapshots
// under the exclusive world lock all the time, while workers stream
// sessions on three campaigns, and the worker that completes the 20th
// session starts the drain while the others are mid-session. Anything but a 503 to a join once it drains fails the soak; a
// request still unanswered 30 s on fails it with every goroutine's
// stack; and the server, reopened over its directory, must serve the
// /results it served before Close.
func TestLivenessSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(9_101))
	dir := t.TempDir()
	open := func() *Server {
		t.Helper()
		srv, err := Open(Options{DataDir: dir, Fsync: true, SnapshotEvery: 8, SegmentBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	h := srv.Handler()
	var campaigns []string
	for i := 0; i < 3; i++ {
		campaigns = append(campaigns, seedDispatch(t, h, 2))
	}

	var (
		mu  sync.Mutex
		bad []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	send := func(path string, body any) (int, []byte) {
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rec := (&fuzzEnv{handler: h}).do("POST", path, raw)
		return rec.Code, rec.Body.Bytes()
	}

	var completed atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wrng := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				campaign := campaigns[wrng.Intn(len(campaigns))]
				code, reply := send("/api/v1/sessions", JoinRequest{
					Campaign: campaign, Worker: Worker{ID: fmt.Sprintf("soak-%d-%d", w, i)}, Captcha: "tok",
				})
				switch code {
				case http.StatusCreated:
				case http.StatusServiceUnavailable: // the server drains
					continue
				default:
					fail("join %s: %d %s", campaign, code, reply)
					return
				}
				var jr JoinResponse
				if err := json.Unmarshal(reply, &jr); err != nil {
					fail("join reply: %v", err)
					return
				}
				base := "/api/v1/sessions/" + jr.Session
				for _, tt := range jr.Tests {
					if code, reply := send(base+"/events", EventBatch{
						VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: wrng.Intn(6), WatchedFraction: 0.9,
					}); code != http.StatusAccepted {
						fail("events %s: %d %s", jr.Session, code, reply)
						return
					}
					sub := 1_000 + float64(wrng.Intn(900))
					if code, reply := send(base+"/responses", ResponseBody{
						TestID: tt.TestID, SliderMs: sub + 200, HelperMs: sub, SubmittedMs: sub, KeptOriginal: true,
					}); code != http.StatusAccepted {
						fail("response %s: %d %s", jr.Session, code, reply)
						return
					}
				}
				if completed.Add(1) == 20 {
					srv.StartDrain()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog(t, done, 30*time.Second, "sessions, drain or snapshots")
	for _, msg := range bad {
		t.Error(msg)
	}
	if t.Failed() {
		return
	}

	results := func(h http.Handler) map[string]string {
		out := map[string]string{}
		for _, c := range campaigns {
			out[c] = (&fuzzEnv{handler: h}).do("GET", "/api/v1/campaigns/"+c+"/results", nil).Body.String()
		}
		return out
	}
	want := results(h)
	t.Logf("%d sessions completed, %d snapshots", completed.Load(), srv.observer.snapshots.Value())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv = open()
	defer srv.Close()
	if got := results(srv.Handler()); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened server serves other /results:\n got  %v\n want %v", got, want)
	}
}
