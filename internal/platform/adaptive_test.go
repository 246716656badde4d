// Adaptive-campaign properties: with the stopper enabled, kept-session
// verdicts must stay contractually equal to the offline §4.3 batch
// filter, allocation must be a deterministic function of the journal
// state (so crash+replay reproduces every assignment), and a campaign
// the stopper closed must stay closed — still refusing joins with 409 —
// after recovery.
package platform

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// joinStatus is join without the fatal-on-non-201: closed campaigns
// answer 409 and several tests need to observe that.
func joinStatus(c *client, campaign, workerID string) (JoinResponse, int) {
	var jr JoinResponse
	code := c.do("POST", "/api/v1/sessions", JoinRequest{
		Campaign: campaign,
		Worker:   Worker{ID: workerID, Gender: "m", Country: "VE", Source: "crowdflower"},
		Captcha:  "ok-token",
	}, &jr)
	return jr, code
}

func fetchAnalytics(t *testing.T, c *client, campaign string) AnalyticsResponse {
	t.Helper()
	var ar AnalyticsResponse
	if err := json.Unmarshal(rawAnalytics(t, c, campaign), &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// assignmentOf projects a join's tests to the comparable allocation
// decision: the ordered (video, control) sequence.
func assignmentOf(jr JoinResponse) []string {
	out := make([]string, 0, len(jr.Tests))
	for _, tt := range jr.Tests {
		out = append(out, fmt.Sprintf("%s control=%v", tt.VideoID, tt.Control))
	}
	return out
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveAnalyticsEquivalence: the allocator may steer every
// assignment, but the verdicts on the sessions it admits must still be
// byte-for-byte what the offline batch pipeline computes — across both
// campaign kinds and both worker counts. A vanishing half-width keeps
// the campaign collecting for the whole chaos run.
func TestAdaptiveAnalyticsEquivalence(t *testing.T) {
	for _, kind := range []string{"timeline", "ab"} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s-w%d", kind, workers), func(t *testing.T) {
				c, s := newClientOpts(t, Options{Adaptive: true, CIHalfWidth: 1e-9, AdaptiveSeed: 42})
				campaign, _ := setupCampaign(c, kind, 3)
				l := newSent()
				runChaos(t, l, c.srv.URL, campaign, kind, 7, workers, 6)
				assertLiveEqualsOffline(t, s, l, campaign)
				crossCheckHTTP(t, s, l, c, campaign)
				ar := fetchAnalytics(t, c, campaign)
				if ar.Stopping == nil {
					t.Fatal("adaptive server rendered no stopping block")
				}
				if ar.Stopping.Closed {
					t.Fatal("campaign closed under a 1e-9 half-width")
				}
				if ar.Stopping.Total != 3 || len(ar.Stopping.PerVideo) != 3 {
					t.Fatalf("stopping covers %d/%d videos, want 3/3",
						ar.Stopping.Resolved, ar.Stopping.Total)
				}
			})
		}
	}
}

// TestAdaptiveCrashReplayDeterminism: after a crash mid-campaign the
// replayed server must render byte-identical /results and /analytics,
// and — because stopping state is rebuilt from the journal, never
// re-derived — two independent replays of the same journal must hand
// the next participant the exact same assignment.
func TestAdaptiveCrashReplayDeterminism(t *testing.T) {
	for _, opt := range []Options{
		{},
		{SnapshotEvery: 8, SegmentBytes: 4 << 10},
	} {
		opt.Adaptive = true
		opt.CIHalfWidth = 1e-9
		opt.AdaptiveSeed = 11
		t.Run(fmt.Sprintf("snap%d", opt.SnapshotEvery), func(t *testing.T) {
			dir := t.TempDir()
			_, c := openPersisted(t, dir, opt)
			campaign, _ := setupCampaign(c, "timeline", 3)
			l := newSent()
			runChaos(t, l, c.srv.URL, campaign, "timeline", 13, 8, 4)
			preAnalytics := rawAnalytics(t, c, campaign)
			preResults := rawResults(t, c, campaign)

			// Crash: drop the listener without Server.Close, then clone
			// the journal so two replicas can replay it independently.
			c.srv.Close()
			dir2 := t.TempDir()
			copyTree(t, dir, dir2)

			s1, c1 := openPersisted(t, dir, opt)
			_, c2 := openPersisted(t, dir2, opt)
			if got := rawAnalytics(t, c1, campaign); string(got) != string(preAnalytics) {
				t.Fatalf("analytics diverged after replay:\n pre:  %s\n post: %s", preAnalytics, got)
			}
			if got := rawResults(t, c1, campaign); string(got) != string(preResults) {
				t.Fatalf("results diverged after replay:\n pre:  %s\n post: %s", preResults, got)
			}
			assertLiveEqualsOffline(t, s1, l, campaign)

			jr1, code1 := joinStatus(c1, campaign, "replay-probe")
			jr2, code2 := joinStatus(c2, campaign, "replay-probe")
			if code1 != http.StatusCreated || code2 != http.StatusCreated {
				t.Fatalf("probe joins: %d, %d", code1, code2)
			}
			if a1, a2 := assignmentOf(jr1), assignmentOf(jr2); !reflect.DeepEqual(a1, a2) {
				t.Fatalf("replicas of the same journal allocated differently:\n %v\n %v", a1, a2)
			}
		})
	}
}

// TestAdaptiveStopperClosesAndSurvivesCrash: high-agreement sessions
// shrink every interval below the target, the campaign closes and joins
// 409 — and after a crash the recovered server holds the same closure
// (same bytes, same 409) without re-running any estimator decision live.
func TestAdaptiveStopperClosesAndSurvivesCrash(t *testing.T) {
	opt := Options{Adaptive: true, CIHalfWidth: 0.25, AdaptiveSeed: 5}
	dir := t.TempDir()
	_, c := openPersisted(t, dir, opt)
	campaign, _ := setupCampaign(c, "timeline", 2)

	closedAfter := -1
	for i := 0; i < 40; i++ {
		jr, code := joinStatus(c, campaign, fmt.Sprintf("stop-%d", i))
		if code == http.StatusConflict {
			closedAfter = i
			break
		}
		if code != http.StatusCreated {
			t.Fatalf("join %d: %d", i, code)
		}
		completeSession(c, jr, 3_000+float64(i%3)*10, true, 12, 0)
	}
	if closedAfter < 0 {
		t.Fatal("campaign never closed under high-agreement sessions")
	}
	ar := fetchAnalytics(t, c, campaign)
	if ar.Stopping == nil || !ar.Stopping.Closed {
		t.Fatalf("stopper state after closure: %+v", ar.Stopping)
	}
	if ar.Stopping.Resolved != 2 || ar.Stopping.Total != 2 {
		t.Fatalf("resolved %d/%d, want 2/2", ar.Stopping.Resolved, ar.Stopping.Total)
	}
	for id, vs := range ar.Stopping.PerVideo {
		if vs.State != "resolved" || vs.HalfWidth > 0.25 {
			t.Fatalf("video %s not resolved below target: %+v", id, vs)
		}
	}
	pre := rawAnalytics(t, c, campaign)

	c.srv.Close() // crash without Server.Close
	_, c2 := openPersisted(t, dir, opt)
	if _, code := joinStatus(c2, campaign, "post-crash"); code != http.StatusConflict {
		t.Fatalf("closed campaign accepted a join after replay: %d", code)
	}
	ar2 := fetchAnalytics(t, c2, campaign)
	if ar2.Stopping == nil || !ar2.Stopping.Closed {
		t.Fatal("closure lost across crash+replay")
	}
	if got := rawAnalytics(t, c2, campaign); string(got) != string(pre) {
		t.Fatalf("closed-campaign analytics diverged after replay:\n pre:  %s\n post: %s", pre, got)
	}
}

// TestAdaptivePendingBudgetNotSpent pins the provisional-verdict split:
// an in-flight session holds Pending budget but contributes no Kept
// samples (its provisional soft verdict must not be spent), a dropped
// session releases its budget without ever adding samples, and only a
// final kept verdict moves Pending into Kept.
func TestAdaptivePendingBudgetNotSpent(t *testing.T) {
	c, _ := newClientOpts(t, Options{Adaptive: true, CIHalfWidth: 1e-9, AdaptiveSeed: 3})
	campaign, vids := setupCampaign(c, "timeline", 2)

	jr1, code := joinStatus(c, campaign, "w-inflight")
	if code != http.StatusCreated {
		t.Fatalf("join: %d", code)
	}
	pending := func(ar AnalyticsResponse) (total int) {
		for _, id := range vids {
			total += ar.Stopping.PerVideo[id].Pending
		}
		return
	}
	kept := func(ar AnalyticsResponse) (total int) {
		for _, id := range vids {
			total += ar.Stopping.PerVideo[id].Kept
		}
		return
	}
	ar := fetchAnalytics(t, c, campaign)
	if ar.Stopping == nil {
		t.Fatal("no stopping block")
	}
	base := pending(ar)
	if base == 0 || kept(ar) != 0 {
		t.Fatalf("in-flight session: pending=%d kept=%d, want pending>0 kept=0", base, kept(ar))
	}
	for _, pv := range ar.Participants {
		if pv.Session == jr1.Session && (pv.Completed || !pv.Provisional) {
			t.Fatalf("in-flight session rendered as settled: %+v", pv)
		}
	}

	// A dropped session must release its budget without adding samples.
	jr2, _ := joinStatus(c, campaign, "w-dropped")
	completeSession(c, jr2, 9_000, true, 12, 45_000) // engagement-focus drop
	ar = fetchAnalytics(t, c, campaign)
	if got := pending(ar); got != base {
		t.Fatalf("dropped session left pending=%d, want %d", got, base)
	}
	if kept(ar) != 0 {
		t.Fatalf("dropped session fed %d samples into the estimators", kept(ar))
	}

	// Only a final kept verdict converts budget into samples.
	jr3, _ := joinStatus(c, campaign, "w-kept")
	completeSession(c, jr3, 1_400, true, 10, 0)
	ar = fetchAnalytics(t, c, campaign)
	if kept(ar) == 0 {
		t.Fatal("kept session contributed no samples")
	}
	if got := pending(ar); got != base {
		t.Fatalf("kept session left pending=%d, want %d", got, base)
	}
}

// TestAnalyticsPercentileParamValidation: stats.Percentile panics on
// out-of-range input by design, so the HTTP boundary must reject bad
// lo/hi with a 400 instead of letting user input reach the panic.
func TestAnalyticsPercentileParamValidation(t *testing.T) {
	c := newClient(t)
	campaign, _ := setupCampaign(c, "timeline", 2)
	jr := join(c, campaign, "p-worker")
	completeSession(c, jr, 1_500, true, 10, 0)

	cases := []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},
		{"?lo=&hi=", http.StatusOK},
		{"?lo=10&hi=90", http.StatusOK},
		{"?lo=0&hi=100", http.StatusOK},
		{"?lo=-1", http.StatusBadRequest},
		{"?hi=101", http.StatusBadRequest},
		{"?lo=abc", http.StatusBadRequest},
		{"?lo=NaN", http.StatusBadRequest},
		{"?hi=Inf", http.StatusBadRequest},
		{"?lo=60&hi=40", http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := c.do("GET", "/api/v1/campaigns/"+campaign+"/analytics"+tc.query, nil, nil); code != tc.want {
			t.Errorf("analytics%s: %d, want %d", tc.query, code, tc.want)
		}
	}
}

// TestAnalyticsRenderRace renders /analytics in tight loops while chaos
// sessions join and complete, and while a batch of sessions joined
// before the first poll complete one after another: run under -race this
// pins the copy-at-the-boundary contract of stats.SortedSample.Values
// and quality.Campaign.Votes, that frozen rows are filed and copied
// under the campaign lock only, and that a poll copes with a session it
// listed as in flight having completed — its state gone from the index —
// before the poll reaches it. Whatever the interleaving, a poll lists
// each session once, in ascending ID order, as many as it counts, and
// none of the early sessions is ever missing.
func TestAnalyticsRenderRace(t *testing.T) {
	for _, kind := range []string{"timeline", "ab"} {
		t.Run(kind, func(t *testing.T) {
			c, _ := newClientOpts(t, Options{Adaptive: true, CIHalfWidth: 1e-9, AdaptiveSeed: 9})
			campaign, _ := setupCampaign(c, kind, 2)
			var early []JoinResponse
			for i := 0; i < 24; i++ {
				jr, code := joinStatus(c, campaign, fmt.Sprintf("early-%d", i))
				if code != http.StatusCreated {
					t.Fatalf("early join %d: %d", i, code)
				}
				early = append(early, jr)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			poll := func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(c.srv.URL + "/api/v1/campaigns/" + campaign + "/analytics")
					if err != nil { // a handler that panicked hangs up
						t.Errorf("poll: %v", err)
						return
					}
					var ar AnalyticsResponse
					err = json.NewDecoder(resp.Body).Decode(&ar)
					resp.Body.Close()
					if err != nil || len(ar.Participants) != ar.Sessions {
						t.Errorf("poll: decode %v, %d participants listed, %d counted", err, len(ar.Participants), ar.Sessions)
						return
					}
					listed := map[string]bool{}
					for i, pv := range ar.Participants {
						listed[pv.Session] = true
						if i > 0 && ar.Participants[i-1].Session >= pv.Session {
							t.Errorf("poll lists %s before %s", ar.Participants[i-1].Session, pv.Session)
							return
						}
					}
					for _, jr := range early {
						if !listed[jr.Session] {
							t.Errorf("poll misses session %s, joined before it", jr.Session)
							return
						}
					}
				}
			}
			wg.Add(3)
			go poll()
			go poll()
			d := &chaos{base: c.srv.URL, client: &http.Client{}, sent: newSent()}
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(18))
				for _, jr := range early {
					for _, tt := range jr.Tests {
						if err := d.expect(http.StatusAccepted, "POST", "/api/v1/sessions/"+jr.Session+"/responses", d.response(r, kind, 0, tt), nil); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			runChaos(t, d.sent, c.srv.URL, campaign, kind, 21, 4, 4)
			close(stop)
			wg.Wait()
		})
	}
}

// TestGoldenAdaptiveAnalytics scripts a fixed adaptive campaign — two
// high-agreement sessions that resolve both videos and close it, with
// one session still in flight — and pins the exact /analytics bytes,
// stopping block included.
func TestGoldenAdaptiveAnalytics(t *testing.T) {
	c, _ := newClientOpts(t, Options{Adaptive: true, CIHalfWidth: 0.25, AdaptiveSeed: 1})
	campaign, _ := setupCampaign(c, "timeline", 2)
	jr0, _ := joinStatus(c, campaign, "g-adaptive-0")
	completeSession(c, jr0, 3_000, true, 12, 0)
	inflight, code := joinStatus(c, campaign, "g-adaptive-inflight")
	if code != http.StatusCreated {
		t.Fatalf("in-flight join: %d", code)
	}
	c.do("POST", "/api/v1/sessions/"+inflight.Session+"/events", EventBatch{InstructionMs: 12_000}, nil)
	jr1, code := joinStatus(c, campaign, "g-adaptive-1")
	if code != http.StatusCreated {
		t.Fatalf("second join: %d", code)
	}
	completeSession(c, jr1, 3_010, true, 12, 0)
	if _, code := joinStatus(c, campaign, "g-adaptive-late"); code != http.StatusConflict {
		t.Fatalf("join after closure: %d, want 409", code)
	}
	checkGolden(t, "analytics_adaptive.golden.json", rawAnalytics(t, c, campaign))
}
