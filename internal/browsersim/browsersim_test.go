package browsersim

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/adblock"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
)

func newTestSession(seed int64) *Session {
	return NewSession(netem.Lab, rng.New(seed))
}

// testPage builds a small page with one blocking CSS, one script that
// injects an ad, a hero image, and a deferred beacon.
func testPage() *webpage.Page {
	return &webpage.Page{
		URL:  "https://www.t.example/",
		Host: "www.t.example",
		HTML: &webpage.Object{
			ID: "html", Kind: webpage.KindHTML, Host: "www.t.example", Path: "/",
			Bytes: 30_000, ReqHeaderBytes: 450, RespHeaderBytes: 350, Think: 40 * time.Millisecond,
		},
		Objects: []*webpage.Object{
			{
				ID: "css", Kind: webpage.KindCSS, Host: "cdn.t.example", Path: "/s.css",
				Bytes: 20_000, DiscoverAt: 0.05, RenderBlocking: true,
				ExecTime: 5 * time.Millisecond, Think: 10 * time.Millisecond,
			},
			{
				ID: "adjs", Kind: webpage.KindJS, Host: sitegen.AdHost(0), Path: "/js/adloader.js",
				Bytes: 40_000, DiscoverAt: 0.15, ExecTime: 30 * time.Millisecond, Think: 50 * time.Millisecond,
			},
			{
				ID: "hero", Kind: webpage.KindImage, Host: "cdn.t.example", Path: "/hero.jpg",
				Bytes: 120_000, DiscoverAt: 0.25, Think: 10 * time.Millisecond,
				Rect: vision.Rect{X: 0, Y: 2, W: 32, H: 10}, Salience: 1,
			},
			{
				ID: "ad1", Kind: webpage.KindAd, Host: sitegen.AdHost(1), Path: "/creative/1.html",
				Bytes: 60_000, Parent: "adjs", Injected: true, InjectDelay: 80 * time.Millisecond,
				Think: 120 * time.Millisecond,
				Rect:  vision.Rect{X: 38, Y: 0, W: 10, H: 5}, Salience: 0.3, Aux: true,
			},
			{
				ID: "beacon", Kind: webpage.KindTracker, Host: sitegen.TrackerHost(0), Path: "/p.gif",
				Bytes: 43, Parent: "adjs", Injected: true, InjectDelay: 2 * time.Second,
				Think: 10 * time.Millisecond, Deferred: true,
			},
		},
		BackgroundRect:     vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH},
		BackgroundSalience: 0.8,
	}
}

func mustLoad(t *testing.T, s *Session, p *webpage.Page, o Options) *Result {
	t.Helper()
	res, err := s.Load(p, o)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return res
}

func TestLoadBasics(t *testing.T) {
	res := mustLoad(t, newTestSession(1), testPage(), Options{Protocol: httpsim.HTTP2})
	if res.OnLoad <= 0 {
		t.Fatal("onload never fired")
	}
	if res.FirstPaint <= 0 || res.FirstPaint >= res.OnLoad {
		t.Fatalf("first paint %v not inside (0, onload=%v)", res.FirstPaint, res.OnLoad)
	}
	if res.End <= res.OnLoad {
		t.Fatalf("deferred work should extend End (%v) past OnLoad (%v)", res.End, res.OnLoad)
	}
	if len(res.Paints) < 3 {
		t.Fatalf("paints = %d, want >= 3 (skeleton, hero, ad)", len(res.Paints))
	}
	for i := 1; i < len(res.Paints); i++ {
		if res.Paints[i].T < res.Paints[i-1].T {
			t.Fatal("paints out of order")
		}
	}
}

func TestFirstPaintWaitsForBlockingCSS(t *testing.T) {
	s := newTestSession(2)
	res := mustLoad(t, s, testPage(), Options{Protocol: httpsim.HTTP2})
	var cssDone time.Duration
	for _, ot := range res.Objects {
		if ot.Object.ID == "css" {
			cssDone = ot.Done
		}
	}
	if cssDone == 0 {
		t.Fatal("css timing missing")
	}
	if res.FirstPaint < cssDone {
		t.Fatalf("first paint %v before render-blocking css done %v", res.FirstPaint, cssDone)
	}
}

func TestInjectedAdDiscoveredAfterScript(t *testing.T) {
	res := mustLoad(t, newTestSession(3), testPage(), Options{Protocol: httpsim.HTTP2})
	timings := map[string]*ObjectTiming{}
	for _, ot := range res.Objects {
		timings[ot.Object.ID] = ot
	}
	adjs, ad1 := timings["adjs"], timings["ad1"]
	if adjs == nil || ad1 == nil {
		t.Fatal("missing timings")
	}
	// The ad is inserted after the loader script arrives and executes.
	if ad1.Discovered < adjs.Done+30*time.Millisecond {
		t.Fatalf("ad discovered %v, before script done+exec %v", ad1.Discovered, adjs.Done)
	}
}

func TestOnLoadIncludesInjectedAdExcludesDeferred(t *testing.T) {
	res := mustLoad(t, newTestSession(4), testPage(), Options{Protocol: httpsim.HTTP2})
	var adDone, beaconDone time.Duration
	for _, ot := range res.Objects {
		switch ot.Object.ID {
		case "ad1":
			adDone = ot.Done
		case "beacon":
			beaconDone = ot.Done
		}
	}
	if res.OnLoad < adDone {
		t.Fatalf("onload %v fired before injected non-deferred ad finished %v", res.OnLoad, adDone)
	}
	if beaconDone <= res.OnLoad {
		t.Fatalf("deferred beacon %v should finish after onload %v", beaconDone, res.OnLoad)
	}
}

func TestPaintsQuantizedToFrameClock(t *testing.T) {
	res := mustLoad(t, newTestSession(5), testPage(), Options{Protocol: httpsim.HTTP2})
	q := 16 * time.Millisecond
	for _, p := range res.Paints {
		if p.T%q != 0 {
			t.Fatalf("paint at %v not aligned to %v", p.T, q)
		}
	}
}

func TestH2FasterThanH1OnGeneratedSites(t *testing.T) {
	// The aggregate effect of Figure 8(b): most sites load faster on H2.
	pages := sitegen.Generate(sitegen.Config{Seed: 9, Sites: 15, AdShare: 0.6})
	h2Wins := 0
	for i, p := range pages {
		s1 := newTestSession(int64(100 + i))
		r1 := mustLoad(t, s1, p, Options{Protocol: httpsim.HTTP1})
		s2 := newTestSession(int64(100 + i))
		r2 := mustLoad(t, s2, p, Options{Protocol: httpsim.HTTP2})
		if r2.OnLoad < r1.OnLoad {
			h2Wins++
		}
	}
	if h2Wins < 9 {
		t.Fatalf("H2 won only %d/15 sites; multiplexing advantage missing", h2Wins)
	}
}

func TestBlockerSuppressesAdRequests(t *testing.T) {
	p := testPage()
	plain := mustLoad(t, newTestSession(6), p, Options{Protocol: httpsim.HTTP2})
	blocked := mustLoad(t, newTestSession(6), p, Options{Protocol: httpsim.HTTP2, Blocker: adblock.Ghostery()})

	if plain.NetStats.Requests <= blocked.NetStats.Requests {
		t.Fatalf("blocker did not reduce requests: %d vs %d", plain.NetStats.Requests, blocked.NetStats.Requests)
	}
	for _, ot := range blocked.Objects {
		if ot.Object.Kind == webpage.KindAd && !ot.Blocked {
			t.Fatal("ad fetched despite ghostery")
		}
	}
	// Blocked entries must not appear in the HAR.
	for _, e := range blocked.HAR.Entries {
		if e.Response.ContentType == "ad" {
			t.Fatal("blocked ad present in HAR")
		}
	}
	if blocked.Blocker != "ghostery" {
		t.Fatalf("result blocker label = %q", blocked.Blocker)
	}
}

func TestBlockedAdNeverPaints(t *testing.T) {
	p := testPage()
	res := mustLoad(t, newTestSession(7), p, Options{Protocol: httpsim.HTTP2, Blocker: adblock.Ghostery()})
	final := res.FinalFrame()
	// The ad rect (x 38..47, y 0..4) must remain background or blank.
	adTile := webpage.TileValue(3) // ad1 is index 3
	for y := 0; y < 5; y++ {
		for x := 38; x < 48; x++ {
			if final.At(x, y) == adTile {
				t.Fatal("blocked ad painted")
			}
		}
	}
}

func TestPushAcceleratesBlockingCSS(t *testing.T) {
	cssDone := func(push bool) time.Duration {
		res := mustLoad(t, newTestSession(8), testPage(), Options{Protocol: httpsim.HTTP2, Push: push})
		for _, ot := range res.Objects {
			if ot.Object.ID == "css" {
				return ot.Done
			}
		}
		t.Fatal("css missing")
		return 0
	}
	if pushed, polled := cssDone(true), cssDone(false); pushed >= polled {
		t.Fatalf("pushed css (%v) not earlier than polled (%v)", pushed, polled)
	}
}

func TestHARWellFormed(t *testing.T) {
	res := mustLoad(t, newTestSession(10), testPage(), Options{Protocol: httpsim.HTTP2})
	if res.HAR == nil {
		t.Fatal("no HAR")
	}
	if res.HAR.OnLoad() != res.OnLoad {
		t.Fatalf("HAR onload %v != result onload %v", res.HAR.OnLoad(), res.OnLoad)
	}
	// html + css + adjs + hero + ad1 + beacon = 6 entries (none blocked)
	if len(res.HAR.Entries) != 6 {
		t.Fatalf("HAR entries = %d, want 6", len(res.HAR.Entries))
	}
	for _, e := range res.HAR.Entries {
		if e.Request.URL == "" || e.Response.HTTPVersion != "h2" {
			t.Fatalf("malformed HAR entry %+v", e)
		}
		if e.Timings.Wait < 0 || e.Timings.Receive < 0 {
			t.Fatalf("negative HAR phase: %+v", e.Timings)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	run := func() time.Duration {
		return mustLoad(t, newTestSession(11), testPage(), Options{Protocol: httpsim.HTTP2}).OnLoad
	}
	if run() != run() {
		t.Fatal("same seed produced different OnLoad")
	}
}

func TestInvalidPageRejected(t *testing.T) {
	s := newTestSession(12)
	p := testPage()
	p.Objects[0].ID = p.Objects[1].ID // duplicate
	if _, err := s.Load(p, Options{}); err == nil {
		t.Fatal("invalid page accepted")
	}
}

func TestSequentialLoadsShareResolverCache(t *testing.T) {
	// The primer-load effect: the second load of the same page must be
	// at least as fast because DNS is warm.
	s := newTestSession(13)
	p := testPage()
	mustLoad(t, s, p, Options{Protocol: httpsim.HTTP2})
	missesAfterFirst := s.resolver.Misses
	if missesAfterFirst == 0 {
		t.Fatal("cold load saw no DNS misses")
	}
	mustLoad(t, s, p, Options{Protocol: httpsim.HTTP2})
	if s.resolver.Misses != missesAfterFirst {
		t.Fatalf("warm load added DNS misses: %d -> %d", missesAfterFirst, s.resolver.Misses)
	}
	if s.resolver.Hits == 0 {
		t.Fatal("warm load produced no cache hits")
	}
}

func TestGeneratedCorpusLoadsClean(t *testing.T) {
	pages := sitegen.Generate(sitegen.Config{Seed: 21, Sites: 10, AdShare: 1})
	for i, p := range pages {
		s := newTestSession(int64(i + 40))
		res := mustLoad(t, s, p, Options{Protocol: httpsim.HTTP2})
		if res.OnLoad <= 0 || res.OnLoad > 60*time.Second {
			t.Fatalf("site %d OnLoad = %v, implausible", i, res.OnLoad)
		}
		if res.FirstPaint <= 0 {
			t.Fatalf("site %d has no first paint", i)
		}
		if len(res.HAR.Entries) == 0 {
			t.Fatalf("site %d has empty HAR", i)
		}
	}
}

func TestAblationDisablePriorities(t *testing.T) {
	// Priorities should help blocking resources; first paint must not get
	// faster when they are disabled. (Equal is possible on tiny pages.)
	pages := sitegen.Generate(sitegen.Config{Seed: 31, Sites: 8, AdShare: 0.5})
	worse := 0
	for i, p := range pages {
		with := mustLoad(t, newTestSession(int64(60+i)), p, Options{Protocol: httpsim.HTTP2})
		without := mustLoad(t, newTestSession(int64(60+i)), p, Options{Protocol: httpsim.HTTP2, DisablePriorities: true})
		if without.FirstPaint < with.FirstPaint {
			worse++
		}
	}
	if worse > 2 {
		t.Fatalf("disabling priorities improved first paint on %d/8 sites", worse)
	}
}

func TestResultFinalFrameMatchesPageWhenUnblocked(t *testing.T) {
	p := testPage()
	res := mustLoad(t, newTestSession(14), p, Options{Protocol: httpsim.HTTP2})
	if vision.Diff(res.FinalFrame(), p.FinalFrame()) != 0 {
		t.Fatal("unblocked load's final frame differs from page's settled state")
	}
}

var _ = rng.New // keep import if unused in future edits
