// Package sitegen synthesises populations of web pages with realistic
// complexity: heavy-tailed object counts and sizes, multiple origins
// (primary, CDN, ad networks, trackers), blocking head resources,
// progressive discovery positions, and script-injected late ad content.
//
// It substitutes for the paper's 100-site sample of the Alexa top 1M
// (§3.2): the experiments need a *population* with realistic diversity, not
// specific URLs, and a seeded generator makes every campaign reproducible.
// Distribution parameters follow 2016-era HTTP Archive shape: ~40 median
// requests/page, ~1.8 MB median weight, 10-25 distinct hosts, two thirds of
// pages carrying ads.
package sitegen

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
)

// AdNetworkCount is the number of distinct ad/tracker networks in the
// simulated ecosystem. Ad blockers' filter lists cover subsets of these.
const AdNetworkCount = 12

// AdHost returns the serving host of ad network k.
func AdHost(k int) string { return fmt.Sprintf("ads.network-%d.example", k%AdNetworkCount) }

// TrackerHost returns the beacon host of tracker network k.
func TrackerHost(k int) string { return fmt.Sprintf("track.metrics-%d.example", k%AdNetworkCount) }

// Config controls corpus generation.
type Config struct {
	// Seed roots all randomness.
	Seed int64
	// Sites is the number of pages to generate.
	Sites int
	// AdShare is the fraction of pages that display ads.
	AdShare float64
	// ComplexityScale is ignored: every page has the 2016 HTTP Archive
	// shape.
	//
	// Deprecated: every caller set it to 1. The field remains only
	// because the bench module sets it.
	ComplexityScale float64
}

// Generate produces the corpus for cfg. Pages come out in a deterministic
// order; page i is identical across runs with the same seed.
func Generate(cfg Config) []*webpage.Page {
	if cfg.Sites <= 0 {
		return nil
	}
	src := rng.New(cfg.Seed)
	pages := make([]*webpage.Page, cfg.Sites)
	for i := range pages {
		siteSrc := src.Fork(fmt.Sprintf("site-%d", i))
		withAds := siteSrc.Stream("ad-coin").Float64() < cfg.AdShare
		pages[i] = GenerateSite(siteSrc, i, withAds)
	}
	return pages
}

// GenerateAdCorpus produces n pages that all display ads, standing in for
// the paper's sample of 10,000 ad-displaying sites (§3.2).
func GenerateAdCorpus(seed int64, n int) []*webpage.Page {
	src := rng.New(seed)
	pages := make([]*webpage.Page, n)
	for i := range pages {
		siteSrc := src.Fork(fmt.Sprintf("adsite-%d", i))
		pages[i] = GenerateSite(siteSrc, i, true)
	}
	return pages
}

// GenerateSite builds one page. index names the site; withAds adds ad and
// tracker objects.
func GenerateSite(src *rng.Source, index int, withAds bool) *webpage.Page {
	r := src.Stream("structure")
	host := fmt.Sprintf("www.site-%d.example", index)
	cdn := fmt.Sprintf("cdn.site-%d.example", index)

	// Per-site speed scale: origin quality varies widely across the web and
	// drives the cross-site spread every metric (and every human) sees.
	// Time-to-first-byte medians follow 2016 HTTP Archive shape: dynamic
	// origins ~80ms, CDN-served statics ~40ms. These matter doubly for
	// HTTP/1.1, whose six lanes pay each think time serially.
	originThink := time.Duration(rng.LogNormal(r, 80, 0.6)) * time.Millisecond
	cdnThink := time.Duration(rng.LogNormal(r, 40, 0.5)) * time.Millisecond
	sizeScale := rng.LogNormal(r, 1, 0.35)

	page := &webpage.Page{
		URL:  "https://" + host + "/",
		Host: host,
		HTML: &webpage.Object{
			ID:              "html",
			Kind:            webpage.KindHTML,
			Host:            host,
			Path:            "/",
			Bytes:           int64(rng.LogNormal(r, 32_000*sizeScale, 0.5)),
			ReqHeaderBytes:  450,
			RespHeaderBytes: 350,
			Think:           originThink,
		},
		BackgroundRect:     vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH},
		BackgroundSalience: 0.8,
	}

	layout := newLayouter(r)
	var objects []*webpage.Object
	add := func(o *webpage.Object) {
		o.ID = fmt.Sprintf("obj-%d", len(objects))
		if o.ReqHeaderBytes == 0 {
			o.ReqHeaderBytes = 420
		}
		if o.RespHeaderBytes == 0 {
			o.RespHeaderBytes = 320
		}
		objects = append(objects, o)
	}

	// Head: render-blocking CSS on the CDN.
	nCSS := 1 + r.Intn(3)
	for i := 0; i < nCSS; i++ {
		add(&webpage.Object{
			Kind:           webpage.KindCSS,
			Host:           cdn,
			Path:           fmt.Sprintf("/css/style-%d.css", i),
			Bytes:          int64(rng.LogNormal(r, 22_000*sizeScale, 0.6)),
			Think:          cdnThink,
			DiscoverAt:     0.02 + r.Float64()*0.05,
			RenderBlocking: true,
			ExecTime:       time.Duration(3+r.Intn(8)) * time.Millisecond,
		})
	}

	// Head: synchronous framework scripts (parser- and render-blocking).
	nSyncJS := r.Intn(3)
	for i := 0; i < nSyncJS; i++ {
		add(&webpage.Object{
			Kind:           webpage.KindJS,
			Host:           cdn,
			Path:           fmt.Sprintf("/js/lib-%d.js", i),
			Bytes:          int64(rng.LogNormal(r, 55_000*sizeScale, 0.7)),
			Think:          cdnThink,
			DiscoverAt:     0.04 + r.Float64()*0.06,
			ParserBlocking: true,
			RenderBlocking: true,
			ExecTime:       time.Duration(15+r.Intn(40)) * time.Millisecond,
		})
	}

	// Web fonts (invisible but fetched early).
	if r.Float64() < 0.6 {
		add(&webpage.Object{
			Kind:       webpage.KindFont,
			Host:       cdn,
			Path:       "/fonts/main.woff2",
			Bytes:      int64(rng.LogNormal(r, 45_000, 0.4)),
			Think:      cdnThink,
			DiscoverAt: 0.08,
		})
	}

	// Hero image: the page's visually dominant element. Roughly a fifth of
	// sites rotate it as a carousel after load — churn that pixel metrics
	// count and humans ignore.
	hero := &webpage.Object{
		Kind:       webpage.KindImage,
		Host:       cdn,
		Path:       "/img/hero.jpg",
		Bytes:      int64(rng.LogNormal(r, 120_000*sizeScale, 0.6)),
		Think:      cdnThink,
		DiscoverAt: 0.15 + r.Float64()*0.1,
		Rect:       layout.hero(),
		Salience:   1.0,
	}
	if r.Float64() < 0.22 {
		hero.AnimatePeriod = time.Duration(1500+r.Intn(2500)) * time.Millisecond
		hero.AnimateCount = 2 * (1 + r.Intn(2)) // even: settles on base state
	}
	add(hero)

	// Content images spread through the body; later ones below the fold.
	// H2-supporting sites of the era were heavy: tens of images, mostly on
	// one CDN host, which is exactly where HTTP/1.1's six-connection limit
	// and per-request round trips hurt.
	// Document order does not match visual order on real pages: galleries
	// and template-driven markup put plenty of above-the-fold images late
	// in the HTML. Over HTTP/1.1 those late-discovered visible images
	// queue behind whatever already occupies the six lanes; over HTTP/2
	// their viewport priority lets them preempt — a key source of the
	// protocols' perceived difference.
	nImages := int(rng.Pareto(r, 1.0, 40, 220))
	for i := 0; i < nImages; i++ {
		pos := 0.2 + 0.75*float64(i)/float64(nImages)
		aboveFold := r.Float64() < 0.45
		add(&webpage.Object{
			Kind:       webpage.KindImage,
			Host:       pickHost(r, host, cdn),
			Path:       fmt.Sprintf("/img/content-%d.jpg", i),
			Bytes:      int64(rng.LogNormal(r, 18_000*sizeScale, 0.9)),
			Think:      cdnThink,
			DiscoverAt: pos,
			Rect:       layout.contentImage(aboveFold),
			Salience:   0.45 + r.Float64()*0.25,
		})
	}

	// Async application scripts.
	nAsyncJS := 1 + r.Intn(4)
	for i := 0; i < nAsyncJS; i++ {
		add(&webpage.Object{
			Kind:       webpage.KindJS,
			Host:       pickHost(r, host, cdn),
			Path:       fmt.Sprintf("/js/app-%d.js", i),
			Bytes:      int64(rng.LogNormal(r, 35_000*sizeScale, 0.7)),
			Think:      cdnThink,
			DiscoverAt: 0.3 + r.Float64()*0.5,
			ExecTime:   time.Duration(10+r.Intn(30)) * time.Millisecond,
		})
	}

	if withAds {
		addAdStack(r, add, layout, index, originThink)
	}

	// First-party analytics beacon (deferred; never holds onload).
	add(&webpage.Object{
		Kind:       webpage.KindTracker,
		Host:       TrackerHost(r.Intn(AdNetworkCount)),
		Path:       "/collect?v=1",
		Bytes:      35,
		Think:      10 * time.Millisecond,
		DiscoverAt: 0.9,
		Deferred:   true,
	})

	page.Objects = objects
	if err := page.Validate(); err != nil {
		// Generation bugs must fail loudly during development, not surface
		// as mysterious load hangs.
		panic(fmt.Sprintf("sitegen: generated invalid page: %v", err))
	}
	return page
}

// addAdStack wires the script-driven advertising pipeline: an ad-network
// loader script, injected ad creatives (some above the fold), injected
// trackers, and a deferred late refresh — the auxiliary content whose
// timing produces the multi-modal UserPerceivedPLT distributions of
// Figures 1(b) and 9.
func addAdStack(r *rand.Rand, add func(*webpage.Object), layout *layouter, index int, originThink time.Duration) {
	network := r.Intn(AdNetworkCount)
	loaderID := ""
	loader := &webpage.Object{
		Kind:       webpage.KindJS,
		Host:       AdHost(network),
		Path:       "/js/adloader.js",
		Bytes:      int64(rng.LogNormal(r, 60_000, 0.5)),
		Think:      time.Duration(40+r.Intn(80)) * time.Millisecond,
		DiscoverAt: 0.1 + r.Float64()*0.2,
		ExecTime:   time.Duration(25+r.Intn(60)) * time.Millisecond,
	}
	add(loader)
	loaderID = loader.ID

	nAds := 2 + r.Intn(4)
	for i := 0; i < nAds; i++ {
		aboveFold := i == 0 || r.Float64() < 0.5
		var rect vision.Rect
		if aboveFold {
			rect = layout.adSlot()
		} else {
			rect = layout.belowFoldAd()
		}
		ad := &webpage.Object{
			Kind:        webpage.KindAd,
			Host:        AdHost((network + i) % AdNetworkCount),
			Path:        fmt.Sprintf("/creative/banner-%d-%d.html", index, i),
			Bytes:       int64(rng.LogNormal(r, 70_000, 0.7)),
			Think:       time.Duration(80+r.Intn(220)) * time.Millisecond, // ad auctions are slow
			Parent:      loaderID,
			Injected:    true,
			InjectDelay: time.Duration(30+r.Intn(150)) * time.Millisecond,
			Rect:        rect,
			Salience:    0.25 + r.Float64()*0.15,
			Aux:         true,
		}
		// A third of creatives are animated banners, churning long after
		// the page is usable.
		if r.Float64() < 0.35 && !rect.Empty() {
			ad.AnimatePeriod = time.Duration(800+r.Intn(1400)) * time.Millisecond
			ad.AnimateCount = 2 * (1 + r.Intn(3))
		}
		add(ad)
	}

	nTrackers := 2 + r.Intn(6)
	for i := 0; i < nTrackers; i++ {
		add(&webpage.Object{
			Kind:        webpage.KindTracker,
			Host:        TrackerHost((network + i) % AdNetworkCount),
			Path:        fmt.Sprintf("/pixel/%d.gif", i),
			Bytes:       43,
			Think:       time.Duration(20+r.Intn(60)) * time.Millisecond,
			Parent:      loaderID,
			Injected:    true,
			InjectDelay: time.Duration(r.Intn(100)) * time.Millisecond,
			Deferred:    r.Float64() < 0.5,
			Aux:         true,
		})
	}

	// Late ad refresh: arrives after onload on slow ad networks,
	// stretching LastVisualChange beyond what users wait for.
	if r.Float64() < 0.4 {
		add(&webpage.Object{
			Kind:        webpage.KindAd,
			Host:        AdHost((network + 7) % AdNetworkCount),
			Path:        fmt.Sprintf("/creative/refresh-%d.html", index),
			Bytes:       int64(rng.LogNormal(r, 50_000, 0.6)),
			Think:       time.Duration(150+r.Intn(300)) * time.Millisecond,
			Parent:      loaderID,
			Injected:    true,
			InjectDelay: time.Duration(400+r.Intn(1100)) * time.Millisecond,
			Deferred:    true,
			Rect:        layout.adSlot(),
			Salience:    0.3,
			Aux:         true,
		})
	}
}

// pickHost serves an object from the primary origin or the CDN; static
// assets concentrate on the CDN.
func pickHost(r *rand.Rand, host, cdn string) string {
	if r.Float64() < 0.78 {
		return cdn
	}
	return host
}

// layouter assigns non-degenerate tile rectangles. It fills the viewport
// column by column so above-the-fold geometry is plausible without a real
// layout engine.
type layouter struct {
	r       *rand.Rand
	nextRow int
	adSlots int
}

func newLayouter(r *rand.Rand) *layouter { return &layouter{r: r, nextRow: 4} }

// hero covers the prominent top-of-page region under the header.
func (l *layouter) hero() vision.Rect {
	return vision.Rect{X: 0, Y: 2, W: 30 + l.r.Intn(12), H: 8 + l.r.Intn(5)}
}

// contentImage places an image either in the viewport or below the fold;
// visual position is decoupled from document position on purpose (see the
// generator comment on late-discovered visible images). Above-fold images
// flow beneath the hero band — real layouts do not stack content on top
// of the hero, and overlapping it would let carousel rotations spuriously
// erase other content from the raster.
func (l *layouter) contentImage(aboveFold bool) vision.Rect {
	if aboveFold {
		return vision.Rect{
			X: l.r.Intn(vision.GridW - 16),
			Y: 15 + l.r.Intn(vision.GridH-15-4),
			W: 6 + l.r.Intn(10),
			H: 3 + l.r.Intn(4),
		}
	}
	return vision.Rect{
		X: l.r.Intn(vision.GridW - 16),
		Y: vision.GridH + l.r.Intn(vision.GridH*2),
		W: 6 + l.r.Intn(10),
		H: 4 + l.r.Intn(6),
	}
}

// adSlot cycles through the classic above-fold placements: leaderboard
// banner, sidebar skyscraper, in-content rectangle.
func (l *layouter) adSlot() vision.Rect {
	slot := l.adSlots
	l.adSlots++
	switch slot % 3 {
	case 0: // leaderboard across the top
		return vision.Rect{X: 10, Y: 0, W: 28, H: 3}
	case 1: // right-rail skyscraper
		return vision.Rect{X: vision.GridW - 7, Y: 5, W: 6, H: 16}
	default: // medium rectangle mid-content
		return vision.Rect{X: 2 + l.r.Intn(8), Y: 14, W: 11, H: 9}
	}
}

// belowFoldAd places a creative outside the captured viewport.
func (l *layouter) belowFoldAd() vision.Rect {
	return vision.Rect{X: l.r.Intn(20), Y: vision.GridH + 5 + l.r.Intn(20), W: 12, H: 8}
}
