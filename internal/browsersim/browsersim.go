// Package browsersim is the page-load engine behind webpeg: it plays the
// role Chrome plays in the paper (§3.1), loading a webpage.Page over an
// httpsim client and emitting everything the capture pipeline needs — a
// paint-event timeline for the video, the onload instant, per-object
// timings, and a HAR.
//
// The engine reproduces the causal structure of a real load:
//
//   - the HTML body arrives progressively; a preload scanner discovers
//     statically referenced objects at their byte positions;
//   - head CSS and synchronous scripts hold back first paint;
//   - scripts execute after arrival and inject further objects (ads,
//     trackers) after mediation delays;
//   - the onload event fires when every non-deferred object in the
//     document has arrived — while deferred work (late ad refreshes,
//     beacons) keeps painting afterwards, which is exactly why OnLoad
//     misestimates what humans perceive (§1).
package browsersim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/eyeorg/eyeorg/internal/adblock"
	"github.com/eyeorg/eyeorg/internal/dnssim"
	"github.com/eyeorg/eyeorg/internal/har"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/simtime"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
)

// Options configures one page load.
type Options struct {
	// Protocol selects HTTP/1.1 or HTTP/2 (webpeg drives this through
	// Chrome's command-line flags in the paper).
	Protocol httpsim.Protocol
	// Push enables HTTP/2 server push for render-blocking head resources.
	Push bool
	// Blocker, when non-nil, suppresses matching requests and adds the
	// extension's evaluation overhead.
	Blocker *adblock.Blocker
	// RenderDelay is style/layout latency between readiness and pixels
	// (default 50ms).
	RenderDelay time.Duration
	// FrameQuantum aligns paints to the compositor's frame clock
	// (default 16ms ≈ 60Hz).
	FrameQuantum time.Duration
	// DisablePriorities is an ablation knob forwarded to httpsim.
	DisablePriorities bool
	// TLSRTTs overrides the TLS handshake cost in round trips (0 keeps
	// the default TLS 1.2 cost of 2; 1 models TLS 1.3 — a §6 extension
	// experiment).
	TLSRTTs int
}

func (o *Options) fillDefaults() {
	if o.Protocol == 0 {
		o.Protocol = httpsim.HTTP2
	}
	if o.RenderDelay == 0 {
		o.RenderDelay = 50 * time.Millisecond
	}
	if o.FrameQuantum == 0 {
		o.FrameQuantum = 16 * time.Millisecond
	}
}

// PaintEvent is one visual change on the viewport raster.
type PaintEvent struct {
	// T is the instant of the paint, relative to navigation start.
	T time.Duration
	// Rect is the area painted.
	Rect vision.Rect
	// Value is the raster value drawn.
	Value vision.Tile
	// ObjectID names the painting object ("" for the page skeleton).
	ObjectID string
	// Aux marks auxiliary content (ads, widgets).
	Aux bool
	// Salience is the perceptual weight of the painted content.
	Salience float64
}

// ObjectTiming records the lifecycle of one object during the load.
type ObjectTiming struct {
	Object     *webpage.Object
	Discovered time.Duration
	Done       time.Duration
	// Blocked marks objects suppressed by the ad blocker (never fetched).
	Blocked bool
	// Net is the transport-level timing (zero value when Blocked).
	Net httpsim.Timing

	reqTiming *httpsim.Request
}

// Result is the full account of one page load.
type Result struct {
	Page     *webpage.Page
	Protocol httpsim.Protocol
	Blocker  string

	// OnLoad is when the load event fired.
	OnLoad time.Duration
	// DOMContentLoaded approximates parser completion.
	DOMContentLoaded time.Duration
	// FirstPaint is when the skeleton rendered.
	FirstPaint time.Duration
	// End is when the last activity (including deferred work) finished.
	End time.Duration

	Paints   []PaintEvent
	Objects  []*ObjectTiming
	NetStats httpsim.Stats
	HAR      *har.Log
}

// FinalFrame renders the settled state of this load (blocked objects
// excluded), which differs from Page.FinalFrame when a blocker removed
// visible ads.
func (r *Result) FinalFrame() *vision.Frame {
	f := vision.NewFrame()
	for _, p := range r.Paints {
		f.Paint(p.Rect, p.Value)
	}
	return f
}

// Session is the capture environment: one machine, one network path, one
// ISP resolver. Loads on a session run sequentially with a fresh browser
// state each time (webpeg deletes Chrome's local state between loads) while
// the resolver cache persists, enabling the primer-load pattern.
type Session struct {
	sched    *simtime.Scheduler
	path     *netem.Path
	resolver *dnssim.Resolver
	thinkRng *rand.Rand
}

// ThinkJitterSigma is the log-normal sigma of per-request server response
// time variation. Real origins answer the same request differently every
// time; this is what makes webpeg's five trials differ and its median
// selection meaningful.
const ThinkJitterSigma = 0.25

// NewSession builds a capture environment on the given network profile.
// src seeds the session's random streams (network loss, DNS jitter, server
// think-time jitter).
func NewSession(profile netem.Profile, src *rng.Source) *Session {
	if src == nil {
		src = rng.New(1)
	}
	sched := simtime.NewScheduler()
	return &Session{
		sched:    sched,
		path:     netem.NewPath(sched, profile, src.Stream("loss")),
		resolver: dnssim.NewResolver(sched, profile.DNSLatency, src.Stream("dns")),
		thinkRng: src.Stream("think"),
	}
}

// jitterThink perturbs a server think time for one request.
func (s *Session) jitterThink(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rng.LogNormal(s.thinkRng, float64(d), ThinkJitterSigma))
}

// Load performs one complete page load and returns its Result. The load
// runs to quiescence, including deferred post-onload work.
func (s *Session) Load(page *webpage.Page, opts Options) (*Result, error) {
	if err := page.Validate(); err != nil {
		return nil, err
	}
	opts.fillDefaults()
	httpOpts := httpsim.DefaultOptions(opts.Protocol)
	httpOpts.EnablePush = opts.Push
	httpOpts.DisablePriorities = opts.DisablePriorities
	if opts.TLSRTTs > 0 {
		httpOpts.TCP.TLSRTTs = opts.TLSRTTs
	}
	client := httpsim.NewClient(s.sched, s.path, s.resolver, httpOpts)
	defer client.Close()

	ld := &loader{
		session: s,
		page:    page,
		opts:    opts,
		client:  client,
		start:   s.sched.Now(),
		result: &Result{
			Page:     page,
			Protocol: opts.Protocol,
		},
		timings: make(map[string]*ObjectTiming),
	}
	if opts.Blocker != nil {
		ld.result.Blocker = opts.Blocker.Name
	}
	ld.run()
	s.sched.Run()
	if ld.pending != 0 {
		return nil, fmt.Errorf("browsersim: load of %s stalled with %d objects pending", page.URL, ld.pending)
	}
	ld.finish()
	return ld.result, nil
}

// loader holds the in-flight state of one page load.
type loader struct {
	session *Session
	page    *webpage.Page
	opts    Options
	client  *httpsim.Client
	start   simtime.Time
	result  *Result
	timings map[string]*ObjectTiming

	htmlDelivered int64
	htmlDone      bool

	// pending counts non-deferred objects in the document that have not
	// finished loading; onload fires when it reaches zero after HTML
	// completes.
	pending     int
	onloadFired bool

	firstPaintDone  bool
	renderBlockOpen int // render-blocking resources not yet executed
	htmlFirstChunk  bool

	discovered    map[string]bool
	prePaintQueue []prePaint
}

// elapsed converts an absolute scheduler time to load-relative time.
func (ld *loader) elapsed(t simtime.Time) time.Duration {
	return time.Duration(t - ld.start)
}

func (ld *loader) now() time.Duration { return ld.elapsed(ld.session.sched.Now()) }

func (ld *loader) run() {
	ld.discovered = make(map[string]bool)
	// Count render-blocking resources up front; they are all statically
	// referenced in the document head.
	for _, o := range ld.page.Objects {
		if o.RenderBlocking && !ld.blocked(o) {
			ld.renderBlockOpen++
		}
	}
	ld.fetchHTML()
}

func (ld *loader) blocked(o *webpage.Object) bool {
	return ld.opts.Blocker.ShouldBlock(o)
}

// extensionDelay returns the blocker's per-request evaluation cost.
func (ld *loader) extensionDelay() time.Duration {
	if ld.opts.Blocker == nil {
		return 0
	}
	return ld.opts.Blocker.PerRequestCost
}

func (ld *loader) fetchHTML() {
	h := ld.page.HTML
	tm := &ObjectTiming{Object: h, Discovered: 0}
	ld.timings[h.ID] = tm
	ld.pending++ // the document itself
	req := &httpsim.Request{
		Host:            h.Host,
		Path:            h.Path,
		ReqHeaderBytes:  h.ReqHeaderBytes,
		RespHeaderBytes: h.RespHeaderBytes,
		Bytes:           h.Bytes,
		Think:           ld.session.jitterThink(h.Think),
		Weight:          h.Kind.DefaultWeight(),
		OnProgress: func(t simtime.Time, got, total int64) {
			body := got - h.RespHeaderBytes
			if body < 0 {
				body = 0
			}
			ld.htmlDelivered = body
			ld.scanHTML()
		},
		OnComplete: func(t simtime.Time) {
			tm.Done = ld.elapsed(t)
			ld.htmlDelivered = h.Bytes
			ld.htmlDone = true
			ld.result.DOMContentLoaded = ld.elapsed(t)
			ld.scanHTML()
			ld.objectFinished()
		},
	}
	ld.client.Fetch(req)
	tm.reqTiming = req
	// Server push of render-blocking resources rides along with the
	// document request.
	if ld.opts.Push && ld.opts.Protocol == httpsim.HTTP2 {
		for _, o := range ld.page.Objects {
			if o.RenderBlocking && !o.Injected {
				ld.discover(o, true)
			}
		}
	}
}

// scanHTML is the preload scanner: it discovers statically referenced
// objects whose byte position has been delivered.
func (ld *loader) scanHTML() {
	frac := 1.0
	if !ld.htmlDone && ld.page.HTML.Bytes > 0 {
		frac = float64(ld.htmlDelivered) / float64(ld.page.HTML.Bytes)
	}
	if !ld.htmlFirstChunk && (frac >= 0.2 || ld.htmlDone) {
		ld.htmlFirstChunk = true
		ld.maybeFirstPaint()
	}
	for _, o := range ld.page.Objects {
		if o.Injected || ld.discovered[o.ID] {
			continue
		}
		if o.DiscoverAt <= frac {
			ld.discover(o, false)
		}
	}
}

// discover starts (or suppresses) an object's fetch.
func (ld *loader) discover(o *webpage.Object, pushed bool) {
	if ld.discovered[o.ID] {
		return
	}
	ld.discovered[o.ID] = true
	now := ld.now()
	tm := &ObjectTiming{Object: o, Discovered: now}
	ld.timings[o.ID] = tm

	if ld.blocked(o) {
		tm.Blocked = true
		tm.Done = now
		// A blocked visible object never paints; a blocked script never
		// injects its children. Nothing more to do.
		return
	}
	if !o.Deferred {
		ld.pending++
	}
	delay := ld.extensionDelay()
	fetch := func() {
		req := &httpsim.Request{
			Host:            o.Host,
			Path:            o.Path,
			ReqHeaderBytes:  o.ReqHeaderBytes,
			RespHeaderBytes: o.RespHeaderBytes,
			Bytes:           o.Bytes,
			Think:           ld.session.jitterThink(o.Think),
			Weight:          requestWeight(o),
			Pushed:          pushed,
			OnComplete: func(t simtime.Time) {
				ld.objectArrived(o, tm, t)
			},
		}
		ld.client.Fetch(req)
		tm.reqTiming = req
	}
	if delay > 0 {
		ld.session.sched.After(delay, fetch)
	} else {
		fetch()
	}
}

// objectArrived handles an object's final byte: execution, painting,
// injection of children, and onload accounting.
func (ld *loader) objectArrived(o *webpage.Object, tm *ObjectTiming, t simtime.Time) {
	tm.Done = ld.elapsed(t)
	execEnd := t
	if o.ExecTime > 0 {
		execEnd = t + simtime.Time(o.ExecTime)
	}

	// Render-blocking accounting.
	if o.RenderBlocking {
		ld.session.sched.At(execEnd, func() {
			ld.renderBlockOpen--
			ld.maybeFirstPaint()
		})
	}

	// Visible content paints once the first render has happened.
	if o.Visible() {
		ld.schedulePaint(o, execEnd)
	}

	// A script holds the onload barrier until it finishes executing, and
	// inserts its children into the document (raising the barrier for each
	// non-deferred child) before releasing its own hold — so a load event
	// can never fire between a script finishing and its injected content
	// being accounted for.
	if o.Kind == webpage.KindJS {
		ld.session.sched.At(execEnd, func() {
			ld.injectChildren(o)
			if !o.Deferred {
				ld.objectFinished()
			}
		})
		return
	}

	if !o.Deferred {
		ld.objectFinished()
	}
}

func (ld *loader) injectChildren(parent *webpage.Object) {
	for _, child := range ld.page.Objects {
		if !child.Injected || child.Parent != parent.ID || ld.discovered[child.ID] {
			continue
		}
		child := child
		ld.discovered[child.ID] = true
		now := ld.now()
		tm := &ObjectTiming{Object: child, Discovered: now}
		ld.timings[child.ID] = tm
		if ld.blocked(child) {
			tm.Blocked = true
			tm.Done = now
			continue
		}
		if !child.Deferred {
			ld.pending++ // inserted into the document now
		}
		delay := child.InjectDelay + ld.extensionDelay()
		ld.session.sched.After(delay, func() {
			req := &httpsim.Request{
				Host:            child.Host,
				Path:            child.Path,
				ReqHeaderBytes:  child.ReqHeaderBytes,
				RespHeaderBytes: child.RespHeaderBytes,
				Bytes:           child.Bytes,
				Think:           ld.session.jitterThink(child.Think),
				Weight:          requestWeight(child),
				OnComplete: func(t simtime.Time) {
					ld.objectArrived(child, tm, t)
				},
			}
			ld.client.Fetch(req)
			tm.reqTiming = req
		})
	}
}

// maybeFirstPaint fires the skeleton paint when the first document chunk
// has arrived and no render-blocking resource remains outstanding.
func (ld *loader) maybeFirstPaint() {
	if ld.firstPaintDone || !ld.htmlFirstChunk || ld.renderBlockOpen > 0 {
		return
	}
	ld.firstPaintDone = true
	delay := ld.opts.RenderDelay
	if ld.opts.Blocker != nil {
		delay += ld.opts.Blocker.PageCost // cosmetic filtering runs at first style pass
	}
	ld.session.sched.After(delay, func() {
		t := ld.quantize(ld.now())
		ld.result.FirstPaint = t
		ld.result.Paints = append(ld.result.Paints, PaintEvent{
			T:        t,
			Rect:     ld.page.BackgroundRect,
			Value:    webpage.BackgroundTile,
			Salience: ld.page.BackgroundSalience,
		})
		// Visible objects that arrived before first paint appear now.
		ld.flushPrePaintQueue()
	})
}

// prePaint holds visible objects that completed before the first render.
type prePaint struct {
	o  *webpage.Object
	at simtime.Time
}

// schedulePaint paints a visible object at readyAt (quantized), or queues
// it until first paint has happened.
func (ld *loader) schedulePaint(o *webpage.Object, readyAt simtime.Time) {
	if !ld.firstPaintDone || ld.result.FirstPaint == 0 {
		ld.prePaintQueue = append(ld.prePaintQueue, prePaint{o: o, at: readyAt})
		return
	}
	ld.emitPaintAt(o, readyAt)
}

func (ld *loader) flushPrePaintQueue() {
	q := ld.prePaintQueue
	ld.prePaintQueue = nil
	for _, pp := range q {
		at := pp.at
		if ld.elapsed(at) < ld.result.FirstPaint {
			at = ld.start + simtime.Time(ld.result.FirstPaint)
		}
		ld.emitPaintAt(pp.o, at)
	}
}

func (ld *loader) emitPaintAt(o *webpage.Object, at simtime.Time) {
	idx := ld.objectIndex(o)
	base := webpage.TileValue(idx)
	ld.session.sched.At(at, func() {
		ld.result.Paints = append(ld.result.Paints, PaintEvent{
			T:        ld.quantize(ld.now()),
			Rect:     o.Rect,
			Value:    base,
			ObjectID: o.ID,
			Aux:      o.Aux,
			Salience: o.Salience,
		})
		// Visual churn: carousels and animated creatives repaint the same
		// rectangle in alternating states after first paint.
		for cycle := 1; cycle <= o.AnimateCount; cycle++ {
			value := base
			if cycle%2 == 1 {
				value = base + webpage.AnimTileOffset
			}
			v := value
			ld.session.sched.After(time.Duration(cycle)*o.AnimatePeriod, func() {
				ld.result.Paints = append(ld.result.Paints, PaintEvent{
					T:        ld.quantize(ld.now()),
					Rect:     o.Rect,
					Value:    v,
					ObjectID: o.ID,
					Aux:      o.Aux,
					Salience: 0, // churn, not new content
				})
			})
		}
	})
}

func (ld *loader) objectIndex(o *webpage.Object) int {
	for i, other := range ld.page.Objects {
		if other == o {
			return i
		}
	}
	panic("browsersim: paint for object not on page")
}

// requestWeight maps an object to its HTTP/2 priority the way Chrome
// does: only render-critical scripts ride in the high class; async and
// injected scripts fetch at image priority; and in-viewport images are
// boosted above below-the-fold ones once layout knows where they land.
func requestWeight(o *webpage.Object) int {
	if o.Kind == webpage.KindJS && !o.ParserBlocking && !o.RenderBlocking {
		return webpage.KindImage.DefaultWeight()
	}
	w := o.Kind.DefaultWeight()
	if (o.Kind == webpage.KindImage || o.Kind == webpage.KindMedia) && o.Visible() {
		if o.AboveFold() {
			w += 4
		} else {
			w -= 2
		}
	}
	return w
}

// quantize aligns an instant to the compositor frame clock.
func (ld *loader) quantize(d time.Duration) time.Duration {
	q := ld.opts.FrameQuantum
	if q <= 0 {
		return d
	}
	return (d + q - 1) / q * q
}

// objectFinished decrements the onload barrier.
func (ld *loader) objectFinished() {
	ld.pending--
	if ld.pending == 0 && ld.htmlDone && !ld.onloadFired {
		ld.onloadFired = true
		ld.result.OnLoad = ld.now()
	}
}

// finish assembles the HAR and orders the outputs once the scheduler is
// quiescent.
func (ld *loader) finish() {
	res := ld.result
	res.End = ld.now()
	res.NetStats = ld.client.Stats()

	// Paint events arrive in scheduler order but quantization can tie
	// them; sort stably by time.
	sortPaints(res.Paints)

	b := har.NewBuilder(ld.page.URL)
	b.SetOnLoad(res.OnLoad)
	b.SetContentLoad(res.DOMContentLoaded)
	if n := len(res.Paints); n > 0 {
		b.SetVisualMarks(res.Paints[0].T, res.Paints[n-1].T)
	}
	addEntry := func(tm *ObjectTiming) {
		if tm.Blocked || tm.reqTiming == nil {
			return
		}
		o := tm.Object
		nt := tm.reqTiming.Timing
		tm.Net = nt
		status := 200
		b.AddEntry(har.Entry{
			Started: har.Ms(ld.elapsed(nt.Start)),
			Request: har.Request{
				Method:      "GET",
				URL:         o.URL(),
				HTTPVersion: res.Protocol.String(),
				HeadersSize: o.ReqHeaderBytes,
				BodySize:    0,
			},
			Response: har.Response{
				Status:      status,
				HTTPVersion: res.Protocol.String(),
				HeadersSize: o.RespHeaderBytes,
				BodySize:    o.Bytes,
				ContentType: o.Kind.String(),
			},
			Timings: har.Timings{
				Blocked: har.Ms(time.Duration(nt.ConnReady - nt.DNSDone)),
				DNS:     har.Ms(time.Duration(nt.DNSDone - nt.Start)),
				Connect: -1,
				Send:    0,
				Wait:    har.Ms(time.Duration(nt.FirstByte - nt.ConnReady)),
				Receive: har.Ms(time.Duration(nt.Done - nt.FirstByte)),
			},
			Pushed: nt.Pushed,
		})
	}
	// HTML first, then subresources in page order.
	if tm := ld.timings[ld.page.HTML.ID]; tm != nil {
		res.Objects = append(res.Objects, tm)
		addEntry(tm)
	}
	for _, o := range ld.page.Objects {
		if tm := ld.timings[o.ID]; tm != nil {
			res.Objects = append(res.Objects, tm)
			addEntry(tm)
		}
	}
	res.HAR = b.Log()
}

func sortPaints(ps []PaintEvent) {
	// Insertion sort: paint lists are short and nearly sorted.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].T < ps[j-1].T; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
