package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// class is the kind of a timed request; latencies are kept per class.
type class uint8

const (
	clJoin class = iota
	clTests
	clVideo
	clEvents
	clResponse
	clResultsMiss
	clResultsHit
	clAnalytics
	numClasses
)

var classNames = [numClasses]string{"join", "tests", "video", "events", "response", "results_miss", "results_hit", "analytics"}

// span is one traced interval: a session, or a request inside it.
// Times are nanoseconds since the run's epoch; parent indexes the same
// client's span list (-1 for none).
type span struct {
	name       string
	session    string
	start, end int64
	parent     int32
}

// client is one closed-loop participant (or experimenter): it owns one
// transport and issues one request at a time. Everything it needs in
// the timed loop is allocated up front.
type client struct {
	t      transport
	sc     *script
	binary bool   // flush a session's events as one EYB1 batch
	layer  string // span name prefix: which side of the handler the transport times

	req     request
	path    []byte
	body    []byte
	worker  []byte
	join    platform.JoinResponse
	encoder wire.Encoder
	records []wire.Record
	batch   []byte

	lat       [numClasses][]int64
	sessionNs []int64
	// background marks the participant who only keeps the server busy
	// beside the experimenter: its sessions count, their durations are
	// not samples.
	background bool
	attempted  int
	failed     int
	videoBytes int64
	sessions   int
	firstErr   error

	epoch   time.Time
	tracing bool   // record a span per request and per unit
	spans   []span // every span recorded so far
	parent  int32
	sessID  string
}

func newClient(t transport, sc *script, binary bool, layer string) *client {
	return &client{t: t, sc: sc, binary: binary, layer: layer, parent: -1}
}

// reserve sizes the latency buffers so a segment of n sessions (or
// viewing sessions) appends without growing them.
func (c *client) reserve(n int) {
	for cl := range c.lat {
		per := n
		switch class(cl) {
		case clVideo, clResponse, clEvents:
			per = n * platform.TestsPerSession
		}
		if cap(c.lat[cl]) < per {
			c.lat[cl] = make([]int64, 0, per)
		}
	}
	if cap(c.sessionNs) < n {
		c.sessionNs = make([]int64, 0, n)
	}
}

// reset forgets the previous segment's samples, keeping the buffers.
func (c *client) reset() {
	for cl := range c.lat {
		c.lat[cl] = c.lat[cl][:0]
	}
	c.sessionNs = c.sessionNs[:0]
	c.attempted, c.failed, c.videoBytes, c.sessions = 0, 0, 0, 0
}

func (c *client) fail(err error) error {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
	return err
}

// call times one request and checks its status. A transport error, a
// timeout or an unexpected status is a failed operation. With want 0 the
// caller judges the status.
func (c *client) call(cl class, want int) (*response, error) {
	c.attempted++
	start := time.Now()
	resp, err := c.t.do(&c.req)
	end := time.Now()
	c.lat[cl] = append(c.lat[cl], int64(end.Sub(start)))
	if c.tracing {
		c.spans = append(c.spans, span{
			name: c.layer + "." + classNames[cl], session: c.sessID,
			start: int64(start.Sub(c.epoch)), end: int64(end.Sub(c.epoch)), parent: c.parent,
		})
	}
	if err != nil {
		return nil, c.fail(fmt.Errorf("%s %s: %w", c.req.method, c.req.path, err))
	}
	if want != 0 && resp.status != want {
		return nil, c.fail(fmt.Errorf("%s %s: status %d, want %d: %.200s", c.req.method, c.req.path, resp.status, want, resp.body))
	}
	return resp, nil
}

func (c *client) get(cl class, want int) (*response, error) {
	c.req.method, c.req.contentType, c.req.body = "GET", "", nil
	return c.call(cl, want)
}

func (c *client) post(cl class, contentType string, body []byte, want int) (*response, error) {
	c.req.method, c.req.contentType, c.req.body = "POST", contentType, body
	c.req.ifNoneMatch, c.req.byteRange = "", ""
	return c.call(cl, want)
}

func (c *client) setPath(parts ...string) {
	c.path = c.path[:0]
	for _, p := range parts {
		c.path = append(c.path, p...)
	}
	c.req.path = c.path
}

var completeMark = []byte(`"session_complete":true`)

// unit times one unit of work (a session or a viewing session) as one
// sample and, when tracing, as the span its requests hang from.
func (c *client) unit(sessID string, steps func() error) error {
	start := time.Now()
	c.sessID, c.parent = sessID, -1
	at := -1
	if c.tracing {
		at = len(c.spans)
		c.spans = append(c.spans, span{name: c.layer + ".session", start: int64(start.Sub(c.epoch)), parent: -1})
		c.parent = int32(at)
	}
	err := steps()
	end := time.Now()
	if at >= 0 {
		// The session ID is only known once the join has answered.
		c.spans[at].end, c.spans[at].session = int64(end.Sub(c.epoch)), c.sessID
		c.parent = -1
	}
	if err != nil {
		return err
	}
	c.sessions++
	if !c.background {
		c.sessionNs = append(c.sessionNs, int64(end.Sub(start)))
	}
	return nil
}

// session drives participant number n through the whole lifecycle: join,
// fetch the assignment, then for each of the seven tests preload the
// video, report the interaction and answer. In binary mode the
// interactions travel as one EYB1 batch after the last video.
func (c *client) session(n int64) error {
	pi := int(n % int64(len(c.sc.personas)))
	return c.unit("", func() error { return c.sessionSteps(n, pi, &c.sc.personas[pi]) })
}

// cycle is the experimenter's unit of work: participant n's whole
// session, then the refresh of both views. Its duration, from the join
// to the analytics reply, takes the session's place among the samples:
// how long until a participant's answers are in front of the experimenter.
func (c *client) cycle(n int64, prevTag []byte) (tag []byte, participants int, err error) {
	start := time.Now()
	if err := c.session(n); err != nil {
		return nil, 0, err
	}
	last := len(c.sessionNs) - 1
	tag, participants, err = c.poll(prevTag)
	if err != nil {
		c.sessionNs = c.sessionNs[:last]
		return nil, 0, err
	}
	c.sessionNs[last] = int64(time.Since(start))
	return tag, participants, nil
}

func (c *client) sessionSteps(n int64, pi int, p *persona) error {
	sc := c.sc
	c.worker = strconv.AppendInt(append(c.worker[:0], 'w'), n, 10)
	c.body = append(append(append(c.body[:0], sc.joinHead...), c.worker...), sc.joinTail[pi]...)
	c.setPath("/api/v1/sessions")
	resp, err := c.post(clJoin, "application/json", c.body, http.StatusCreated)
	if err != nil {
		return err
	}
	c.join.Session, c.join.Tests = "", c.join.Tests[:0]
	if err := json.Unmarshal(resp.body, &c.join); err != nil || c.join.Session == "" || len(c.join.Tests) != platform.TestsPerSession {
		return c.fail(fmt.Errorf("join reply unusable (%v): %.200s", err, resp.body))
	}
	sid := c.join.Session
	c.sessID = sid

	c.setPath("/api/v1/sessions/", sid, "/tests")
	if _, err := c.get(clTests, http.StatusOK); err != nil {
		return err
	}
	if !c.binary {
		c.setPath("/api/v1/sessions/", sid, "/events")
		if _, err := c.post(clEvents, "application/json", p.instructionJSON, http.StatusAccepted); err != nil {
			return err
		}
	}
	c.records = append(c.records[:0], p.instructionRec)
	for ti := range c.join.Tests {
		t := &c.join.Tests[ti]
		vi, ok := sc.videoIdx[t.VideoID]
		if !ok {
			return c.fail(fmt.Errorf("session %s assigned unknown video %q", sid, t.VideoID))
		}
		if err := c.fetchVideo(vi, getFull); err != nil {
			return err
		}
		a := p.answerTo(vi, t.Control)
		if c.binary {
			c.records = append(c.records, a.record)
			continue
		}
		c.setPath("/api/v1/sessions/", sid, "/events")
		if _, err := c.post(clEvents, "application/json", a.eventsJSON, http.StatusAccepted); err != nil {
			return err
		}
		if err := c.answer(sid, t, a, ti == len(c.join.Tests)-1); err != nil {
			return err
		}
	}
	if !c.binary {
		return nil
	}
	c.batch = c.encoder.AppendBatch(c.batch[:0], c.records)
	c.setPath("/api/v1/sessions/", sid, "/events")
	if _, err := c.post(clEvents, wire.ContentType, c.batch, http.StatusAccepted); err != nil {
		return err
	}
	for ti := range c.join.Tests {
		t := &c.join.Tests[ti]
		a := p.answerTo(sc.videoIdx[t.VideoID], t.Control)
		if err := c.answer(sid, t, a, ti == len(c.join.Tests)-1); err != nil {
			return err
		}
	}
	return nil
}

// answer posts one response; the last of a session must complete it.
func (c *client) answer(sid string, t *platform.AssignedTest, a *answer, last bool) error {
	c.body = append(append(append(c.body[:0], replyHead...), t.TestID...), a.replyTail...)
	c.setPath("/api/v1/sessions/", sid, "/responses")
	resp, err := c.post(clResponse, "application/json", c.body, http.StatusAccepted)
	if err != nil {
		return err
	}
	if bytes.Contains(resp.body, completeMark) != last {
		return c.fail(fmt.Errorf("session %s test %s: completion flag wrong: %.100s", sid, t.TestID, resp.body))
	}
	return nil
}

// fetchVideo GETs one video the way kind says and checks the reply
// against the upload: the validator must be the upload's SHA-256 and
// the bytes (whole, or the requested suffix) must equal the upload's.
func (c *client) fetchVideo(vi int, kind getKind) error {
	v := &c.sc.videos[vi]
	c.setPath("/api/v1/videos/", v.id)
	c.req.ifNoneMatch, c.req.byteRange = "", ""
	want, expect := http.StatusOK, v.payload
	switch kind {
	case getConditional:
		c.req.ifNoneMatch = v.etag
		want, expect = http.StatusNotModified, nil
	case getRange:
		c.req.byteRange = c.sc.rangeSpec
		want = http.StatusPartialContent
		if len(expect) > rangeTail {
			expect = expect[len(expect)-rangeTail:]
		}
	}
	resp, err := c.get(clVideo, want)
	c.req.ifNoneMatch, c.req.byteRange = "", ""
	if err != nil {
		return err
	}
	if string(resp.etag) != v.etag {
		return c.fail(fmt.Errorf("video %s: ETag %s, want the upload's SHA-256 %s", v.id, resp.etag, v.etag))
	}
	if !bytes.Equal(resp.body, expect) {
		return c.fail(fmt.Errorf("video %s: body of %d bytes differs from the upload (%d bytes expected)", v.id, len(resp.body), len(expect)))
	}
	c.videoBytes += int64(len(resp.body))
	return nil
}

// viewing runs viewing session n of video-delivery: the seven videos one
// participant preloads, as the script's next seven GETs.
func (c *client) viewing(n int64) error {
	// A run may ask for more viewing sessions than the script holds (the
	// null run's warm-up does): wrap around.
	base := int(n%int64(len(c.sc.gets)/platform.TestsPerSession)) * platform.TestsPerSession
	return c.unit("view-"+strconv.FormatInt(n, 10), func() error {
		for _, op := range c.sc.gets[base : base+platform.TestsPerSession] {
			if err := c.fetchVideo(op.video, op.kind); err != nil {
				return err
			}
		}
		return nil
	})
}

// poll is the experimenter's refresh after a session completed: the
// summary must re-render (a new validator, since the completion
// invalidated the cached body), the revalidation that follows must be
// answered 304 with no body unless another completion got in between,
// and the analytics view must render. It returns the participant total
// the summary reported.
func (c *client) poll(prevTag []byte) (tag []byte, participants int, err error) {
	c.sessID = ""
	c.setPath("/api/v1/campaigns/", c.sc.campaign, "/results")
	c.req.ifNoneMatch, c.req.byteRange = "", ""
	resp, err := c.get(clResultsMiss, http.StatusOK)
	if err != nil {
		return nil, 0, err
	}
	if len(resp.etag) == 0 || bytes.Equal(resp.etag, prevTag) {
		return nil, 0, c.fail(fmt.Errorf("results after a completion kept validator %q", resp.etag))
	}
	var res struct {
		Participants int `json:"participants"`
	}
	if err := json.Unmarshal(resp.body, &res); err != nil {
		return nil, 0, c.fail(fmt.Errorf("results body: %w", err))
	}
	tag = append([]byte(nil), resp.etag...)

	c.req.ifNoneMatch = string(tag)
	resp, err = c.get(clResultsHit, 0)
	c.req.ifNoneMatch = ""
	switch {
	case err != nil:
		return nil, 0, err
	case resp.status == http.StatusNotModified && len(resp.body) == 0 && bytes.Equal(resp.etag, tag):
	case resp.status == http.StatusOK && len(resp.etag) > 0 && !bytes.Equal(resp.etag, tag):
		// Another participant completed between the two GETs: a full
		// reply under a new validator is the correct answer. It is
		// counted as the re-render it was.
		hits := c.lat[clResultsHit]
		c.lat[clResultsMiss] = append(c.lat[clResultsMiss], hits[len(hits)-1])
		c.lat[clResultsHit] = hits[:len(hits)-1]
		tag = append(tag[:0], resp.etag...)
	default:
		return nil, 0, c.fail(fmt.Errorf("conditional results: status %d, validator %q (sent %q), %d body bytes", resp.status, resp.etag, tag, len(resp.body)))
	}

	c.setPath("/api/v1/campaigns/", c.sc.campaign, "/analytics")
	if _, err := c.get(clAnalytics, http.StatusOK); err != nil {
		return nil, 0, err
	}
	return tag, res.Participants, nil
}

// segment is what one stretch of work measured, as the clock gave it.
type segment struct {
	wall      time.Duration
	cpu       time.Duration // the whole process's user+system time
	handler   time.Duration // spent inside the server's handler, all requests summed
	mallocs   uint64        // objects the whole process allocated
	sessions  int
	attempted int
	failed    int
	bytes     int64
	lat       [numClasses][]int64 // sorted
	all       []int64             // every request, sorted
	sessionNs []int64             // sorted
}

// runSegment starts one goroutine per client at the same instant, waits
// for all of them and gathers what they recorded. work is each client's
// loop; a client stops when its loop returns.
func runSegment(clients []*client, work func(i int, c *client)) *segment {
	for _, c := range clients {
		c.reset()
	}
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			<-gate
			work(i, c)
		}(i, c)
	}
	mallocs0 := mallocs()
	cpu0 := cpuTime()
	t0 := time.Now()
	close(gate)
	wg.Wait()
	seg := &segment{wall: time.Since(t0)}
	seg.cpu = cpuTime() - cpu0
	seg.mallocs = mallocs() - mallocs0
	for _, c := range clients {
		seg.sessions += c.sessions
		seg.attempted += c.attempted
		seg.failed += c.failed
		seg.bytes += c.videoBytes
		seg.sessionNs = append(seg.sessionNs, c.sessionNs...)
		for cl := range c.lat {
			seg.lat[cl] = append(seg.lat[cl], c.lat[cl]...)
		}
	}
	sortInt64(seg.sessionNs)
	for cl := range seg.lat {
		sortInt64(seg.lat[cl])
		seg.all = append(seg.all, seg.lat[cl]...)
	}
	sortInt64(seg.all)
	return seg
}

// sharedWork hands out the indexes base..base+n-1 to whichever client
// asks next, so both clients stay busy until the work runs out and end
// within one unit of each other.
type sharedWork struct {
	next  atomic.Int64
	limit int64
}

func newSharedWork(base, n int64) *sharedWork {
	w := &sharedWork{limit: base + n}
	w.next.Store(base)
	return w
}

func (w *sharedWork) take() (int64, bool) {
	n := w.next.Add(1) - 1
	return n, n < w.limit
}
