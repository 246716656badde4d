package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/video"
)

// BanThreshold is how many distinct participants must flag a video before
// it is automatically banned.
const BanThreshold = 5

// TestsPerSession is the assignment size (6 videos + 1 control).
const TestsPerSession = 7

// defaultSnapshotEvery is the journal-records-per-snapshot cadence used
// when Options.SnapshotEvery is zero.
const defaultSnapshotEvery = 4096

// DefaultMaxBodyBytes is the JSON ingest body cap used when
// Options.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 1 << 20

// Options configures a Server's storage subsystem.
type Options struct {
	// DataDir enables persistence: every mutation is journaled there
	// and Open rebuilds state from the newest snapshot plus the journal
	// tail. Empty means in-memory only.
	DataDir string
	// Shards is the shard count of each index (campaigns, sessions,
	// videos), rounded up to a power of two; 0 selects
	// store.DefaultShards.
	Shards int
	// SegmentBytes is the WAL segment rotation threshold (0 = store
	// default).
	SegmentBytes int64
	// Fsync makes every mutation durable on disk before its HTTP
	// response: the journal's flush window carrying it is fdatasync'd,
	// one sync shared by every concurrent mutation in the window, and
	// the wait happens outside the shard locks. Without it a mutation
	// acks once its window is flushed to the OS.
	Fsync bool
	// GroupCommit is ignored.
	//
	// Deprecated: every journal append rides the store's group-commit
	// pipeline. The field remains only because the bench module sets
	// it.
	GroupCommit bool
	// SnapshotEvery is how many journal records separate automatic
	// snapshots (0 = default cadence, negative = never).
	SnapshotEvery int
	// MaxInFlight caps concurrently served API requests across all
	// endpoints; excess requests get 429 with a Retry-After header.
	// 0 = unlimited.
	MaxInFlight int
	// WorkerRate limits each participant's request rate on the
	// session-scoped endpoints (tests, events, responses) with a
	// per-session token bucket of WorkerRate tokens/sec and WorkerBurst
	// capacity (0 burst = 2×rate, minimum 1). Over-rate requests get
	// 429 + Retry-After. 0 = unlimited.
	WorkerRate  float64
	WorkerBurst int
	// MaxBodyBytes caps JSON ingest request bodies (campaign create,
	// join, events, responses, flags); oversize bodies get 413.
	// 0 = DefaultMaxBodyBytes. Video uploads keep their own 64 MiB cap.
	MaxBodyBytes int64
	// VideoCacheBytes is ignored.
	//
	// Deprecated: a DataDir server serves its video blob files from
	// read-only mappings, so the kernel's page cache is the only video
	// cache. The field remains only because the bench module sets it.
	VideoCacheBytes int64
	// TraceSample enables request tracing and sets the fraction of
	// requests (0..1) retained in the trace ring served by GET
	// /debug/traces (on DebugHandler, not the API handler). Every
	// request is stage-stamped while tracing is enabled; the rate
	// controls retention only.
	TraceSample float64
	// TraceSlow is the always-keep threshold: a request at least this
	// slow is retained in a dedicated slow ring regardless of the
	// sampling decision, and logged with its trace ID. 0 disables slow
	// capture; either TraceSample or TraceSlow being set enables
	// tracing.
	TraceSlow time.Duration
	// TraceSeed seeds the deterministic trace sampler, so a fixed seed
	// reproduces the same capture schedule (0 = clock-derived).
	TraceSeed uint64
	// Logger receives the platform's operational log records (slow
	// traces, and failures of the snapshots requests take at the
	// cadence). Nil uses slog.Default().
	Logger *slog.Logger
	// Adaptive enables sequential campaigns: per-video confidence
	// intervals drive assignment toward under-sampled videos and close
	// the campaign (new joins get 409) once every video resolves to
	// CIHalfWidth. Stopping state is a pure fold over the journal, so
	// crash+replay reproduces the same assignment decisions.
	Adaptive bool
	// CIHalfWidth is the target confidence-interval half-width each
	// video must reach before it resolves (seconds for timeline
	// campaigns, preference-score units for A/B). 0 selects
	// adaptive.DefaultHalfWidth; negative, NaN, or infinite is an error.
	CIHalfWidth float64
	// AdaptiveSeed seeds the deterministic bootstrap used for small-n
	// intervals, making allocation a function of (journal state, seed).
	AdaptiveSeed int64
}

// Server implements the Eyeorg HTTP API.
type Server struct {
	campaigns *store.Map[*campaignState]
	sessions  *store.Map[sessionEntry]
	videos    *store.Map[*videoState]
	// blobs holds every video payload, content-addressed; the videos
	// index stores only references into it. Blob writes are durable
	// before the journal record naming the hash, and blobs are excluded
	// from group-commit windows (immutable content needs no ordering).
	blobs *blob.Store

	nextID atomic.Int64
	joined atomic.Int64 // sessions ever created (persisted)
	// assign hands each join a unique round-robin offset. Drawn with
	// Add so concurrent joins never share an assignment; seeded from
	// joined at Open so coverage continues across restarts.
	assign atomic.Int64

	// metrics is the telemetry wiring and admission the backpressure
	// layer; both are configured once at Open and only read on the
	// request path. maxBatch is defaultMaxBatchRecords outside tests.
	metrics   *serverMetrics
	admission admission
	maxBody   int64
	maxBatch  int

	// tracer records stage-attributed request traces (nil when tracing
	// is disabled); observer is what the store reports durability
	// windows to, and holds the commit timings traces attribute their
	// durability waits from; logger carries operational records (slow
	// traces, snapshot failures).
	tracer   *trace.Tracer
	observer journalObserver
	logger   *slog.Logger

	// world is held shared by every mutation (mutate takes it) and
	// exclusively by Snapshot alone, which gives a snapshot a quiescent
	// point without funnelling the request path through one serial lock.
	world sync.RWMutex

	// adaptive enables the sequential stopper; adaptiveCfg is the
	// estimator/allocator configuration shared by every campaign. Both
	// are fixed at Open.
	adaptive    bool
	adaptiveCfg adaptive.Config

	log       *store.Log
	replaying bool
	snapEvery uint64
	snapping  atomic.Bool // a crossing request is taking the cadence's snapshot
}

type campaignState struct {
	ID     string
	Name   string
	Kind   string // "timeline" | "ab"
	Videos []string

	// recordSessions lists completed sessions in completion order — the
	// order a snapshot load re-folds them into analytics.
	// cache is the rendered /results body and cacheTag its ETag, both
	// nil/empty when stale. All guarded by the campaign's shard lock.
	recordSessions []string
	cache          []byte
	cacheTag       string

	// The completed sessions as /analytics lists them: each one's
	// ParticipantVerdict and a comma, rendered once by fileCompleted,
	// back to back in completion order (row i, ending at rowEnds[i], is
	// recordSessions[i]'s; 32-bit offsets hold some 40 million). rowOrder
	// lists row numbers ascending by session ID, the payload's order;
	// rowDigest sums the rows' checksums, so the /analytics ETag does not
	// depend on the order they arrived in. inflight lists the sessions
	// not yet completed, in no order that reaches a reply. Rebuilt on load,
	// never serialized.
	rows              []byte
	rowEnds, rowOrder []uint32
	rowDigest         uint64
	inflight          []string

	// arena holds the completed sessions themselves, all that is left of
	// them: one frozen record each (frozen.go), back to back under the
	// rows' numbering — record i ends at arenaEnds[i] and is
	// recordSessions[i]'s. The sessions index points here; state documents
	// carry both slices as they are. Guarded by the campaign's shard lock.
	arena     []byte
	arenaEnds []uint32

	// analytics is the incremental §4.3 aggregate folded in as sessions
	// complete — what /results and the /analytics summary and bands
	// render from. Guarded by the campaign's shard lock.
	analytics *quality.Campaign
	// done is the scratch fileCompleted folds and renders a completing
	// session from. Guarded by the campaign's shard lock.
	done completion
	// adaptive is the sequential stopper/allocator (nil unless the
	// server runs with Options.Adaptive). Its state is a pure fold over
	// the journaled events, so it is never snapshotted: restore rebuilds
	// it from the campaign's section. Guarded by the campaign's shard
	// lock.
	adaptive *adaptive.Campaign
}

// segment returns piece i of buf, where ends[i] is the offset piece i
// ends at and pieces sit back to back: a frozen record of the arena, a
// rendered row of rows. Caller holds the campaign's shard lock, at least
// shared, for as long as it reads the bytes.
func segment(buf []byte, ends []uint32, i uint32) []byte {
	start := uint32(0)
	if i > 0 {
		start = ends[i-1]
	}
	return buf[start:ends[i]]
}

// invalidate drops the rendered /results body and its ETag. Caller
// holds the campaign's shard lock; every mutation that changes what
// /results would say (video add, session completion, ban) goes through
// here so conditional GETs can trust the tag.
func (c *campaignState) invalidate() {
	c.cache = nil
	c.cacheTag = ""
}

type videoState struct {
	ID       string
	campaign *campaignState
	videoHead
	Flags  map[string]bool
	Banned bool
}

// videoHead is what GET /videos/{id} serves of a video besides its bytes:
// the content address of the EYV1 payload in the blob store, the strong
// content-hash validator, and the validator and the size as reply header
// values. All of it is rendered once at creation and never written to, so
// the read path builds no strings and a copy may outlive the shard lock.
type videoHead struct {
	Hash                   string
	Size                   int64
	etag                   string
	etagValue, lengthValue []string
}

// newVideoState builds campaign c's video index entry around its content
// address.
func newVideoState(id string, c *campaignState, hash string, size int64) *videoState {
	etag := `"` + hash + `"`
	return &videoState{
		ID: id, campaign: c,
		videoHead: videoHead{
			Hash: hash, Size: size, etag: etag,
			etagValue:   []string{etag},
			lengthValue: []string{strconv.FormatInt(size, 10)},
		},
		Flags: map[string]bool{},
	}
}

// sessionEntry is what the sessions index holds per session ID, inline in
// the map: a session in flight is its state; a completed one is the
// campaign and row its frozen record was filed at, and nothing else of
// it stays on the heap. One lookup tells in flight, completed (live is
// nil) and unknown apart. Guarded by the session's shard lock.
type sessionEntry struct {
	live *sessionState
	done *campaignState
	row  uint32
}

// sessionState is one participant session in flight, guarded by its
// shard lock; completion encodes it into its campaign's arena and lets
// it go (see completeSession). Its tracker and the answers' storage are
// its own fields, so the state is one object beside its tracker's entries
// and its strings. A completed session takes this form again only in
// passing, decoded from its record (decodeFrozen) to answer a late
// request or to be folded on load: final, the standing frozen when the
// session completed, is set then and the tracker is empty.
type sessionState struct {
	ID         string
	campaign   *campaignState
	Worker     Worker
	Assignment []AssignedTest
	// answers holds one entry per answered test, in answer order. It is
	// what duplicate detection scans and what completion folds into the
	// campaign's analytics. A live assignment's answers fit in answerBuf.
	answers   []answer
	answerBuf [TestsPerSession]answer
	// track follows the session against the per-participant §4.3 rules
	// and holds its latest engagement trace per video.
	track quality.Tracker
	// final is the completed session's standing: the traces that produced
	// it are gone, so it cannot be derived again.
	final quality.Snapshot
}

// newSessionState starts the state of session id, in flight on campaign c
// with the given assignment: the tracker fed nothing, no answer stored.
func newSessionState(id string, c *campaignState, worker Worker, tests []AssignedTest) *sessionState {
	sess := &sessionState{ID: id, campaign: c, Worker: worker, Assignment: tests}
	sess.answers = sess.answerBuf[:0]
	var buf [TestsPerSession]string
	sess.track = *quality.NewTracker(assignedVideos(buf[:0], tests))
	return sess
}

// completed reports whether the session answered its full assignment.
func (sess *sessionState) completed() bool { return sess.final.Completed }

// answer is one stored response, reduced to what the §4.3 fold reads.
// The answered video and its control bit come from Assignment[Test].
type answer struct {
	Test int `json:"test"`
	// Submitted is a timeline answer's final position on the video
	// clock; Choice is an A/B answer's side.
	Submitted time.Duration   `json:"submitted_ns,omitempty"`
	Choice    survey.ABChoice `json:"choice,omitempty"`
	// ControlFailed marks a control question answered wrong.
	ControlFailed bool `json:"control_failed,omitempty"`
}

// Worker identifies a participant joining a session.
type Worker struct {
	ID      string `json:"id"`
	Gender  string `json:"gender"`
	Country string `json:"country"`
	Source  string `json:"source"` // e.g. "crowdflower", "microworkers"
}

// AssignedTest is one item of a participant's assignment.
type AssignedTest struct {
	TestID  string `json:"test_id"`
	VideoID string `json:"video_id"`
	Kind    string `json:"kind"`
	Control bool   `json:"control"`
}

// NewServer returns an empty in-memory platform.
func NewServer() *Server {
	s, err := Open(Options{})
	if err != nil {
		// Unreachable: in-memory Open cannot fail.
		panic(err)
	}
	return s
}

// Open returns a platform backed by the configured storage. With a
// DataDir it recovers prior state from disk and journals every
// subsequent mutation; Close flushes the journal.
func Open(opts Options) (*Server, error) {
	if opts.CIHalfWidth < 0 || math.IsNaN(opts.CIHalfWidth) || math.IsInf(opts.CIHalfWidth, 0) {
		return nil, fmt.Errorf("platform: ci half-width must be a finite value >= 0, got %v", opts.CIHalfWidth)
	}
	s := &Server{
		campaigns: store.NewMap[*campaignState](opts.Shards),
		sessions:  store.NewMap[sessionEntry](opts.Shards),
		videos:    store.NewMap[*videoState](opts.Shards),
		maxBody:   opts.MaxBodyBytes,
		maxBatch:  defaultMaxBatchRecords,
		metrics:   newServerMetrics(),
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	s.admission.maxInflight = int64(opts.MaxInFlight)
	s.admission.held = s.sessionHeld
	if opts.WorkerRate > 0 {
		s.admission.rate = opts.WorkerRate
		s.admission.burst = float64(opts.WorkerBurst)
		if s.admission.burst <= 0 {
			s.admission.burst = math.Max(1, 2*opts.WorkerRate)
		}
	}
	s.logger = opts.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	if opts.Adaptive {
		s.adaptive = true
		s.adaptiveCfg = adaptive.Config{
			HalfWidth: opts.CIHalfWidth,
			Seed:      opts.AdaptiveSeed,
		}
	}
	s.observer.registerMetrics(s.metrics.reg)
	if opts.TraceSample > 0 || opts.TraceSlow > 0 {
		s.observer.commits = &commitRing{}
		s.tracer = trace.New(trace.Config{
			SampleRate: opts.TraceSample,
			Slow:       opts.TraceSlow,
			Seed:       opts.TraceSeed,
			OnFinish:   s.observeTrace,
		})
		// Stage histograms are registered only when tracing is on: a
		// tracing-off server's /metrics exposition (golden-pinned) is
		// unchanged and pays nothing.
		s.metrics.registerStageMetrics()
	}
	bopts := blob.Options{
		Fsync:   opts.Fsync,
		Metrics: newBlobSink(s.metrics.reg),
	}
	if opts.DataDir != "" {
		bopts.Dir = filepath.Join(opts.DataDir, "blobs")
	}
	var err error
	s.blobs, err = blob.Open(bopts)
	if err != nil {
		return nil, err
	}
	s.registerStateGauges()
	if opts.DataDir == "" {
		return s, nil
	}
	jl, err := store.Open(opts.DataDir, store.Options{
		SegmentBytes: opts.SegmentBytes,
		Fsync:        opts.Fsync,
		Observer:     &s.observer,
	})
	if err != nil {
		return nil, err
	}
	s.log = jl
	switch {
	case opts.SnapshotEvery > 0:
		s.snapEvery = uint64(opts.SnapshotEvery)
	case opts.SnapshotEvery == 0:
		s.snapEvery = defaultSnapshotEvery
	}
	s.replaying = true
	if _, data, ok := jl.Snapshot(); ok {
		if err := s.loadState(data); err != nil {
			jl.Close()
			return nil, fmt.Errorf("platform: loading snapshot: %w", err)
		}
	}
	err = jl.Replay(func(_ uint64, payload []byte) error {
		var ev event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return err
		}
		return s.applyEvent(&ev)
	})
	if err != nil {
		jl.Close()
		return nil, fmt.Errorf("platform: replaying journal: %w", err)
	}
	s.replaying = false
	s.assign.Store(s.joined.Load())
	return s, nil
}

// Close flushes and closes the journal, acking every record a request
// still waits for; in-memory servers are no-ops. The server must not
// serve requests afterwards: a mutation that arrives anyway fails with
// the journal's closed error, and a snapshot a request was taking waits
// for Close or fails and is logged.
func (s *Server) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Snapshot persists a full state snapshot and compacts the journal; it
// is a no-op for in-memory servers. Mutations are quiesced for the
// duration (reads proceed).
func (s *Server) Snapshot() error {
	if s.log == nil {
		return nil
	}
	s.world.Lock()
	defer s.world.Unlock()
	data, err := s.marshalState()
	if err != nil {
		return err
	}
	if err := s.log.WriteSnapshot(data); err != nil {
		return err
	}
	s.observer.snapshots.Inc()
	return nil
}

// Handler returns the API's http.Handler, which routes by the table in
// route.go. Every API route runs through instrument — admission control,
// then status and latency recording into the /metrics registry served
// alongside the API — with its {id} on the scratch. GET /metrics itself
// is served outside instrument, and a request no route serves is
// answered 301, 405 or 404 before it, counted nowhere.
//
// The trace surface is deliberately NOT mounted here: retained traces
// carry campaign and session IDs, so /debug/traces serves only from
// DebugHandler, which operators bind to a separate non-public listener
// (the server binary's -debug-addr).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, id := routeRequest(w, r)
		switch {
		case i < 0: // answered by routeRequest
		case routes[i].handle == nil:
			s.metrics.reg.Handler().ServeHTTP(w, r)
		default:
			s.instrument(i, w, r, id)
		}
	})
}

// --- request/response bodies ---

// CreateCampaignRequest creates a campaign. ID is optional: when set,
// the campaign is created under that ID instead of a server-minted one,
// so a client knows the ID before the create lands; it must look like a
// campaign ID ("c" + tag/digits) and not already exist.
type CreateCampaignRequest struct {
	ID   string `json:"id,omitempty"`
	Name string `json:"name"`
	Kind string `json:"kind"` // "timeline" | "ab"
}

// CreateCampaignResponse returns the new campaign ID.
type CreateCampaignResponse struct {
	ID string `json:"id"`
}

// AddVideoResponse returns the stored video's ID.
type AddVideoResponse struct {
	ID string `json:"id"`
}

// JoinRequest starts a session.
type JoinRequest struct {
	Campaign string `json:"campaign"`
	Worker   Worker `json:"worker"`
	// Captcha carries the "I'm not a robot" token (§3.3 humanness gate).
	Captcha string `json:"captcha"`
}

// JoinResponse returns the session ID and assignment.
type JoinResponse struct {
	Session string         `json:"session"`
	Tests   []AssignedTest `json:"tests"`
}

// EventBatch reports engagement instrumentation for one video.
type EventBatch struct {
	VideoID         string  `json:"video_id"`
	InstructionMs   float64 `json:"instruction_ms,omitempty"`
	LoadMs          float64 `json:"load_ms"`
	TimeOnVideoMs   float64 `json:"time_on_video_ms"`
	Plays           int     `json:"plays"`
	Pauses          int     `json:"pauses"`
	Seeks           int     `json:"seeks"`
	WatchedFraction float64 `json:"watched_fraction"`
	OutOfFocusMs    float64 `json:"out_of_focus_ms"`
}

// ResponseBody submits one answer.
type ResponseBody struct {
	TestID string `json:"test_id"`
	// Timeline fields (milliseconds on the video clock).
	SliderMs       float64 `json:"slider_ms,omitempty"`
	HelperMs       float64 `json:"helper_ms,omitempty"`
	SubmittedMs    float64 `json:"submitted_ms,omitempty"`
	AcceptedHelper bool    `json:"accepted_helper,omitempty"`
	KeptOriginal   bool    `json:"kept_original,omitempty"`
	// A/B field: "left" | "right" | "no difference".
	Choice string `json:"choice,omitempty"`
}

// ResultsResponse summarises a campaign after filtering.
type ResultsResponse struct {
	Campaign     string             `json:"campaign"`
	Participants int                `json:"participants"`
	Kept         int                `json:"kept"`
	Engagement   int                `json:"engagement_dropped"`
	Soft         int                `json:"soft_dropped"`
	Control      int                `json:"control_dropped"`
	PerVideo     map[string]VideoAg `json:"per_video"`
}

// VideoAg is per-video aggregated output.
type VideoAg struct {
	Responses int     `json:"responses"`
	MeanUPLT  float64 `json:"mean_uplt_s,omitempty"`
	Agreement float64 `json:"agreement,omitempty"`
	Banned    bool    `json:"banned,omitempty"`
}

// --- lookup failures, mapped to HTTP statuses ---

var (
	errNoCampaign    = errors.New("no such campaign")
	errNoSession     = errors.New("no such session")
	errNoVideo       = errors.New("no such video")
	errUnknownTest   = errors.New("unknown test")
	errDuplicateTest = errors.New("test already answered")
	errSessionDone   = errors.New("session already complete")
	errBadChoice     = errors.New("choice must be left, right or no difference")
	// errCampaignClosed refuses joins once the adaptive stopper resolved
	// every comparison — the same 409 shape a fully-banned video set gets.
	errCampaignClosed = errors.New("campaign closed: every comparison resolved")
	// errCampaignExists refuses a caller-supplied campaign ID that is
	// already present.
	errCampaignExists = errors.New("campaign already exists")
)

func statusFor(err error) int {
	switch {
	case errors.Is(err, errNoCampaign), errors.Is(err, errNoSession), errors.Is(err, errNoVideo):
		return http.StatusNotFound
	case errors.Is(err, errDuplicateTest), errors.Is(err, errSessionDone), errors.Is(err, errCampaignClosed),
		errors.Is(err, errCampaignExists):
		return http.StatusConflict
	case errors.Is(err, errUnknownTest), errors.Is(err, errBadChoice):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// --- helpers ---

// jsonBuf is a response-rendering buffer with the encoder that writes to
// it, recycled across requests through bufPool.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var bufPool = sync.Pool{New: func() any {
	buf := new(jsonBuf)
	buf.enc = json.NewEncoder(&buf.Buffer)
	return buf
}}

// bodyPool recycles /analytics bodies, which grow with the campaign and
// so stay out of bufPool; an idle pool is emptied by the collector.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeJSON renders v into a pooled buffer. The caller owns the buffer
// and must hand it back to bufPool once the bytes are written out.
func encodeJSON(v any) (*jsonBuf, error) {
	buf := bufPool.Get().(*jsonBuf)
	buf.Reset()
	if err := buf.enc.Encode(v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer bufPool.Put(buf)
	writeBody(w, status, buf.Bytes())
}

// Reply header values the request path sets by plain assignment, under
// the canonical key and without building a []string per reply. They are
// shared by every reply and never written to: net/http clones a header
// map's values before sending them, and each has no spare capacity, so an
// Add on top of one copies it.
var (
	jsonContentType   = []string{"application/json"}
	videoContentType  = []string{"application/octet-stream"}
	videoCacheControl = []string{"public, max-age=31536000, immutable"}
	videoAcceptRanges = []string{"bytes"}
	// smallLengths[n] is the Content-Length of an n-byte body: every
	// acknowledgement, error and assignment is shorter than this table.
	smallLengths = func() (t [1024][]string) {
		for n := range t {
			t[n] = []string{strconv.Itoa(n)}
		}
		return t
	}()
)

// contentLength returns the Content-Length header value of an n-byte body.
func contentLength(n int) []string {
	if n < len(smallLengths) {
		return smallLengths[n]
	}
	return []string{strconv.Itoa(n)}
}

// writeBody sends an already-rendered JSON body, framed by its length:
// net/http would chunk anything past its 2 KiB buffer otherwise.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = contentLength(len(body))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// The ingest acknowledgements, byte for byte what encoding/json renders
// for the maps they replace; ackComplete is indexed by "session done".
var (
	ackRecorded = []byte("{\"status\":\"recorded\"}\n")
	ackComplete = map[bool][]byte{
		false: []byte("{\"session_complete\":false}\n"),
		true:  []byte("{\"session_complete\":true}\n"),
	}
)

// appendBatchAck appends the acknowledgement of n records: the bytes
// encoding/json renders for {"records": n, "status": "recorded"}.
func appendBatchAck(dst []byte, n int) []byte {
	dst = strconv.AppendInt(append(dst, `{"records":`...), int64(n), 10)
	return append(dst, `,"status":"recorded"}`+"\n"...)
}

// A strong ETag is a digest of the response, built from CRC-64 checksums
// over etagTable, and its length.
var etagTable = crc64.MakeTable(crc64.ECMA)

// etagOf renders the tag, quoted: the checksum as 16 hex digits, a dash
// and the length in hex.
func etagOf(sum uint64, n int) string {
	b := append(make([]byte, 0, 40), '"')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	b = strconv.AppendInt(append(b, '-'), int64(n), 16)
	return string(append(b, '"'))
}

// etagMatches reports whether an If-None-Match header names tag. The
// header may carry a comma-separated list or "*"; weak validators
// compare by tag (RFC 9110's weak comparison — byte-identical cached
// bodies are what the tag certifies here).
func etagMatches(header, tag string) bool {
	if tag == "" {
		return false
	}
	for more := header != ""; more; {
		var cand string
		cand, header, more = strings.Cut(header, ",")
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand == "*" || cand == tag {
			return true
		}
	}
	return false
}

// writeConditional answers a GET whose validator is known: 304 without
// a body when If-None-Match names tag (body is not read then), the full
// JSON body otherwise. The ETag header rides on both.
func writeConditional(w http.ResponseWriter, r *http.Request, tag string, body []byte) {
	w.Header().Set("ETag", tag)
	if etagMatches(r.Header.Get("If-None-Match"), tag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// errTrailingJSON refuses a body that goes on after its JSON value: a
// second object would otherwise be dropped without a word.
var errTrailingJSON = errors.New("invalid JSON: data after the top-level value")

// decodeJSON is the reference decoding of every JSON request body:
// encoding/json with unknown fields refused, and nothing but whitespace
// allowed after the value.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return nil
	case err == nil, errors.As(err, &syntax):
		return errTrailingJSON
	}
	return err // the body cap, or the connection
}

// readJSON decodes a JSON request body under the configured ingest
// body cap. The cap goes through http.MaxBytesReader so an oversize
// body is a typed error (writeBodyErr answers it 413) and the connection
// is closed instead of draining the remainder. MaxBytesReader signals
// that close through a private type assertion on the writer, so it
// must see net/http's own ResponseWriter, not the scratch wrapping it.
func (s *Server) readJSON(sc *scratch, r *http.Request, v any) error {
	defer r.Body.Close()
	return decodeJSON(http.MaxBytesReader(sc.ResponseWriter, r.Body, s.maxBody), v)
}

// maxInPlaceBody is the longest body readIngest reads whole. The bodies
// it is for run to some 200 bytes; the bound is what a client can make
// the server hold by declaring a length and sending nothing.
const maxInPlaceBody = 16 << 10

// readIngest decodes one of the three bodies a participant sends (join,
// events, response) into v, which lives in the scratch. A body whose
// declared length is within the cap (and maxInPlaceBody) is read whole
// into the scratch's buffer and handed to inPlace, the body's decoder
// from inplace.go; if that declines, decodeJSON decodes the same bytes. A
// chunked body or one declared longer takes readJSON's path untouched,
// 413 and closed connection included. The input selects the path, and the
// outcome does not depend on it.
func (s *Server) readIngest(sc *scratch, r *http.Request, v any, inPlace func([]byte) bool) error {
	n := r.ContentLength
	if n < 0 || n > min(s.maxBody, maxInPlaceBody) {
		return s.readJSON(sc, r, v)
	}
	defer r.Body.Close()
	sc.buf = slices.Grow(sc.buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r.Body, sc.buf); err != nil {
		return err
	}
	if inPlace(sc.buf) {
		return nil
	}
	return decodeJSON(bytes.NewReader(sc.buf), v)
}

// assignmentOf returns session id's assignment while the session is in
// flight (it is immutable from the join on), nil otherwise: the strings
// the in-place decoders resolve a body's video and test IDs to, so that
// what the tracker keeps of a body is the session's own string.
func (s *Server) assignmentOf(id string) []AssignedTest {
	ssh := s.sessions.Shard(id)
	ssh.RLock()
	e, _ := ssh.Get(id)
	ssh.RUnlock()
	if e.live == nil {
		return nil
	}
	return e.live.Assignment
}

// sessionHeld reports whether the sessions index holds session id, in
// flight or completed.
func (s *Server) sessionHeld(id string) bool {
	_, ok := s.sessions.Get(id)
	return ok
}

// writeBodyErr answers a readJSON failure. An oversize body is
// backpressure, not a client syntax error: it goes through the
// admission reject path — counted under reason="body", answered 413
// with Retry-After like every other refusal. Anything else is a plain
// 400.
func (s *Server) writeBodyErr(w http.ResponseWriter, err error, msg string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.reject(w, http.StatusRequestEntityTooLarge, "body", msg, time.Second)
		return
	}
	writeErr(w, http.StatusBadRequest, msg)
}

func (s *Server) newID(prefix string) string {
	return string(strconv.AppendInt(append(make([]byte, 0, 32), prefix...), s.nextID.Add(1), 10))
}

// bumpID advances the ID counter to cover id, so replayed and
// snapshot-restored entities never collide with fresh allocations. A
// caller-supplied campaign ID whose tail is not a number does not move
// it.
func (s *Server) bumpID(id string) {
	if len(id) < 2 {
		return
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return
	}
	for {
		cur := s.nextID.Load()
		if cur >= n || s.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// validCampaignID accepts caller-supplied campaign IDs: "c" followed by
// 1..63 tag/counter characters. Anything outside that alphabet (or an
// empty/oversize suffix) is a 400, never a 5xx.
func validCampaignID(id string) bool {
	if len(id) < 2 || len(id) > 64 || id[0] != 'c' {
		return false
	}
	for i := 1; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

// mutate is the one commit tail of every journaled change. fn runs
// under the world lock held shared and returns the journal sequence its record was buffered at (0 when
// nothing was journaled). With every platform lock released, mutate
// waits for that record to be durable: one flush window shared with
// every concurrent mutation. fn fails only before it journals, so a
// sequence comes with no error, and it must be awaited: the journal
// flushes only for a waiter. The request whose record crossed the
// snapshot cadence then takes the snapshot before it answers.
//
// tr, when non-nil, receives the mutation's stage attribution: the
// apply span when fn returns, the durability wait split into
// flush/fsync/ack using the commit window the journal published for
// seq, and a snapshot this request took charged to apply again.
func (s *Server) mutate(tr *trace.Trace, fn func() (uint64, error)) error {
	s.world.RLock()
	seq, err := fn()
	s.world.RUnlock()
	tr.Mark(trace.StageApply)
	if seq == 0 {
		return err
	}
	err = s.log.WaitDurable(seq)
	if tr != nil { // tracing is on, so the commit ring exists
		w := s.observer.commits.lookup(seq)
		tr.MarkDurable(w.FsyncStart, w.FsyncEnd)
	}
	if err == nil && s.maybeSnapshot(seq) {
		tr.Mark(trace.StageApply)
	}
	return err
}

// maybeSnapshot takes the cadence's snapshot when the durable record at
// seq is at least snapEvery past the newest one, and reports whether it
// did. Of several requests crossing at once one takes it; the rest
// answer without waiting for it. A failed snapshot leaves the journal
// authoritative and the request, whose record is durable, succeeds,
// but the operator needs the signal: snapshots are what bound journal
// growth.
func (s *Server) maybeSnapshot(seq uint64) bool {
	if s.snapEvery == 0 || seq < s.log.SnapshotSeq()+s.snapEvery || !s.snapping.CompareAndSwap(false, true) {
		return false
	}
	defer s.snapping.Store(false)
	if err := s.Snapshot(); err != nil {
		s.logger.Error("snapshot failed", "err", err)
	}
	return true
}

// videoBanned reads a video's ban bit under its shard lock.
func (s *Server) videoBanned(id string) bool {
	vsh := s.videos.Shard(id)
	vsh.RLock()
	defer vsh.RUnlock()
	v, ok := vsh.Get(id)
	return ok && v.Banned
}

// --- handlers ---

func (s *Server) handleCreateCampaign(w *scratch, r *http.Request) {
	tr := w.tr
	tr.Mark(trace.StageReceive)
	var req CreateCampaignRequest
	if err := s.readJSON(w, r, &req); err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	tr.Mark(trace.StageDecode)
	if req.Name == "" || (req.Kind != "timeline" && req.Kind != "ab") {
		writeErr(w, http.StatusBadRequest, "campaign needs a name and kind timeline|ab")
		return
	}
	id := req.ID
	if id == "" {
		id = s.newID("c")
	} else if !validCampaignID(id) {
		writeErr(w, http.StatusBadRequest, "campaign id must match c[A-Za-z0-9.-]{1,63}")
		return
	}
	tr.SetCampaign(id)
	ev := &event{Op: opCampaign, ID: id, Name: req.Name, Kind: req.Kind, tr: tr}
	if err := s.mutate(tr, func() (uint64, error) { return s.applyCampaign(ev) }); err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, CreateCampaignResponse{ID: id})
}

// maxVideoBytes caps one uploaded video payload.
const maxVideoBytes = 64 << 20

func (s *Server) handleAddVideo(w *scratch, r *http.Request) {
	tr := w.tr
	campaignID := w.id
	tr.SetCampaign(campaignID)
	defer r.Body.Close()
	// The upload streams through the blob store's ingest — hashed and
	// (on the file tier) written out read by read, never held as one
	// handler-owned slice. One extra byte of read budget
	// distinguishes "exactly at the cap" from "over it".
	ref, _, err := s.blobs.Put(io.LimitReader(r.Body, maxVideoBytes+1))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The streamed upload is this route's receive+decode work in one.
	tr.Mark(trace.StageReceive)
	// Both failure paths below discard the blob. That is safe only
	// because they are content-deterministic: identical bytes trip the
	// same check, so a concurrent duplicate upload is discarding too,
	// never holding a reference to the removed blob.
	if ref.Size > maxVideoBytes {
		s.blobs.Discard(ref.Hash)
		s.reject(w, http.StatusRequestEntityTooLarge, "body",
			fmt.Sprintf("video exceeds the %d MiB upload cap", maxVideoBytes>>20), time.Second)
		return
	}
	// A video on the memory tier is read in place, no copy; on the file
	// tier the file is read into a transient buffer, never mapped.
	// Validate walks it without building a frame.
	data, err := s.blobs.ReadAll(ref.Hash)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := video.Validate(data); err != nil {
		s.blobs.Discard(ref.Hash)
		writeErr(w, http.StatusUnprocessableEntity, "not a valid EYV1 video")
		return
	}
	tr.Mark(trace.StageDecode)
	id := s.newID("v")
	ev := &event{Op: opVideo, ID: id, Campaign: campaignID, Hash: ref.Hash, Size: ref.Size, tr: tr}
	if err := s.mutate(tr, func() (uint64, error) { return s.applyVideo(ev) }); err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	// Campaign seeding maps the blob file: the first participant to fetch
	// this video is served from the mapping like every later one. Only
	// now, once the video is registered — a rejected upload is discarded
	// above and must never have been mapped.
	s.blobs.Prewarm(ref.Hash)
	writeJSON(w, http.StatusCreated, AddVideoResponse{ID: id})
}

func (s *Server) handleJoin(w *scratch, r *http.Request) {
	tr := w.tr
	tr.Mark(trace.StageReceive)
	req := &w.join
	if err := s.readIngest(w, r, req, func(b []byte) bool { return decodeJoinRequest(b, req, s.campaignID) }); err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	tr.Mark(trace.StageDecode)
	tr.SetCampaign(req.Campaign)
	// Humanness gate: the paper uses Google's "I'm not a robot"; the
	// simulation accepts any non-empty token.
	if strings.TrimSpace(req.Captcha) == "" {
		writeErr(w, http.StatusForbidden, "captcha required")
		return
	}
	if req.Worker.ID == "" {
		writeErr(w, http.StatusBadRequest, "worker id required")
		return
	}
	csh := s.campaigns.Shard(req.Campaign)
	csh.RLock()
	c, ok := csh.Get(req.Campaign)
	var kind string
	var closed bool
	pool := w.pool[:0]
	if ok {
		kind = c.Kind
		// Video shards follow campaign shards in the lock order, so
		// the live (unbanned) set and the allocator's pool are computed
		// under one campaign lock: the pool is a pure function of the
		// journaled state this lock guards.
		for _, vid := range c.Videos {
			if !s.videoBanned(vid) {
				pool = append(pool, vid)
			}
		}
		w.pool = pool
		if c.adaptive != nil {
			closed = c.adaptive.Closed()
			if !closed && len(pool) > 0 {
				pool = c.adaptive.Assign(pool)
			}
		}
	}
	csh.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, errNoCampaign.Error())
		return
	}
	if closed {
		writeErr(w, http.StatusConflict, errCampaignClosed.Error())
		return
	}
	if len(pool) == 0 {
		writeErr(w, http.StatusConflict, "campaign has no usable videos")
		return
	}
	// 6 regular tests plus 1 control. Fixed campaigns round-robin over
	// the live videos via the offset counter; adaptive campaigns cycle
	// the allocator's most-needed-first pool instead, so the assignment
	// is a deterministic function of the journaled campaign state (the
	// in-flight counts the allocator steers by advance on every join).
	// Either way the materialized assignment is what gets journaled, so
	// replay does not depend on how it was derived.
	offset := 0
	if !s.adaptive {
		offset = int(s.assign.Add(1) - 1)
	}
	sid := s.newID("s")
	// The seven test IDs are cut from one string: they live and die
	// together, with the session's state. The session ID is its own; the
	// campaign's lists keep it for good.
	tests := make([]AssignedTest, TestsPerSession)
	var ends [TestsPerSession]int
	ids := make([]byte, 0, 128)
	for k := range tests {
		t := &tests[k]
		t.Kind = kind
		ids = append(ids, sid...)
		if t.Control = k == TestsPerSession-1; t.Control {
			ids = append(ids, "-control"...)
			t.VideoID = pool[offset%len(pool)]
		} else {
			ids = strconv.AppendInt(append(ids, "-t"...), int64(k), 10)
			t.VideoID = pool[(offset*(TestsPerSession-1)+k)%len(pool)]
		}
		ends[k] = len(ids)
	}
	all, start := string(ids), 0
	for k, end := range ends {
		tests[k].TestID = all[start:end]
		start = end
	}
	tr.SetSession(sid)
	ev := &w.ev
	*ev = event{Op: opSession, ID: sid, Campaign: req.Campaign, Worker: &req.Worker, Tests: tests, tr: tr}
	if err := s.mutate(tr, func() (uint64, error) { return s.applySession(ev) }); err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	w.reply = JoinResponse{Session: sid, Tests: tests}
	writeJSON(w, http.StatusCreated, &w.reply)
}

// campaignID returns the campaign's own ID string for id when this server
// holds the campaign, and a copy of id otherwise: a join body names its
// campaign without a string of its own.
func (s *Server) campaignID(id []byte) string {
	if c, ok := s.campaigns.Get(string(id)); ok {
		return c.ID
	}
	return string(id)
}

func (s *Server) handleTests(w *scratch, r *http.Request) {
	id := w.id
	ssh := s.sessions.Shard(id)
	ssh.RLock()
	sess, err := s.sessionLocked(ssh, id)
	ssh.RUnlock()
	if err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	// Assignment is immutable after creation.
	w.reply = JoinResponse{Session: id, Tests: sess.Assignment}
	writeJSON(w, http.StatusOK, &w.reply)
}

// sessionLocked returns session id's state: the indexed one while it is
// in flight, one decoded from its frozen record once completed. It reads
// the record in place, under the campaign's shard lock taken inside the
// session's, the order applyResponse takes them in. Caller holds ssh.
func (s *Server) sessionLocked(ssh *store.Shard[sessionEntry], id string) (*sessionState, error) {
	e, ok := ssh.Get(id)
	if !ok {
		return nil, errNoSession
	}
	if e.live != nil {
		return e.live, nil
	}
	csh := s.campaigns.Shard(e.done.ID)
	csh.RLock()
	defer csh.RUnlock()
	return decodeFrozen(e.done, id, segment(e.done.arena, e.done.arenaEnds, e.row))
}

// videoRef resolves a video ID to what a GET serves of it, under the
// shard lock. Only the head and the ban bit cross the lock — no payload
// bytes are touched, let alone copied, while it is held — and the
// cache-hit GET path through here plus blobs.Serve is allocation-free
// (gated by a test).
func (s *Server) videoRef(id string) (v videoHead, banned, ok bool) {
	vsh := s.videos.Shard(id)
	vsh.RLock()
	if p, found := vsh.Get(id); found {
		v, banned, ok = p.videoHead, p.Banned, true
	}
	vsh.RUnlock()
	return v, banned, ok
}

func (s *Server) handleGetVideo(w *scratch, r *http.Request) {
	v, banned, ok := s.videoRef(w.id)
	if !ok {
		writeErr(w, http.StatusNotFound, errNoVideo.Error())
		return
	}
	if banned {
		writeErr(w, http.StatusGone, "video banned")
		return
	}
	// The payload is immutable and content-addressed, so the validator
	// is the strong content hash and clients may cache forever.
	h := w.Header()
	h["Etag"] = v.etagValue
	h["Cache-Control"] = videoCacheControl
	h["Accept-Ranges"] = videoAcceptRanges
	h["Content-Type"] = videoContentType
	if etagMatches(r.Header.Get("If-None-Match"), v.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// One blob lookup; a file-tier read counts once, as a mapped hit or a
	// miss that opened the file.
	b, rc, err := s.blobs.Serve(v.Hash)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if rc == nil {
		if r.Header.Get("Range") == "" {
			// Full-body fast path: resident bytes (memory tier, or a mapped
			// file-tier blob) go straight out, no seeker.
			h["Content-Length"] = v.lengthValue
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(b)
			return
		}
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(b))
		return
	}
	defer rc.Close()
	// ServeContent answers Range/206/416 and If-Range; a file-tier blob
	// that could not be mapped arrives as the *os.File itself, so on a
	// real socket a full body is kernel-side sendfile.
	http.ServeContent(w, r, "", time.Time{}, rc)
}

func (s *Server) handleFlag(w *scratch, r *http.Request) {
	tr := w.tr
	tr.Mark(trace.StageReceive)
	var body struct {
		Worker string `json:"worker"`
	}
	if err := s.readJSON(w, r, &body); err != nil {
		s.writeBodyErr(w, err, "worker required")
		return
	}
	tr.Mark(trace.StageDecode)
	if body.Worker == "" {
		writeErr(w, http.StatusBadRequest, "worker required")
		return
	}
	ev := &event{Op: opFlag, ID: w.id, Flagger: body.Worker, tr: tr}
	var flags int
	var banned bool
	err := s.mutate(tr, func() (uint64, error) {
		seq, f, b, err := s.applyFlag(ev)
		flags, banned = f, b
		return seq, err
	})
	if err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flags": flags, "banned": banned})
}

func (s *Server) handleEvents(w *scratch, r *http.Request) {
	// Content-type negotiation: an EYB1 binary batch takes the pooled
	// zero-alloc decode path; everything else is the JSON surface.
	if isWireBatch(r) {
		s.handleEventsBinary(w, r)
		return
	}
	tr := w.tr
	tr.Mark(trace.StageReceive)
	id := w.id
	tr.SetSession(id)
	batch, known := &w.batch, s.assignmentOf(id)
	if err := s.readIngest(w, r, batch, func(b []byte) bool { return decodeEventBatch(b, batch, known) }); err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	// Checked before anything is journaled, so a journal never holds a
	// duration the machine replaying it converts its own way.
	if field := batch.badDuration(); field != "" {
		writeBadDuration(w, field)
		return
	}
	tr.Mark(trace.StageDecode)
	ev := &w.ev
	*ev = event{Op: opEvents, ID: id, Batch: batch, tr: tr}
	if err := s.mutate(tr, func() (uint64, error) { return s.applyEvents(ev) }); err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	writeBody(w, http.StatusAccepted, ackRecorded)
}

func (s *Server) handleResponse(w *scratch, r *http.Request) {
	tr := w.tr
	tr.Mark(trace.StageReceive)
	id := w.id
	tr.SetSession(id)
	body, known := &w.resp, s.assignmentOf(id)
	if err := s.readIngest(w, r, body, func(b []byte) bool { return decodeResponseBody(b, body, known) }); err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	if !durationFits(body.SubmittedMs) {
		writeBadDuration(w, "submitted_ms")
		return
	}
	tr.Mark(trace.StageDecode)
	ev := &w.ev
	*ev = event{Op: opResponse, ID: id, Body: body, tr: tr}
	var done bool
	err := s.mutate(tr, func() (uint64, error) {
		seq, d, err := s.applyResponse(ev)
		done = d
		return seq, err
	})
	if err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	writeBody(w, http.StatusAccepted, ackComplete[done])
}

func (s *Server) handleResults(w *scratch, r *http.Request) {
	id := w.id
	csh := s.campaigns.Shard(id)
	csh.RLock()
	c, ok := csh.Get(id)
	var body []byte
	var tag string
	if ok {
		body, tag = c.cache, c.cacheTag
	}
	csh.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, errNoCampaign.Error())
		return
	}
	if body == nil {
		csh.Lock()
		if c, ok = csh.Get(id); !ok {
			csh.Unlock()
			writeErr(w, http.StatusNotFound, errNoCampaign.Error())
			return
		}
		if c.cache == nil {
			rendered, err := s.renderResults(c)
			if err != nil {
				csh.Unlock()
				writeErr(w, http.StatusInternalServerError, err.Error())
				return
			}
			c.cache = rendered
			c.cacheTag = etagOf(crc64.Checksum(rendered, etagTable), len(rendered))
		}
		body, tag = c.cache, c.cacheTag
		csh.Unlock()
	}
	// The tag is minted from the cached bytes and dropped with them by
	// every invalidation hook, so a match certifies the client's copy
	// is the current render.
	writeConditional(w, r, tag, body)
}

// renderResults marshals the campaign's §4.3 aggregates exactly as
// writeJSON would. Caller holds the campaign's shard lock, which the
// video shards it reads follow in the lock order.
func (s *Server) renderResults(c *campaignState) ([]byte, error) {
	sum := c.analytics.Summary()
	res := ResultsResponse{
		Campaign:     c.ID,
		Participants: sum.Total,
		Kept:         sum.Kept,
		Engagement:   sum.Engagement(),
		Soft:         sum.Soft,
		Control:      sum.Control,
		PerVideo:     map[string]VideoAg{},
	}
	switch c.Kind {
	case "timeline":
		for id, band := range c.analytics.TimelineBands(filtering.WisdomLo, filtering.WisdomHi) {
			res.PerVideo[id] = VideoAg{
				Responses: band.InBand,
				MeanUPLT:  band.Mean,
				Banned:    s.videoBanned(id),
			}
		}
	case "ab":
		for id, votes := range c.analytics.Votes() {
			res.PerVideo[id] = VideoAg{
				Responses: votes.Total(),
				Agreement: votes.Agreement(),
				Banned:    s.videoBanned(id),
			}
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
