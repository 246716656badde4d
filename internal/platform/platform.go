package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"os"
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
	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/stats"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/video"
)

// TestsPerSession is the assignment size (6 videos + 1 control).
const TestsPerSession = state.TestsPerSession

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
	// Logger receives the platform's operational log records (slow
	// traces, and failures of the snapshots requests take at the
	// cadence). Nil uses slog.Default().
	Logger *slog.Logger
	// Adaptive enables sequential campaigns: per-video confidence
	// sequences drive assignment toward under-sampled videos and close
	// the campaign (new joins get 409) once every video resolves — a
	// timeline video to CIHalfWidth, an A/B video to a verdict. Stopping
	// state is a pure fold over the journal, so crash+replay reproduces
	// the same assignment decisions.
	Adaptive bool
	// CIHalfWidth is the half-width, in seconds, a timeline video's
	// confidence sequence must reach before it resolves; A/B campaigns
	// ignore it. 0 selects adaptive.DefaultHalfWidth; negative, NaN, or
	// infinite is an error.
	CIHalfWidth float64
}

// Server implements the Eyeorg HTTP API over the campaign state
// machine, internal/platform/state, which it asks every question and
// hands every change as an Event.
type Server struct {
	state *state.State
	// blobs holds every video payload, content-addressed; the state's
	// videos store only references into it. Blob writes are durable
	// before the journal record naming the hash, and blobs are excluded
	// from group-commit windows (immutable content needs no ordering).
	blobs *blob.Store

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

	log       *store.Log
	lock      *os.File // the data directory's flocked LOCK; nil, whose Close does nothing, without one
	snapEvery uint64
	snapping  atomic.Bool // a crossing request is taking the cadence's snapshot
	// counts is the walk of the state a /metrics render takes once, into
	// scraped, which the state gauges read; both only under the metrics
	// registry's lock (registerStateGauges). counts is the state's Counts,
	// a field so a test can count the walks.
	counts  func() state.Counts
	scraped state.Counts
}

// The JSON API types the state renders or journals, under the names this
// package has always exported them by.
type (
	Worker            = state.Worker
	AssignedTest      = state.AssignedTest
	EventBatch        = state.EventBatch
	ResponseBody      = state.ResponseBody
	ResultsResponse   = state.ResultsResponse
	AnalyticsResponse = state.AnalyticsResponse
)

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
		maxBody:  opts.MaxBodyBytes,
		maxBatch: defaultMaxBatchRecords,
		metrics:  newServerMetrics(),
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	s.admission.maxInflight = int64(opts.MaxInFlight)
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
	s.observer.registerMetrics(s.metrics.reg)
	if opts.TraceSample > 0 || opts.TraceSlow > 0 {
		s.observer.commits = &commitRing{}
		s.tracer = trace.New(trace.Config{
			SampleRate: opts.TraceSample,
			Slow:       opts.TraceSlow,
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
	var err error
	if opts.DataDir != "" {
		bopts.Dir = filepath.Join(opts.DataDir, "blobs")
		// Before anything reads the directory: blob.Open deletes temp
		// files, which are a live owner's uploads in flight, and store.Open
		// and Recover cut the journal's tail and the campaigns' files.
		if s.lock, err = lockDir(opts.DataDir); err != nil {
			return nil, err
		}
	}
	s.blobs, err = blob.Open(bopts)
	if err != nil {
		s.lock.Close()
		return nil, err
	}
	var stopper *adaptive.Config
	if opts.Adaptive {
		stopper = &adaptive.Config{HalfWidth: opts.CIHalfWidth}
	}
	s.state = state.New(s.blobs, stopper)
	s.admission.held = s.state.Held
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
		s.lock.Close()
		return nil, err
	}
	switch {
	case opts.SnapshotEvery > 0:
		s.snapEvery = uint64(opts.SnapshotEvery)
	case opts.SnapshotEvery == 0:
		s.snapEvery = defaultSnapshotEvery
	}
	if err := s.state.Recover(jl); err != nil {
		jl.Close()
		s.state.Close()
		s.lock.Close()
		return nil, fmt.Errorf("platform: %w", err)
	}
	s.log = jl
	return s, nil
}

// Close flushes and closes the journal, acking every record a request
// still waits for, closes the campaigns' files and gives up the data
// directory; in-memory servers are no-ops. The server must not
// serve requests afterwards: a mutation that arrives anyway fails with
// the journal's closed error, and a snapshot a request was taking waits
// for Close or fails and is logged.
func (s *Server) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	if serr := s.state.Close(); err == nil {
		err = serr
	}
	s.lock.Close()
	return err
}

// Snapshot persists a full state snapshot and compacts the journal; it
// is a no-op for in-memory servers. Mutations are quiesced for the
// duration (reads proceed).
func (s *Server) Snapshot() error {
	if s.log == nil {
		return nil
	}
	if err := s.state.Snapshot(s.log.WriteSnapshot); err != nil {
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

// statusFor maps a state failure to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, state.ErrNoCampaign), errors.Is(err, state.ErrNoSession), errors.Is(err, state.ErrNoVideo):
		return http.StatusNotFound
	case errors.Is(err, state.ErrDuplicateTest), errors.Is(err, state.ErrSessionDone), errors.Is(err, state.ErrCampaignClosed),
		errors.Is(err, state.ErrCampaignExists), errors.Is(err, state.ErrNoUsableVideos), errors.Is(err, state.ErrHeld):
		return http.StatusConflict
	case errors.Is(err, state.ErrUnknownTest), errors.Is(err, state.ErrBadChoice), errors.Is(err, state.ErrInvalidValue):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeStateErr answers a failed state call with its status, and counts
// a completed session's spilled bytes that failed their check.
func (s *Server) writeStateErr(w http.ResponseWriter, err error) {
	if errors.Is(err, state.ErrSpillCorrupt) {
		s.metrics.spillCorrupt.Inc()
	}
	writeErr(w, statusFor(err), err.Error())
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

// writeJSON renders v into a pooled buffer and sends it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*jsonBuf)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := buf.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
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

// mutate is the one commit tail of every journaled change. It hands ev
// to the state's Apply, which applies it through its op's row, as replay
// does, and counts it. With every state lock released, mutate waits for
// the record to be durable: one flush window shared with every concurrent
// mutation. The request whose record crossed the snapshot cadence then
// takes the snapshot before it answers.
//
// tr, when non-nil, receives the mutation's stage attribution: the apply
// span when Apply returns, the durability wait split into flush/fsync/ack
// using the commit window the journal published for the sequence, and a
// snapshot this request took charged to apply again.
func (s *Server) mutate(ev *state.Event, tr *trace.Trace) (state.Result, error) {
	seq, res, err := s.state.Apply(ev, tr)
	tr.Mark(trace.StageApply)
	if err != nil {
		return res, err
	}
	s.metrics.mutation[res.Op].Inc()
	if seq == 0 {
		return res, nil
	}
	err = s.log.WaitDurable(seq)
	if tr != nil { // tracing is on, so the commit ring exists
		w := s.observer.commits.lookup(seq)
		tr.MarkDurable(w.FsyncStart, w.FsyncEnd)
	}
	if err == nil && s.maybeSnapshot(seq) {
		tr.Mark(trace.StageApply)
	}
	return res, err
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
	id, err := s.state.NewCampaignID(req.ID, req.Name, req.Kind)
	if err != nil {
		s.writeStateErr(w, err)
		return
	}
	tr.SetCampaign(id)
	if _, err := s.mutate(&state.Event{Op: state.OpCampaign, ID: id, Name: req.Name, Kind: req.Kind}, tr); err != nil {
		s.writeStateErr(w, err)
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
	// Asked before the upload is stored, so a video for no campaign leaves
	// no blob behind. Campaigns are never deleted, so the answer holds
	// until the record applies.
	if _, ok := s.state.Campaign(campaignID); !ok {
		writeErr(w, http.StatusNotFound, state.ErrNoCampaign.Error())
		return
	}
	// The upload streams through the blob store's ingest once: each read
	// is hashed, written out (on the file tier) and checked against the
	// EYV1 container by a video.Checker, so the verdict is in when Put
	// returns and no part of the upload is read back or held as one
	// handler-owned slice. The read that shows the payload corrupt fails,
	// so Put stops there and stores nothing; the rest of the body is only
	// counted, so a body past the cap gets 413 whether or not it is a
	// video. One extra byte of read budget distinguishes "exactly at the
	// cap" from "over it".
	var check video.Checker
	body := &io.LimitedReader{R: r.Body, N: maxVideoBytes + 1}
	ref, _, err := s.blobs.Put(io.TeeReader(body, &check))
	stored := err == nil
	if errors.Is(err, video.ErrCorrupt) {
		_, err = io.Copy(io.Discard, body)
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The streamed upload is this route's receive+decode work in one.
	tr.Mark(trace.StageReceive)
	// Both failure paths below discard a stored blob. That is safe only
	// because they are content-deterministic: identical bytes trip the
	// same check, so a concurrent duplicate upload is discarding too,
	// never holding a reference to the removed blob.
	if body.N == 0 {
		if stored {
			s.blobs.Discard(ref.Hash)
		}
		s.reject(w, http.StatusRequestEntityTooLarge, "body",
			fmt.Sprintf("video exceeds the %d MiB upload cap", maxVideoBytes>>20), time.Second)
		return
	}
	if _, err := check.Verdict(); err != nil {
		if stored {
			s.blobs.Discard(ref.Hash)
		}
		writeErr(w, http.StatusUnprocessableEntity, "not a valid EYV1 video")
		return
	}
	tr.Mark(trace.StageDecode)
	id := s.state.NewID("v")
	ev := &state.Event{Op: state.OpVideo, ID: id, Campaign: campaignID, Hash: ref.Hash, Size: ref.Size}
	if _, err := s.mutate(ev, tr); err != nil {
		s.writeStateErr(w, err)
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
	if err := s.readIngest(w, r, req, func(b []byte) bool { return decodeJoinRequest(b, req, s.state.CampaignID) }); err != nil {
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
	sid, tests, err := s.state.Join(req.Campaign, req.Worker.ID)
	if err != nil {
		s.writeStateErr(w, err)
		return
	}
	tr.SetSession(sid)
	ev := &w.ev
	*ev = state.Event{Op: state.OpSession, ID: sid, Campaign: req.Campaign, Worker: &req.Worker, Tests: tests}
	if _, err := s.mutate(ev, tr); err != nil {
		s.writeStateErr(w, err)
		return
	}
	w.reply = JoinResponse{Session: sid, Tests: tests}
	writeJSON(w, http.StatusCreated, &w.reply)
}

func (s *Server) handleTests(w *scratch, r *http.Request) {
	sess, err := s.state.Session(w.id)
	if err != nil {
		s.writeStateErr(w, err)
		return
	}
	// Assignment is immutable after creation.
	w.reply = JoinResponse{Session: w.id, Tests: sess.Assignment}
	writeJSON(w, http.StatusOK, &w.reply)
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
	res, err := s.mutate(&state.Event{Op: state.OpFlag, ID: w.id, Flagger: body.Worker}, tr)
	if err != nil {
		s.writeStateErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flags": res.Flags, "banned": res.Banned})
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
	batch, known := &w.batch, s.state.Assignment(id)
	if err := s.readIngest(w, r, batch, func(b []byte) bool { return decodeEventBatch(b, batch, known) }); err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	tr.Mark(trace.StageDecode)
	ev := &w.ev
	*ev = state.Event{Op: state.OpEvents, ID: id, Batch: batch}
	if _, err := s.mutate(ev, tr); err != nil {
		s.writeStateErr(w, err)
		return
	}
	writeBody(w, http.StatusAccepted, ackRecorded)
}

func (s *Server) handleResponse(w *scratch, r *http.Request) {
	tr := w.tr
	tr.Mark(trace.StageReceive)
	id := w.id
	tr.SetSession(id)
	body, known := &w.resp, s.state.Assignment(id)
	if err := s.readIngest(w, r, body, func(b []byte) bool { return decodeResponseBody(b, body, known) }); err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	tr.Mark(trace.StageDecode)
	ev := &w.ev
	*ev = state.Event{Op: state.OpResponse, ID: id, Body: body}
	res, err := s.mutate(ev, tr)
	if err != nil {
		s.writeStateErr(w, err)
		return
	}
	writeBody(w, http.StatusAccepted, ackComplete[res.Done])
}

func (s *Server) handleResults(w *scratch, r *http.Request) {
	body, tag, err := s.state.Results(w.id)
	if err != nil {
		s.writeStateErr(w, err)
		return
	}
	writeConditional(w, r, tag, body)
}

// percentileParam parses an optional percentile query parameter from q,
// falling back to def when absent. Out-of-range or non-numeric values
// report ok=false: stats.Percentile panics past this boundary by
// design, so user input must be rejected here with a 400.
func percentileParam(q url.Values, name string, def float64) (float64, bool) {
	raw := q.Get(name)
	if raw == "" {
		return def, true
	}
	p, err := strconv.ParseFloat(raw, 64)
	if err != nil || !stats.ValidPercentile(p) {
		return 0, false
	}
	return p, true
}

func (s *Server) handleAnalytics(w *scratch, r *http.Request) {
	var q url.Values // a poll without a query parses none, and reads the defaults
	if r.URL.RawQuery != "" {
		q = r.URL.Query()
	}
	lo, okLo := percentileParam(q, "lo", filtering.WisdomLo)
	hi, okHi := percentileParam(q, "hi", filtering.WisdomHi)
	if !okLo || !okHi || lo > hi {
		writeErr(w, http.StatusBadRequest, "lo/hi must be percentiles in [0,100] with lo <= hi")
		return
	}
	// The body grows with the campaign, so it is rendered into a pooled
	// buffer, and not at all when the client's copy is current.
	pooled := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(pooled)
	inm := r.Header.Get("If-None-Match")
	fresh := func(tag state.ETag) bool { return etagMatches(inm, string(tag.Bytes())) }
	body, tag, err := s.state.Analytics((*pooled)[:0], w.id, lo, hi, fresh)
	if err != nil {
		s.writeStateErr(w, err)
		return
	}
	*pooled = body
	if fresh(tag) {
		w.Header()["Etag"] = []string{tag.String()}
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// One string holds the ETag and Content-Length values, and one array
	// both header slices: the reply keeps two objects.
	tb := tag.Bytes()
	vals := string(strconv.AppendInt(tb, int64(len(body)), 10))
	hv := []string{vals[:len(tb)], vals[len(tb):]}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Etag"], h["Content-Length"] = hv[:1:1], hv[1:]
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
