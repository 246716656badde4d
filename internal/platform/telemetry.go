// Operations: the /metrics telemetry wiring and the admission-control
// middleware.
//
// Every API handler is wrapped by instrument(), which layers (outer to
// inner): graceful-drain refusal of new sessions, the global in-flight
// cap, the per-worker token bucket on session-scoped endpoints, and
// status-class/latency recording into internal/telemetry instruments.
// The hot-path cost is a handful of atomic adds and two time.Now() calls (bench/ prices it per layer as
// telemetry.observe_ns).
//
// GET /metrics renders the registry in Prometheus text format:
// per-endpoint request counts, status classes and latency histograms
// (plus interpolated p50/p99 gauges), store durability internals
// (journal appends, group-commit window sizes, fsync latency, snapshot
// rotations) fed by the journal's commit observer, and live quality
// state (sessions in flight, §4.3 verdict tallies, banned videos)
// computed at scrape time from the sharded indexes.
package platform

import (
	"io"
	"math"
	"net/http"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/telemetry"
	"github.com/eyeorg/eyeorg/internal/trace"
)

// windowBuckets sizes the group-commit window histogram in records.
var windowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// endpointMetrics is one route's pre-registered instruments.
type endpointMetrics struct {
	codes [5]*telemetry.Counter // status class 1xx..5xx
	lat   *telemetry.Histogram
}

// serverMetrics bundles every instrument the platform records into.
type serverMetrics struct {
	reg *telemetry.Registry
	// endpoints holds each instrumented route's instruments under its row
	// of the route table, registered once, so a request indexes them
	// instead of taking the registry lock. GET /metrics's row stays empty.
	endpoints []endpointMetrics
	rejected  map[string]*telemetry.Counter // admission rejections by reason
	mutation  map[string]*telemetry.Counter // journaled mutations by op
	// stages holds the per-stage ingest latency histograms, populated by
	// registerStageMetrics only when tracing is enabled so a tracing-off
	// server's exposition is byte-identical to previous releases.
	stages [trace.NumStages]*telemetry.Histogram
}

// newServerMetrics builds the registry and pre-registers every
// instrument the request path touches.
func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg:       reg,
		endpoints: make([]endpointMetrics, len(routes)),
		rejected:  map[string]*telemetry.Counter{},
		mutation:  map[string]*telemetry.Counter{},
	}
	reg.Help("eyeorg_http_requests_total", "API requests by endpoint and status class.")
	reg.Help("eyeorg_http_request_seconds", "API request latency by endpoint.")
	reg.Help("eyeorg_http_request_p50_seconds", "Interpolated median request latency by endpoint.")
	reg.Help("eyeorg_http_request_p99_seconds", "Interpolated p99 request latency by endpoint.")
	for i := range routes {
		if routes[i].handle == nil {
			continue
		}
		name := routes[i].endpoint
		em := &m.endpoints[i]
		em.lat = reg.Histogram("eyeorg_http_request_seconds", `endpoint="`+name+`"`, nil)
		for c, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
			em.codes[c] = reg.Counter("eyeorg_http_requests_total",
				`endpoint="`+name+`",code="`+class+`"`)
		}
		lat := em.lat
		reg.GaugeFunc("eyeorg_http_request_p50_seconds", `endpoint="`+name+`"`,
			func() float64 { return lat.Quantile(0.50) })
		reg.GaugeFunc("eyeorg_http_request_p99_seconds", `endpoint="`+name+`"`,
			func() float64 { return lat.Quantile(0.99) })
	}
	reg.Help("eyeorg_admission_rejected_total", "Requests refused by admission control, by reason.")
	for _, reason := range []string{"inflight", "worker-rate", "body", "drain"} {
		m.rejected[reason] = reg.Counter("eyeorg_admission_rejected_total", `reason="`+reason+`"`)
	}
	reg.Help("eyeorg_mutations_total", "Journaled state mutations applied by this process, by op.")
	for _, op := range []string{opCampaign, opVideo, opSession, opEvents, opBatch, opResponse, opFlag} {
		m.mutation[op] = reg.Counter("eyeorg_mutations_total", `op="`+op+`"`)
	}
	return m
}

// registerStageMetrics adds the per-stage ingest latency histograms
// (fed by observeTrace from finished traces). Called only when tracing
// is enabled: without it the exposition carries no stage series at all,
// keeping the tracing-off /metrics golden stable.
func (m *serverMetrics) registerStageMetrics() {
	m.reg.Help("eyeorg_ingest_stage_seconds",
		"Time attributed to each ingest pipeline stage, from retained request traces.")
	for i := 0; i < trace.NumStages; i++ {
		m.stages[i] = m.reg.Histogram("eyeorg_ingest_stage_seconds",
			`stage="`+trace.Stage(i).String()+`"`, nil)
	}
}

// journalObserver is the one value the journal reports to
// (store.Options.Observer): every durability window arrives here once,
// before it is acked, and feeds the eyeorg_journal_* series and the
// commit-timing ring mutate attributes durability waits from.
type journalObserver struct {
	// The eyeorg_journal_* instruments. snapshots is bumped by
	// Server.Snapshot, not by windows.
	appends, bytes, snapshots *telemetry.Counter
	windows, fsync            *telemetry.Histogram
	commits                   *commitRing // nil with tracing off
}

func (o *journalObserver) registerMetrics(reg *telemetry.Registry) {
	reg.Help("eyeorg_journal_appends_total", "Records appended to the write-ahead journal.")
	reg.Help("eyeorg_journal_append_bytes_total", "Framed bytes appended to the write-ahead journal.")
	reg.Help("eyeorg_journal_window_records", "Records made durable per group-commit window.")
	reg.Help("eyeorg_journal_fsync_seconds", "Journal data-sync (fdatasync) latency.")
	reg.Help("eyeorg_journal_snapshots_total", "Snapshot rotations completed.")
	o.appends = reg.Counter("eyeorg_journal_appends_total", "")
	o.bytes = reg.Counter("eyeorg_journal_append_bytes_total", "")
	o.windows = reg.Histogram("eyeorg_journal_window_records", "", windowBuckets)
	o.fsync = reg.Histogram("eyeorg_journal_fsync_seconds", "", nil)
	o.snapshots = reg.Counter("eyeorg_journal_snapshots_total", "")
}

func (o *journalObserver) WindowDurable(w store.Window) {
	o.appends.Add(uint64(w.Records()))
	o.bytes.Add(uint64(w.Bytes))
	o.windows.ObserveSeconds(float64(w.Records()))
	if d := w.FsyncEnd.Sub(w.FsyncStart); d > 0 {
		o.fsync.Observe(d)
	}
	if o.commits != nil {
		o.commits.publish(w)
	}
}

// blobSink adapts the video blob store's telemetry hooks onto the
// registry, the same shape as journalObserver: the blob subsystem stays
// dependency-free and the platform owns the metric names.
type blobSink struct {
	puts     *telemetry.Counter
	putBytes *telemetry.Counter
	hits     *telemetry.Counter
	hitBytes *telemetry.Counter
	misses   *telemetry.Counter
}

func newBlobSink(reg *telemetry.Registry) *blobSink {
	reg.Help("eyeorg_blob_puts_total", "Video blobs stored (deduplicated uploads excluded).")
	reg.Help("eyeorg_blob_put_bytes_total", "Bytes of video blobs stored.")
	reg.Help("eyeorg_blobcache_hits_total", "Video file reads served from the blob's existing read-only mapping.")
	reg.Help("eyeorg_blobcache_hit_bytes_total", "Bytes of video file reads served from an existing mapping.")
	reg.Help("eyeorg_blobcache_misses_total", "Video file reads that opened the blob file, to map it or to serve from the file.")
	return &blobSink{
		puts:     reg.Counter("eyeorg_blob_puts_total", ""),
		putBytes: reg.Counter("eyeorg_blob_put_bytes_total", ""),
		hits:     reg.Counter("eyeorg_blobcache_hits_total", ""),
		hitBytes: reg.Counter("eyeorg_blobcache_hit_bytes_total", ""),
		misses:   reg.Counter("eyeorg_blobcache_misses_total", ""),
	}
}

func (b *blobSink) BlobPut(n int64) { b.puts.Inc(); b.putBytes.Add(uint64(n)) }
func (b *blobSink) MapHit(n int)    { b.hits.Inc(); b.hitBytes.Add(uint64(n)) }
func (b *blobSink) MapMiss()        { b.misses.Inc() }

// registerStateGauges exposes live platform state as scrape-time
// gauges. The callbacks walk the sharded indexes under per-shard read
// locks — a scrape serializes with nothing beyond the shard it is
// currently reading — and read each fact where the campaign keeps it.
func (s *Server) registerStateGauges() {
	reg := s.metrics.reg
	reg.Help("eyeorg_campaigns", "Campaigns stored.")
	reg.GaugeFunc("eyeorg_campaigns", "", func() float64 { return float64(s.campaigns.Len()) })
	reg.Help("eyeorg_videos", "Videos stored.")
	reg.GaugeFunc("eyeorg_videos", "", func() float64 { return float64(s.videos.Len()) })
	reg.Help("eyeorg_sessions", "Sessions ever joined.")
	reg.GaugeFunc("eyeorg_sessions", "", func() float64 { return float64(s.joined.Load()) })
	reg.Help("eyeorg_sessions_inflight", "Joined sessions not yet completed.")
	reg.GaugeFunc("eyeorg_sessions_inflight", "", func() float64 { return float64(s.SessionsInFlight()) })
	reg.Help("eyeorg_sessions_completed_bytes", "Bytes held for completed sessions: frozen records and /analytics rows, all campaigns.")
	reg.GaugeFunc("eyeorg_sessions_completed_bytes", "", func() float64 {
		return float64(s.sumCampaigns(func(c *campaignState) int { return len(c.arena) + len(c.rows) }))
	})
	reg.Help("eyeorg_http_inflight", "API requests currently being served.")
	reg.GaugeFunc("eyeorg_http_inflight", "", func() float64 {
		return float64(s.admission.inflight.Load())
	})
	reg.Help("eyeorg_draining", "1 while the server refuses new sessions ahead of shutdown.")
	reg.GaugeFunc("eyeorg_draining", "", func() float64 {
		if s.admission.draining.Load() {
			return 1
		}
		return 0
	})
	reg.Help("eyeorg_blob_bytes", "Bytes of content-addressed video blobs stored.")
	reg.GaugeFunc("eyeorg_blob_bytes", "", func() float64 { return float64(s.blobs.TotalBytes()) })
	reg.Help("eyeorg_blobs", "Content-addressed video blobs stored.")
	reg.GaugeFunc("eyeorg_blobs", "", func() float64 { return float64(s.blobs.Len()) })
	reg.Help("eyeorg_blobcache_mapped_blobs", "Video blob files served from a read-only mapping.")
	reg.GaugeFunc("eyeorg_blobcache_mapped_blobs", "", func() float64 {
		blobs, _ := s.blobs.Mapped()
		return float64(blobs)
	})
	reg.Help("eyeorg_blobcache_mapped_bytes", "Bytes of video blob files mapped: page cache the process shares, not heap.")
	reg.GaugeFunc("eyeorg_blobcache_mapped_bytes", "", func() float64 {
		_, bytes := s.blobs.Mapped()
		return float64(bytes)
	})
	// The Go runtime's own accounting, read at scrape time: what the
	// process holds, beside what the gauges above say it stores.
	reg.Help("eyeorg_go_heap_live_bytes", "Heap bytes the last GC cycle marked live.")
	reg.GaugeFunc("eyeorg_go_heap_live_bytes", "", runtimeValue("/gc/heap/live:bytes"))
	reg.Help("eyeorg_go_gc_cycles_total", "GC cycles completed since the process started.")
	reg.GaugeFunc("eyeorg_go_gc_cycles_total", "", runtimeValue("/gc/cycles/total:gc-cycles"))
	reg.Help("eyeorg_go_goroutines", "Live goroutines.")
	reg.GaugeFunc("eyeorg_go_goroutines", "", runtimeValue("/sched/goroutines:goroutines"))
	reg.Help("eyeorg_videos_banned", "Videos currently banned by participant flags.")
	reg.GaugeFunc("eyeorg_videos_banned", "", func() float64 {
		var n int
		s.videos.Range(func(_ string, v *videoState) bool {
			if v.Banned {
				n++
			}
			return true
		})
		return float64(n)
	})
	reg.Help("eyeorg_quality_verdicts", "Completed sessions by live §4.3 filter verdict, across campaigns.")
	// Each verdict's gauge sums its field of every campaign's summary: one
	// walk over the campaigns, not their sessions, per gauge.
	for verdict, count := range [...]func(filtering.Summary) int{
		filtering.Kept:                func(t filtering.Summary) int { return t.Kept },
		filtering.DropEngagementSeeks: func(t filtering.Summary) int { return t.EngagementSeeks },
		filtering.DropEngagementFocus: func(t filtering.Summary) int { return t.EngagementFocus },
		filtering.DropSoft:            func(t filtering.Summary) int { return t.Soft },
		filtering.DropControl:         func(t filtering.Summary) int { return t.Control },
	} {
		reg.GaugeFunc("eyeorg_quality_verdicts", `verdict="`+filtering.Reason(verdict).String()+`"`, func() float64 {
			return float64(s.sumCampaigns(func(c *campaignState) int { return count(c.analytics.Summary()) }))
		})
	}
}

// sumCampaigns adds f up over every campaign, each read under its shard's
// read lock.
func (s *Server) sumCampaigns(f func(c *campaignState) int) int {
	n := 0
	s.campaigns.Range(func(_ string, c *campaignState) bool {
		n += f(c)
		return true
	})
	return n
}

// runtimeValue reads one uint64 runtime/metrics sample at render time.
func runtimeValue(name string) func() float64 {
	return func() float64 {
		sample := [1]rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample[:])
		if sample[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return float64(sample[0].Value.Uint64())
	}
}

// countMutation records one live (non-replay) mutation of the given op.
func (s *Server) countMutation(op string) {
	if !s.replaying {
		s.metrics.mutation[op].Inc()
	}
}

// --- admission control ---

// admission is the backpressure layer in front of every handler: a
// global in-flight cap, a per-worker token bucket on session-scoped
// endpoints, and the drain latch. The zero value admits everything.
type admission struct {
	maxInflight int64   // 0 = unlimited
	rate        float64 // tokens/sec per worker; 0 = unlimited
	burst       float64
	inflight    atomic.Int64
	draining    atomic.Bool

	// buckets holds one token bucket per active session key, made only
	// for a key held reports the sessions index holds: an unknown ID is
	// passed on uncharged (the handler answers it 404), so made-up IDs
	// neither grow the map nor reset it. bucketN approximates the
	// population so a crowd of one-shot sessions cannot grow the map
	// without bound: past bucketCap the whole map resets, which at worst
	// briefly refills every active bucket.
	buckets sync.Map
	bucketN atomic.Int64
	held    func(key string) bool
}

const bucketCap = 1 << 16

type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// admit charges one token from key's bucket, reporting how long the
// caller should wait when the bucket is dry. A key the sessions index
// does not hold has no bucket and is admitted uncharged.
func (a *admission) admit(key string) (ok bool, retryAfter time.Duration) {
	return a.admitN(key, 1)
}

// admitN charges n tokens from key's bucket — the per-record accounting
// binary batches use, so a 500-record batch drains the worker's bucket
// like 500 single-event requests would. A batch larger than the burst
// capacity can never hold n tokens; it is admitted only against a FULL
// bucket and leaves it in debt (negative), which keeps such batches
// possible while bounding the worker's sustained record rate at the
// configured tokens/sec: the debt must refill before the next request
// passes. Reports how long the caller should wait when refused.
func (a *admission) admitN(key string, n float64) (ok bool, retryAfter time.Duration) {
	v, loaded := a.buckets.Load(key)
	if !loaded {
		if !a.held(key) {
			return true, 0
		}
		if a.bucketN.Load() > bucketCap {
			a.buckets.Range(func(k, _ any) bool { a.buckets.Delete(k); return true })
			a.bucketN.Store(0)
		}
		// The key is a substring of the request line: the map keeps a copy.
		v, loaded = a.buckets.LoadOrStore(strings.Clone(key), &tokenBucket{tokens: a.burst, last: time.Now()})
		if !loaded {
			a.bucketN.Add(1)
		}
	}
	b := v.(*tokenBucket)
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens = math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.rate)
	b.last = now
	need := math.Min(n, a.burst)
	if b.tokens >= need {
		b.tokens -= n
		return true, 0
	}
	wait := time.Duration((need - b.tokens) / a.rate * float64(time.Second))
	return false, wait
}

// StartDrain flips the server into drain mode: new sessions are
// refused with 503 + Retry-After while every other endpoint keeps
// serving, so participants already mid-assignment can finish their
// requests before the listener shuts down. Close (after the HTTP
// server has drained) flushes the group-commit window.
func (s *Server) StartDrain() { s.admission.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.admission.draining.Load() }

// SessionsInFlight counts joined sessions whose assignment is not yet
// fully answered — what a draining server waits on before shutting its
// listener, so participants mid-assignment can finish. It sums the
// campaigns' in-flight lists, which a join appends to, a completion
// removes from, and a snapshot load rebuilds. Abandoned
// sessions never leave this count, so drain loops pair it with
// RequestsInFlight to detect quiescence instead of waiting it to zero.
func (s *Server) SessionsInFlight() int64 {
	return int64(s.sumCampaigns(func(c *campaignState) int { return len(c.inflight) }))
}

// RequestsInFlight counts API requests currently being served. It
// reads the same counter the in-flight cap charges.
func (s *Server) RequestsInFlight() int64 {
	return s.admission.inflight.Load()
}

// retryAfterSeconds renders a Retry-After header value, at least 1s.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// reject answers an admission refusal and counts it.
func (s *Server) reject(w http.ResponseWriter, status int, reason, msg string, retryAfter time.Duration) {
	s.metrics.rejected[reason].Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	writeErr(w, status, msg)
}

// scratch is what one request needs only for as long as its handler
// runs, recycled through scratchPool so a request allocates none of it:
// the writer that records the status code and carries the trace, the
// buffer an ingest body is read into, the structs it decodes to and the
// journal event built from them. instrument() hands it to the handler as
// its ResponseWriter and takes it back when the handler returns; nothing
// reachable from the platform's state may point into it after that (the
// apply functions copy what they keep out of the event).
//
// The trace rides here instead of the request context because
// r.WithContext clones the entire http.Request, and one clone per
// request costs several percent of a mem-mode ingest request, paid on
// every request whenever tracing is on.
type scratch struct {
	http.ResponseWriter
	status int
	tr     *trace.Trace
	id     string // the route's {id} path segment, percent-decoded

	buf   []byte // an ingest body as it arrived; a batch's acknowledgement
	ev    event
	join  JoinRequest
	batch EventBatch
	resp  ResponseBody
	pool  []string     // a join's live videos
	reply JoinResponse // a join's or a /tests reply
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release clears everything the request left in the scratch, so the pool
// pins none of it, and returns it. The buffers stay, emptied: the body
// buffer never grows past maxInPlaceBody, and the video pool past the
// largest campaign joined.
func (sc *scratch) release() {
	clear(sc.pool)
	*sc = scratch{buf: sc.buf[:0], pool: sc.pool[:0]}
	scratchPool.Put(sc)
}

func (sc *scratch) WriteHeader(code int) {
	sc.status = code
	sc.ResponseWriter.WriteHeader(code)
}

func (sc *scratch) Write(b []byte) (int, error) {
	if sc.status == 0 {
		sc.status = http.StatusOK
	}
	return sc.ResponseWriter.Write(b)
}

// ReadFrom forwards to the wrapped writer's io.ReaderFrom when it has
// one, so instrumented video responses keep net/http's sendfile path (a
// plain wrapper would demote io.Copy from ServeContent to a userspace
// loop).
func (sc *scratch) ReadFrom(src io.Reader) (int64, error) {
	if sc.status == 0 {
		sc.status = http.StatusOK
	}
	if rf, ok := sc.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// The struct wrapper hides ReadFrom so io.Copy cannot recurse here.
	return io.Copy(struct{ io.Writer }{sc.ResponseWriter}, src)
}

// instrument serves one request on route row i with admission control
// and status/latency recording. The handler runs on a pooled scratch,
// its ResponseWriter, which also carries the route's {id}; the route's
// instruments were bound to its row when the server was built. With
// tracing enabled instrument also owns the trace lifecycle: a trace
// starts before the admission gates (so rejected requests show up as
// admission-heavy traces), travels to the handler on the scratch, and
// finishes with the recorded status after the handler returns. Only
// routed requests get here: the handler's 301, 405 and 404 do not.
func (s *Server) instrument(i int, w http.ResponseWriter, r *http.Request, id string) {
	rt := &routes[i]
	sc := scratchPool.Get().(*scratch)
	sc.ResponseWriter, sc.id = w, id
	defer sc.release()
	if sc.tr = s.startTrace(rt.endpoint, r); sc.tr != nil {
		defer func() {
			status := http.StatusOK
			if sc.status != 0 {
				status = sc.status
			}
			s.tracer.Finish(sc.tr, status)
		}()
	}
	a := &s.admission
	if a.draining.Load() && rt.endpoint == "join" {
		s.reject(sc, http.StatusServiceUnavailable, "drain",
			"server is draining; not admitting new sessions", 5*time.Second)
		return
	}
	// The in-flight count feeds the cap check, the
	// eyeorg_http_inflight gauge and the drain loop's quiescence probe.
	if n := a.inflight.Add(1); a.maxInflight > 0 && n > a.maxInflight {
		a.inflight.Add(-1)
		s.reject(sc, http.StatusTooManyRequests, "inflight",
			"server at capacity", time.Second)
		return
	}
	defer a.inflight.Add(-1)
	if a.rate > 0 && rt.session {
		if ok, wait := a.admit(id); !ok {
			s.reject(sc, http.StatusTooManyRequests, "worker-rate",
				"per-worker rate exceeded", wait)
			return
		}
	}
	sc.tr.Mark(trace.StageAdmission)
	em := &s.metrics.endpoints[i]
	start := time.Now()
	rt.handle(s, sc, r)
	em.lat.Observe(time.Since(start))
	class := sc.status/100 - 1
	if class < 0 || class >= len(em.codes) {
		class = 4 // treat unwritten/invalid statuses as 5xx
	}
	em.codes[class].Inc()
}

// Metrics returns the server's telemetry registry so embedders can add
// their own instruments or serve the exposition elsewhere.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }
