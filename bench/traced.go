package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// maxSpansWritten caps the span file; the count recorded is kept beside it.
const maxSpansWritten = 200000

// runTraced is the per-layer run. It measures nothing the driver gates:
// it sets up once, runs four socket segments alternately untraced and
// traced (their difference is the tracing overhead), replays the same
// script by direct dispatch (the handler without sockets), times each
// layer's public functions on the script's own inputs, runs the script
// once more against canned replies (the instrument alone: the driver.*
// metrics) and writes every span to out/trace-<workload>.json.
func runTraced(rep *report, p plan, o options, root string) {
	started := time.Now()
	defer func() {
		rep.mu.Lock()
		rep.WallSeconds = time.Since(started).Seconds()
		rep.mu.Unlock()
		rep.settle()
	}()
	const socketSegments = 4
	replayUnits := max(p.perSegment/4, 4)
	rep.Units = p.perSegment

	r, _, err := prepare(p, o.seed, root, p.warmup+socketSegments*p.perSegment+replayUnits, false)
	if err != nil {
		rep.fail("set-up", err)
		return
	}
	defer r.tearDown()
	rep.ScriptHash = r.sc.hash()
	ps := &probes{epoch: r.epoch}
	spansPerUnit := 3*platform.TestsPerSession + 5
	// The span logs are sized before the clock starts and before the heap
	// is first read, so recording neither allocates nor counts as growth.
	for _, c := range r.clients {
		c.spans = make([]span, 0, 2*p.reserve()*spansPerUnit)
	}
	heapSeeded := liveHeap()

	warm := r.segment(p.warmup)
	rep.count(warm)
	before := r.scrapeMetrics()
	var plain, traced []*segment
	for i := 0; i < socketSegments; i++ {
		tracing := i%2 == 1
		for _, c := range r.clients {
			c.tracing = tracing
		}
		seg := r.segment(p.perSegment)
		rep.count(seg)
		if tracing {
			traced = append(traced, seg)
		} else {
			plain = append(plain, seg)
		}
	}
	counters := r.scrapeMetrics().sub(before)
	heapFinished := liveHeap()
	both := append(append([]*segment(nil), plain...), traced...)
	socketSessions := samples(both, func(s *segment) int { return s.sessions })
	socketGets := samples(both, func(s *segment) int { return len(s.lat[clVideo]) })

	plainRate, tracedRate := overSegments(plain, sessionsPerSecond), overSegments(traced, sessionsPerSecond)
	cpuPerSession := overSegments(plain, cpuMsPerSession)

	// The handler alone: the same script by direct dispatch.
	replay := newClient(newDirect(r.srv.Handler()), r.sc, p.binary, "platform")
	replay.epoch = r.epoch
	replay.reserve(replayUnits + 8)
	replay.tracing, replay.spans = true, make([]span, 0, (replayUnits+8)*spansPerUnit)
	m0 := mallocs()
	for i := 0; i < replayUnits && replay.failed == 0; i++ {
		if p.delivery {
			_ = replay.viewing(r.units)
			r.units++
		} else {
			_ = replay.session(r.participant.Add(1) - 1)
		}
	}
	allocsPerSession := float64(mallocs()-m0) / float64(max(replay.sessions, 1))
	if !p.delivery {
		// Every workload with sessions gets a few experimenter refreshes,
		// so the render paths have a direct-dispatch figure everywhere.
		var tag []byte
		for i := 0; i < 5 && replay.failed == 0; i++ {
			if replay.session(r.participant.Add(1)-1) == nil {
				tag, _, _ = replay.poll(tag)
			}
		}
		r.completed += replay.sessions
	}
	rep.mu.Lock()
	rep.Attempted += replay.attempted
	rep.Failed += replay.failed
	rep.mu.Unlock()
	// Direct-dispatch latencies. The session classes pooled give the
	// figure http.overhead is read against.
	var direct [numClasses][]int64
	var directSession, socketSession []int64
	for cl := range replay.lat {
		direct[cl] = append(direct[cl], replay.lat[cl]...)
		sortInt64(direct[cl])
		if class(cl) < clResultsMiss {
			directSession = append(directSession, direct[cl]...)
		}
	}
	sortInt64(directSession)
	socketP50 := overSegments(plain, func(s *segment) float64 {
		socketSession = socketSession[:0]
		for cl := clJoin; cl < clResultsMiss; cl++ {
			socketSession = append(socketSession, s.lat[cl]...)
		}
		sortInt64(socketSession)
		return float64(percentile(socketSession, 0.50))
	})

	if !p.delivery {
		rep.addCheck(r.checkTotals())
	}
	ps.probeFixed(r.srv.Metrics())

	// The durable server is closed for the store probe, which reads the
	// journal's tail back, then reopened: three timed opens, and five
	// snapshots on the last (a snapshot before the probe would have
	// compacted the tail away).
	r.hangUp()
	var snapshotMs, reopenMs []float64
	if p.durable {
		if err := r.srv.Close(); err != nil {
			rep.fail("close", err)
			return
		}
		r.srv = nil
	}
	if err := ps.probeStore(r.dir, r.opts, root); err != nil {
		rep.fail("store probe", err)
		return
	}
	if p.durable {
		for i := 0; i < 3; i++ {
			if r.srv != nil {
				if err := r.srv.Close(); err != nil {
					rep.fail("reopen close", err)
					return
				}
			}
			took, err := ps.once("platform.Open", func() error {
				var err error
				r.srv, err = platform.Open(r.opts)
				return err
			})
			if err != nil {
				rep.fail("reopen", err)
				return
			}
			reopenMs = append(reopenMs, took*1e3)
		}
		for i := 0; i < 5; i++ {
			took, err := ps.once("platform.Server.Snapshot", r.srv.Snapshot)
			if err != nil {
				rep.fail("snapshot", err)
				return
			}
			snapshotMs = append(snapshotMs, took*1e3)
		}
	}
	if err := ps.probeBlob(r.sc, root); err != nil {
		rep.fail("blob probe", err)
		return
	}
	var inputs *sessionInputs
	if !p.delivery {
		inputs = buildSessionInputs(r.sc)
	}
	ps.probeWire(inputs)
	ps.probeQuality(inputs)

	perSession := func(v float64) float64 { return v / float64(max(socketSessions, 1)) }
	appends := counters.sum("eyeorg_journal_appends_total")
	hits, misses := counters.sum("eyeorg_blobcache_hits_total"), counters.sum("eyeorg_blobcache_misses_total")
	// The instrument alone: as many sessions as a socket segment completed,
	// from the same script, against canned replies.
	null, err := nullRun(p, o.seed, max(socketSessions/socketSegments, 4))
	if err != nil {
		rep.fail("null run", err)
		return
	}
	nullCPU := cpuMsPerSession(null)
	ps.add("driver.null_sessions_per_s", "1/s", sessionsPerSecond(null), null.sessions)
	ps.add("driver.cpu_ms_per_session", "ms", nullCPU, null.sessions)
	ps.add("driver.share", "%", 100*nullCPU/cpuPerSession, null.sessions)
	ps.add("driver.trace_overhead_pct", "%", 100*(plainRate-tracedRate)/plainRate, len(plain)+len(traced))
	ps.add("http.sessions_per_s", "1/s", plainRate, len(plain))
	ps.add("http.cpu_ms_per_session", "ms", cpuPerSession, len(plain))
	ps.add("http.handler_ms_per_session", "ms", overSegments(plain, handlerMsPerSession), len(plain))
	ps.add("http.video_mb_per_s", "MB/s", overSegments(plain, mbPerSecond), socketGets)
	ps.metrics = append(ps.metrics,
		latencyMs("http.session_p50_ms", plain, sessionTimes, 0.50),
		latencyMs("http.session_p90_ms", plain, sessionTimes, 0.90),
		latencyMs("http.request_p99_ms", plain, allRequests, 0.99),
		latencyMs("http.ingest_p50_ms", plain, ingestOf, 0.50),
		latencyMs("http.video_p50_ms", plain, ofClass(clVideo), 0.50))
	ps.add("http.overhead_us_p50", "us", (socketP50-float64(percentile(directSession, 0.50)))/1e3, len(directSession))
	for cl := class(0); cl < numClasses; cl++ {
		ps.add("platform."+classNames[cl]+"_us_p50", "us", float64(percentile(direct[cl], 0.50))/1e3, len(direct[cl]))
	}
	ps.add("platform.allocs_per_session", "count", allocsPerSession, replay.sessions)
	heapPerSession, heapN := 0.0, 0
	if !p.delivery {
		heapN = socketSessions + warm.sessions
		heapPerSession = (float64(heapFinished) - float64(heapSeeded)) / 1024 / float64(max(heapN, 1))
	}
	ps.add("platform.heap_kb_per_session", "KiB", heapPerSession, heapN)
	ps.add("platform.snapshot_ms", "ms", median(snapshotMs), len(snapshotMs))
	ps.add("platform.reopen_ms", "ms", median(reopenMs), len(reopenMs))
	for cl := class(0); cl < numClasses; cl++ {
		ps.metrics = append(ps.metrics, latencyMs("platform."+classNames[cl]+"_p99_ms", plain, ofClass(cl), 0.99))
	}
	maxNs := int64(0)
	for _, s := range plain {
		if n := len(s.all); n > 0 && s.all[n-1] > maxNs {
			maxNs = s.all[n-1]
		}
	}
	ps.add("platform.max_ms", "ms", msOf(maxNs), samples(plain, func(s *segment) int { return len(s.all) }))
	fsyncs := counters["eyeorg_journal_fsync_seconds_count"]
	windows := counters["eyeorg_journal_window_records_count"]
	perWindow := 0.0
	if windows > 0 {
		perWindow = counters["eyeorg_journal_window_records_sum"] / windows
	}
	ps.add("store.fsync_ms_p50", "ms", 1e3*counters.quantile("eyeorg_journal_fsync_seconds", 0.50), int(fsyncs))
	ps.add("store.fsyncs_per_session", "count", perSession(fsyncs), socketSessions)
	ps.add("store.window_records_mean", "count", perWindow, int(windows))
	ps.add("store.records_per_session", "count", perSession(appends), socketSessions)
	bytesPerRecord := 0.0
	if appends > 0 {
		bytesPerRecord = counters.sum("eyeorg_journal_append_bytes_total") / appends
	}
	ps.add("store.bytes_per_record", "B", bytesPerRecord, int(appends))
	ps.add("store.disk_bytes_per_session", "B", perSession(counters.sum("eyeorg_journal_append_bytes_total")), socketSessions)
	ps.add("store.snapshots", "count", counters.sum("eyeorg_journal_snapshots_total"), 1)
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	ps.add("blob.hit_ratio", "ratio", hitRatio, int(hits+misses))
	ps.add("blob.evictions_per_kget", "count", 1000*counters.sum("eyeorg_blobcache_evictions_total")/float64(max(socketGets, 1)), socketGets)

	rep.PerLayer = orderLikeTable(ps.metrics)
	if missing := len(perLayerMetrics) - len(rep.PerLayer); missing != 0 {
		rep.fail("per-layer metrics", fmt.Errorf("%d of the table's metrics were not measured", missing))
	}
	rep.noteErrors(append(r.clients, replay))

	path := filepath.Join(home(), "out", "trace-"+p.name+".json")
	logs := [][]span{ps.spans, replay.spans}
	for _, c := range r.clients {
		logs = append(logs, c.spans)
	}
	if err := writeSpans(path, rep, logs); err != nil {
		rep.fail("span file", err)
		return
	}
	rep.SpanFile = path
}

// orderLikeTable returns the measured metrics in perLayerMetrics order,
// dropping none that the table names and none twice.
func orderLikeTable(measured []metric) []metric {
	byName := make(map[string]metric, len(measured))
	for _, m := range measured {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(perLayerMetrics))
	for _, want := range perLayerMetrics {
		if m, ok := byName[want.name]; ok {
			out = append(out, m)
		}
	}
	return out
}

// writeSpans writes every span (up to the cap) as one JSON document:
// name, start and end in nanoseconds since set-up began, the parent
// span's id (-1 for none) and the session the span belongs to.
func writeSpans(path string, rep *report, logs [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans_recorded\":%d,\"spans\":[\n", rep.Workload, rep.Seed, total)
	written, offset := 0, 0
	var line []byte
	for _, l := range logs {
		for i := range l {
			if written == maxSpansWritten {
				break
			}
			s := &l[i]
			parent := int64(s.parent)
			if parent >= 0 {
				parent += int64(offset)
			}
			line = line[:0]
			if written > 0 {
				line = append(line, ",\n"...)
			}
			line = append(line, `{"id":`...)
			line = strconv.AppendInt(line, int64(offset+i), 10)
			line = append(line, `,"name":`...)
			line = strconv.AppendQuote(line, s.name)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, parent, 10)
			line = append(line, `,"session":`...)
			line = strconv.AppendQuote(line, s.session)
			line = append(line, '}')
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
			written++
		}
		offset += len(l)
	}
	fmt.Fprintf(w, "\n],\"spans_written\":%d}\n", written)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
