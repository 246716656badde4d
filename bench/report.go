package main

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// metric is one reported number. N is how many samples stand behind it
// (requests for a latency, segments for a rate, 0 when nothing of the
// kind ran on this workload).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"samples"`
}

// report is everything one run of one workload found out.
type report struct {
	mu sync.Mutex

	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Env        envInfo  `json:"env"`
	ScriptHash string   `json:"script_hash"`
	Units      int      `json:"units_per_segment"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Checks     []check  `json:"checks"`
	EndToEnd   []metric `json:"end_to_end"`
	// Ungated holds the end-to-end figures BENCHMARK.json does not gate:
	// the clock times, which this sandbox does not repeat within any
	// bound worth setting, and the figures only some workloads have.
	Ungated  []metric `json:"end_to_end_not_gated,omitempty"`
	PerLayer []metric `json:"per_layer,omitempty"`
	// SegmentWall is the warm-up's time, then each measured segment's.
	SegmentWall  []float64 `json:"segment_wall_s"`
	SetupSamples []float64 `json:"setup_samples_s,omitempty"`
	WallSeconds  float64   `json:"wall_s"`
	SpanFile     string    `json:"span_file,omitempty"`
	FirstError   string    `json:"first_error,omitempty"`
}

func newReport(sp spec, o options, env envInfo) *report {
	return &report{Workload: sp.name, Why: sp.why, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Env: env}
}

func (r *report) addCheck(c check) {
	r.mu.Lock()
	r.Checks = append(r.Checks, c)
	r.mu.Unlock()
}

// fail records a run that could not finish.
func (r *report) fail(stage string, err error) {
	r.addCheck(check{Name: stage, Detail: err.Error()})
}

// count folds a segment's operation counts into the run's.
func (r *report) count(seg *segment) {
	r.mu.Lock()
	r.Attempted += seg.attempted
	r.Failed += seg.failed
	r.SegmentWall = append(r.SegmentWall, seg.wall.Seconds())
	r.mu.Unlock()
}

// settle decides Correct: every check held, nothing failed and
// something was attempted.
func (r *report) settle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
		}
	}
}

func (r *report) print(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %gs) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	fmt.Fprintf(w, "why: %s\n", r.Why)
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, data on %s, %d closed-loop clients on %d keep-alive connections\n",
		r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.DataFS, r.Env.Clients, r.Env.Clients)
	fmt.Fprintf(w, "script %.16s, %d units/segment, warm-up and segments %.2fs, run %.1fs\n",
		r.ScriptHash, r.Units, r.SegmentWall, r.WallSeconds)
	if len(r.SetupSamples) > 0 {
		fmt.Fprintf(w, "set-ups %.3fs\n", r.SetupSamples)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", r.FirstError)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-38s %s\n", verdict, c.Name, c.Detail)
	}
	for _, group := range []struct {
		title string
		ms    []metric
	}{{"end-to-end, gated", r.EndToEnd}, {"end-to-end, not gated", r.Ungated}, {"per-layer", r.PerLayer}} {
		if len(group.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "-- %s --\n", group.title)
		for _, m := range group.ms {
			fmt.Fprintf(w, "%-34s %14.4f %-7s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
}

// driverLine is the object the driver reads: the gated end-to-end
// metrics of an untraced run, every per-layer metric of a traced one.
func (r *report) driverLine() map[string]any {
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	metrics := make(map[string]any, len(ms))
	for _, m := range ms {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": metrics}
}

// overSegments returns the median over the segments of f, the value a
// metric reports.
func overSegments(segs []*segment, f func(*segment) float64) float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = f(s)
	}
	return median(vs)
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// mbPerSecond is a segment's video body bytes over its time.
func mbPerSecond(s *segment) float64 { return float64(s.bytes) / 1e6 / s.wall.Seconds() }

func samples(segs []*segment, f func(*segment) int) int {
	n := 0
	for _, s := range segs {
		n += f(s)
	}
	return n
}

// latencyMs is the metric most of the report consists of: the
// q-quantile, in milliseconds, of the latencies pick takes from a
// segment, as the median over the segments, with the samples counted.
func latencyMs(name string, segs []*segment, pick func(*segment) []int64, q float64) metric {
	return metric{name, "ms",
		overSegments(segs, func(s *segment) float64 { return msOf(percentile(pick(s), q)) }),
		samples(segs, func(s *segment) int { return len(pick(s)) })}
}

func sessionTimes(s *segment) []int64 { return s.sessionNs }
func allRequests(s *segment) []int64  { return s.all }

// ofClass picks one request class's latencies.
func ofClass(cl class) func(*segment) []int64 {
	return func(s *segment) []int64 { return s.lat[cl] }
}

// cpuMsPerSession is a segment's processor time per session, in
// milliseconds: the whole process, driver included.
func cpuMsPerSession(s *segment) float64 { return msOf(int64(s.cpu)) / float64(max(s.sessions, 1)) }

// handlerMsPerSession is the time a segment spent inside the server's
// handler per session, in milliseconds.
func handlerMsPerSession(s *segment) float64 {
	return msOf(int64(s.handler)) / float64(max(s.sessions, 1))
}

// handlerSharePct is the share of the clients' time that a segment's
// requests spent inside the server's handler. A closed-loop client is
// always either waiting for a reply or preparing the next request, so
// clients times wall time is all the time there is; the rest of it goes
// to the driver, the sockets and net/http's parsing.
func handlerSharePct(s *segment) float64 {
	return 100 * float64(s.handler) / (nClients * float64(s.wall))
}

// allocsPerSession is the objects the whole process allocated during a
// segment per session. The driver's own are the decoded join reply, so
// nearly all of these are net/http's and the platform's.
func allocsPerSession(s *segment) float64 { return float64(s.mallocs) / float64(max(s.sessions, 1)) }

func sessionsPerSecond(s *segment) float64 { return float64(s.sessions) / s.wall.Seconds() }

// ingestOf merges a segment's events and response latencies.
func ingestOf(s *segment) []int64 {
	out := make([]int64, 0, len(s.lat[clEvents])+len(s.lat[clResponse]))
	out = append(append(out, s.lat[clEvents]...), s.lat[clResponse]...)
	sortInt64(out)
	return out
}

const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 4 * time.Second
)

// prepare sets the workload up: once when timed is false, otherwise at
// least minSetups times and on until setupBudget has been spent or
// maxSetups are done, so that a cheap set-up gets the more samples it
// needs. It returns the last rig, which is the one measured, and the
// seconds each set-up took: setup_s's samples.
func prepare(p plan, seed int64, root string, totalUnits int, timed bool) (*rig, []float64, error) {
	var r *rig
	var took []float64
	began := time.Now()
	most := maxSetups
	if p.smoke {
		most = minSetups
	}
	for i := 0; i == 0 || timed && i < most && (i < minSetups || time.Since(began) < setupBudget); i++ {
		if r != nil {
			r.tearDown()
		}
		// Every set-up starts from a collected heap, so that none pays for
		// the garbage of the one before.
		liveHeap()
		t0 := time.Now()
		var err error
		if r, err = setUp(p, seed, root, totalUnits); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	for _, c := range r.clients {
		c.reserve(p.reserve())
	}
	return r, took, nil
}

// runUntraced is the end-to-end run: set up several times (for a median
// set-up time), warm up, measure five segments of equal work, check the
// outputs.
func runUntraced(rep *report, p plan, o options, root string) {
	started := time.Now()
	defer func() {
		rep.mu.Lock()
		rep.WallSeconds = time.Since(started).Seconds()
		rep.mu.Unlock()
		rep.settle()
	}()
	rep.Units = p.perSegment
	r, setups, err := prepare(p, o.seed, root, p.warmup+segments*p.perSegment, true)
	if err != nil {
		rep.fail("set-up", err)
		return
	}
	defer r.tearDown()
	rep.ScriptHash = r.sc.hash()
	rep.SetupSamples = setups

	heapSeeded := liveHeap()
	completedSeeded := r.completed
	rep.count(r.segment(p.warmup))
	before := r.scrapeMetrics()
	var segs []*segment
	for i := 0; i < segments; i++ {
		seg := r.segment(p.perSegment)
		rep.count(seg)
		segs = append(segs, seg)
		if seg.failed > 0 {
			break
		}
	}
	counters := r.scrapeMetrics().sub(before)
	heapFinished := liveHeap()
	rep.noteErrors(r.clients)

	rep.EndToEnd = []metric{
		{"setup_s", "s", median(setups), len(setups)},
		{"heap_mb", "MB", float64(heapFinished) / 1e6, 1},
		{"allocs_per_session", "count", overSegments(segs, allocsPerSession), len(segs)},
		{"handler_share_pct", "%", overSegments(segs, handlerSharePct), len(segs)},
	}

	rep.Ungated = []metric{
		{"sessions_per_s", "1/s", overSegments(segs, sessionsPerSecond), len(segs)},
		latencyMs("session_p50_ms", segs, sessionTimes, 0.50),
		latencyMs("session_p90_ms", segs, sessionTimes, 0.90),
		latencyMs("request_p99_ms", segs, allRequests, 0.99),
		{"cpu_ms_per_session", "ms", overSegments(segs, cpuMsPerSession), len(segs)},
		latencyMs("video_p50_ms", segs, ofClass(clVideo), 0.50),
	}
	if !p.delivery {
		grown := float64(heapFinished) - float64(heapSeeded)
		rep.Ungated = append(rep.Ungated,
			metric{"heap_kb_per_session", "KiB", grown / 1024 / float64(max(r.completed-completedSeeded, 1)), 1},
			latencyMs("ingest_p50_ms", segs, ingestOf, 0.50))
		rep.addCheck(r.checkTotals())
	}
	if p.poll {
		rep.Ungated = append(rep.Ungated,
			latencyMs("results_p50_ms", segs, ofClass(clResultsMiss), 0.50),
			latencyMs("analytics_p50_ms", segs, ofClass(clAnalytics), 0.50))
		rep.addCheck(r.checkRevalidation(samples(segs, func(s *segment) int { return len(s.lat[clResultsHit]) })))
	}
	if p.delivery {
		rep.Ungated = append(rep.Ungated, metric{"video_mb_per_s", "MB/s", overSegments(segs, mbPerSecond), len(segs)})
		n := samples(segs, func(s *segment) int { return len(s.lat[clVideo]) })
		rep.addCheck(check{Name: "video-bodies-equal-upload", OK: rep.Failed == 0 && n > 0,
			Detail: fmt.Sprintf("%d replies: validator is the upload's SHA-256, bytes equal the upload's", n)})
	}
	if p.durable && !p.delivery {
		measured := samples(segs, func(s *segment) int { return s.sessions })
		rep.Ungated = append(rep.Ungated, metric{"disk_bytes_per_session", "B",
			counters.sum("eyeorg_journal_append_bytes_total") / float64(max(measured, 1)), measured})
		ck, times := r.reopen(5)
		rep.addCheck(ck)
		rep.Ungated = append(rep.Ungated, metric{"reopen_s", "s", median(times), len(times)})
	}
}

// noteErrors keeps the first error any client met, for the report.
func (r *report) noteErrors(clients []*client) {
	for _, c := range clients {
		if c.firstErr != nil && r.FirstError == "" {
			r.FirstError = c.firstErr.Error()
		}
	}
}

// reserve is how many sessions one client may run in a segment: the
// size of its sample buffers. The background participant of
// experimenter-poll is not bounded by the segment's fixed work, so it
// gets room for a whole segment's time at full speed.
func (p plan) reserve() int {
	if p.poll {
		return p.perSegment * 60
	}
	return p.perSegment
}
