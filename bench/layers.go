package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/cluster"
	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/telemetry"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// The layer probes time each module's public functions from outside,
// on inputs taken from the run's own script. Each probe is one span in
// the trace file. A probe whose layer the workload never enters reports
// 0 with no samples: that is the "no move" prediction made checkable.

// The probes' results land here so that the compiler cannot drop the
// calls being timed.
var (
	sinkRecords []wire.Record
	sinkBands   map[string]quality.Band
	sinkOutcome *filtering.Outcome
	sinkVideos  []string
	sinkString  string
)

// layerBudget bounds one probe's timed loop.
const layerBudget = 60 * time.Millisecond

// probes collects the per-layer metrics and the probe spans.
type probes struct {
	epoch   time.Time
	metrics []metric
	spans   []span
}

func (ps *probes) add(name, unit string, value float64, n int) {
	ps.metrics = append(ps.metrics, metric{name, unit, value, n})
}

// timed runs f (one batch of ops operations) until the budget is spent
// and returns nanoseconds per operation and the operations done.
func (ps *probes) timed(name string, ops int, f func()) (nsPerOp float64, n int) {
	f() // warm caches and pools outside the clock
	start := time.Now()
	for time.Since(start) < layerBudget {
		f()
		n += ops
	}
	end := time.Now()
	ps.spans = append(ps.spans, span{name: name, start: int64(start.Sub(ps.epoch)), end: int64(end.Sub(ps.epoch)), parent: -1})
	return float64(end.Sub(start)) / float64(n), n
}

// once times a single call of f, in seconds, and records it as a span.
func (ps *probes) once(name string, f func() error) (float64, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	ps.spans = append(ps.spans, span{name: name, start: int64(start.Sub(ps.epoch)), end: int64(end.Sub(ps.epoch)), parent: -1})
	return end.Sub(start).Seconds(), err
}

// sessionInputs rebuilds, from the bound script, what the platform
// holds for each persona's session: the engagement traces, the stored
// answers and the filtering record. Persona p is assigned videos
// p, p+1, ... with the first repeated as the control, like the
// platform's round-robin.
type sessionInputs struct {
	videos  [][]string
	traces  [][]survey.VideoTrace
	answers [][]*survey.TimelineResponse
	records []*filtering.SessionRecord
	batches [][]byte // each session's interactions as one EYB1 batch
	nRecs   int
}

func buildSessionInputs(sc *script) *sessionInputs {
	in := &sessionInputs{}
	nv := len(sc.videos)
	for pi := range sc.personas {
		p := &sc.personas[pi]
		var vids []string
		var traces []survey.VideoTrace
		var answers []*survey.TimelineResponse
		recs := []wire.Record{p.instructionRec}
		for k := 0; k < platform.TestsPerSession; k++ {
			vi, control := (pi+k)%nv, false
			if k == platform.TestsPerSession-1 {
				vi, control = pi%nv, true
			}
			a := p.answerTo(vi, control)
			tr := survey.VideoTrace{
				VideoID:         a.batch.VideoID,
				LoadTime:        durMs(a.batch.LoadMs),
				TimeOnVideo:     durMs(a.batch.TimeOnVideoMs),
				Plays:           a.batch.Plays,
				Pauses:          a.batch.Pauses,
				Seeks:           a.batch.Seeks,
				WatchedFraction: a.batch.WatchedFraction,
				OutOfFocus:      durMs(a.batch.OutOfFocusMs),
			}
			vids = append(vids, a.batch.VideoID)
			traces = append(traces, tr)
			answers = append(answers, &survey.TimelineResponse{
				VideoID:        a.batch.VideoID,
				Slider:         durMs(a.reply.SliderMs),
				Helper:         durMs(a.reply.HelperMs),
				Submitted:      durMs(a.reply.SubmittedMs),
				AcceptedHelper: a.reply.AcceptedHelper,
				Control:        control,
				ControlPassed:  !control || a.reply.KeptOriginal,
				Trace:          tr,
			})
			recs = append(recs, a.record)
		}
		in.videos = append(in.videos, vids)
		in.traces = append(in.traces, traces)
		in.answers = append(in.answers, answers)
		in.records = append(in.records, &filtering.SessionRecord{
			Participant: &crowd.Participant{ID: "w" + strconv.Itoa(pi), Gender: p.gender, Country: p.country},
			Trace:       &survey.SessionTrace{InstructionTime: durMs(p.instruction.InstructionMs), Videos: traces},
			Timeline:    answers,
		})
		in.batches = append(in.batches, wire.AppendBatch(nil, recs))
		in.nRecs += len(recs)
	}
	return in
}

func durMs(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// probeWire times the EYB1 codec on the sessions' batches.
func (ps *probes) probeWire(in *sessionInputs) {
	if in == nil {
		for _, m := range []string{"wire.decode_ns_per_record", "wire.encode_ns_per_record", "wire.bytes_per_record", "wire.decode_allocs_per_batch"} {
			ps.add(m, unitOf(m), 0, 0)
		}
		return
	}
	dec := wire.NewDecoder()
	var decoded [][]wire.Record
	for _, b := range in.batches {
		recs, err := dec.Decode(b)
		if err != nil {
			panic(fmt.Sprintf("bench: own batch does not decode: %v", err))
		}
		decoded = append(decoded, append([]wire.Record(nil), recs...))
	}
	m0 := mallocs()
	perBatch, n := ps.timed("wire.Decoder.Decode", len(in.batches), func() {
		for _, b := range in.batches {
			sinkRecords, _ = dec.Decode(b)
		}
	})
	allocs := float64(mallocs()-m0) / float64(n+len(in.batches))
	perRecord := float64(in.nRecs) / float64(len(in.batches))
	ps.add("wire.decode_ns_per_record", "ns", perBatch/perRecord, n)
	ps.add("wire.decode_allocs_per_batch", "count", allocs, n)
	var enc wire.Encoder
	var buf []byte
	total := 0
	perBatch, n = ps.timed("wire.Encoder.AppendBatch", len(decoded), func() {
		for _, recs := range decoded {
			buf = enc.AppendBatch(buf[:0], recs)
		}
	})
	for _, b := range in.batches {
		total += len(b)
	}
	ps.add("wire.encode_ns_per_record", "ns", perBatch/perRecord, n)
	ps.add("wire.bytes_per_record", "B", float64(total)/float64(in.nRecs), in.nRecs)
}

// probeQuality times the §4.3 fold, the batch filter it must equal, and
// the adaptive estimator, all on the sessions' records.
func (ps *probes) probeQuality(in *sessionInputs) {
	names := []string{"quality.observe_ns_per_trace", "quality.complete_ns", "quality.bands_us",
		"filtering.clean_us_per_ksession", "adaptive.complete_ns", "adaptive.assign_ns"}
	if in == nil {
		for _, m := range names {
			ps.add(m, unitOf(m), 0, 0)
		}
		return
	}
	sessions := len(in.records)
	verdicts := make([]filtering.Reason, sessions)
	trackers := make([]*quality.Tracker, sessions)
	nTraces := 0
	perOp, n := ps.timed("quality.Tracker.Observe", sessions*platform.TestsPerSession, func() {
		for i := range trackers {
			trackers[i] = quality.NewTracker(in.videos[i])
			for _, tr := range in.traces[i] {
				trackers[i].Observe(tr)
			}
		}
	})
	nTraces = n
	ps.add("quality.observe_ns_per_trace", "ns", perOp, nTraces)
	for i, t := range trackers {
		for _, a := range in.answers[i] {
			t.AddTimeline(a)
		}
		t.SetCompleted()
		verdicts[i] = t.Verdict(0)
	}
	var campaign *quality.Campaign
	perOp, n = ps.timed("quality.Campaign.Complete", sessions, func() {
		campaign = quality.NewCampaign("timeline")
		for i, rec := range in.records {
			campaign.Complete(rec, verdicts[i])
		}
	})
	ps.add("quality.complete_ns", "ns", perOp, n)
	perOp, n = ps.timed("quality.Campaign.TimelineBands", 1, func() {
		sinkBands = campaign.TimelineBands(filtering.WisdomLo, filtering.WisdomHi)
	})
	ps.add("quality.bands_us", "us", perOp/1e3, n)
	perOp, n = ps.timed("filtering.Clean", 1, func() {
		sinkOutcome = filtering.Clean(in.records, 0)
	})
	ps.add("filtering.clean_us_per_ksession", "us", perOp/1e3*1000/float64(sessions), n)

	var stopper *adaptive.Campaign
	perOp, n = ps.timed("adaptive.Campaign.Complete", sessions, func() {
		stopper = adaptive.New("timeline", adaptive.Config{Seed: 1})
		for _, v := range in.videos[0] {
			stopper.AddVideo(v)
		}
		for i, rec := range in.records {
			stopper.NoteJoin(in.videos[i])
			stopper.Complete(rec, verdicts[i])
		}
	})
	ps.add("adaptive.complete_ns", "ns", perOp, n)
	live := in.videos[0][:platform.TestsPerSession-1]
	perOp, n = ps.timed("adaptive.Campaign.Assign", 1, func() {
		sinkVideos = stopper.Assign(live)
	})
	ps.add("adaptive.assign_ns", "ns", perOp, n)
}

// probeFixed times the layers whose cost does not depend on the
// workload: a histogram observation, rendering the run's own registry,
// an unsampled request trace and a ring lookup.
func (ps *probes) probeFixed(reg *telemetry.Registry) {
	h := telemetry.NewRegistry().Histogram("bench_probe_seconds", "", nil)
	perOp, n := ps.timed("telemetry.Histogram.Observe", 1024, func() {
		for i := 0; i < 1024; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	})
	ps.add("telemetry.observe_ns", "ns", perOp, n)
	if reg == nil {
		ps.add("telemetry.render_us", "us", 0, 0)
	} else {
		perOp, n = ps.timed("telemetry.Registry.Render", 1, func() { reg.Render(io.Discard) })
		ps.add("telemetry.render_us", "us", perOp/1e3, n)
	}
	tracer := trace.New(trace.Config{SampleRate: 0.01, Seed: 1})
	perOp, n = ps.timed("trace.Tracer.Start+Finish", 1024, func() {
		for i := 0; i < 1024; i++ {
			tr := tracer.Start("events", nil)
			tr.Mark(trace.StageReceive)
			tracer.Finish(tr, 202)
		}
	})
	ps.add("trace.start_finish_ns", "ns", perOp, n)
	ring := cluster.NewRing([]string{"a", "b", "c"}, cluster.DefaultVnodes)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "c" + strconv.Itoa(i)
	}
	perOp, n = ps.timed("cluster.Ring.Owner", len(keys), func() {
		for _, k := range keys {
			sinkString = ring.Owner(k)
		}
	})
	ps.add("cluster.ring_owner_ns", "ns", perOp, n)
}

// probeBlob times the blob store on (up to 32 of) the script's videos in
// scratch directories: ingest, a resident read and a cold open.
func (ps *probes) probeBlob(sc *script, root string) error {
	videos := sc.videos
	if len(videos) > 32 {
		videos = videos[:32]
	}
	var total int64
	for _, v := range videos {
		total += int64(len(v.payload))
	}
	// cold has no byte cache, so every Open goes to the file; warm holds
	// everything, so every Bytes is a hit.
	open := func(cacheBytes int64) (*blob.Store, []blob.Ref, time.Duration, error) {
		dir, err := os.MkdirTemp(root, "blob-probe-")
		if err != nil {
			return nil, nil, 0, err
		}
		st, err := blob.Open(blob.Options{Dir: dir, CacheBytes: cacheBytes})
		if err != nil {
			return nil, nil, 0, err
		}
		var refs []blob.Ref
		t0 := time.Now()
		for _, v := range videos {
			ref, _, err := st.Put(bytes.NewReader(v.payload))
			if err != nil {
				return nil, nil, 0, err
			}
			refs = append(refs, ref)
		}
		return st, refs, time.Since(t0), nil
	}
	start := time.Now()
	cold, refs, putTook, err := open(-1)
	if err != nil {
		return fmt.Errorf("blob probe: %w", err)
	}
	ps.spans = append(ps.spans, span{name: "blob.Store.Put", start: int64(start.Sub(ps.epoch)), end: int64(time.Since(ps.epoch)), parent: -1})
	ps.add("blob.put_mb_per_s", "MB/s", float64(total)/1e6/putTook.Seconds(), len(videos))
	// The byte cache is sharded and each shard evicts on its own, so it
	// gets room to spare: every blob must stay resident.
	warm, _, _, err := open(max(16*total, 64<<20))
	if err != nil {
		return fmt.Errorf("blob probe: %w", err)
	}
	for _, ref := range refs {
		warm.Prewarm(ref.Hash)
	}
	perOp, n := ps.timed("blob.Store.Bytes", len(refs), func() {
		for _, ref := range refs {
			if _, ok := warm.Bytes(ref.Hash); !ok {
				err = fmt.Errorf("%s not resident after prewarm", ref.Hash)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("blob probe: %w", err)
	}
	ps.add("blob.bytes_hit_ns", "ns", perOp, n)
	perOp, n = ps.timed("blob.Store.Open", len(refs), func() {
		for _, ref := range refs {
			rc, _, oerr := cold.Open(ref.Hash)
			if oerr != nil {
				err = oerr
				return
			}
			rc.Close()
		}
	})
	if err != nil {
		return fmt.Errorf("blob probe: %w", err)
	}
	ps.add("blob.open_miss_us", "us", perOp/1e3, n)
	return nil
}

// probeStore reads the run's journal back and re-appends its records to
// a fresh log opened with the workload's own durability options.
func (ps *probes) probeStore(dir string, opts platform.Options, root string) error {
	names := []string{"store.replay_ns_per_record", "store.append_us_p50"}
	if dir == "" {
		for _, m := range names {
			ps.add(m, unitOf(m), 0, 0)
		}
		return nil
	}
	sopts := store.Options{Fsync: opts.Fsync, GroupCommit: opts.GroupCommit}
	lg, err := store.Open(dir, sopts)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	var payloads [][]byte
	t0 := time.Now()
	err = lg.Replay(func(_ uint64, payload []byte) error {
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	took := time.Since(t0)
	ps.spans = append(ps.spans, span{name: "store.Log.Replay", start: int64(t0.Sub(ps.epoch)), end: int64(t0.Add(took).Sub(ps.epoch)), parent: -1})
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store probe replay: %w", err)
	}
	if len(payloads) == 0 {
		// The run ended exactly on a snapshot: nothing to replay.
		for _, m := range names {
			ps.add(m, unitOf(m), 0, 0)
		}
		return nil
	}
	ps.add("store.replay_ns_per_record", "ns", float64(took)/float64(len(payloads)), len(payloads))

	fresh, err := os.MkdirTemp(root, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fresh)
	if lg, err = store.Open(fresh, sopts); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	var lat []int64
	start := time.Now()
	for _, p := range payloads {
		if time.Since(start) > 8*layerBudget {
			break
		}
		t := time.Now()
		seq, err := lg.AppendAsync(p)
		if err == nil {
			err = lg.WaitDurable(seq)
		}
		if err != nil {
			lg.Close()
			return fmt.Errorf("store probe append: %w", err)
		}
		lat = append(lat, int64(time.Since(t)))
	}
	ps.spans = append(ps.spans, span{name: "store.Log.AppendAsync+WaitDurable", start: int64(start.Sub(ps.epoch)), end: int64(time.Since(ps.epoch)), parent: -1})
	if err := lg.Close(); err != nil {
		return fmt.Errorf("store probe close: %w", err)
	}
	sortInt64(lat)
	ps.add("store.append_us_p50", "us", float64(percentile(lat, 0.50))/1e3, len(lat))
	return nil
}
