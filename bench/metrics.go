package main

// The metric tables are the program's side of BENCHMARK.json: a test
// holds the two to the same names, units, directions and bounds.

// gated is one end-to-end metric the driver compares across commits.
// Every workload reports every one of them; README.md gives each
// workload's reading of "session".
type gated struct {
	name, unit, better string
	bound              float64
}

// Gated are the end-to-end metrics that repeat on the sandbox: every
// bound but setup_s's is at least three times the widest spread
// (quartile distance over median, ten seeds) any workload showed. The
// clock times do not repeat within 15% there and are reported ungated
// and per layer: see README.md, "What is gated".
var endToEndMetrics = []gated{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.15},
	{"allocs_per_session", "count", "lower", 0.03},
	{"handler_share_pct", "%", "lower", 0.15},
}

// layered is one per-layer metric of the traced run. They are reported,
// never gated.
type layered struct{ name, unit, better string }

var perLayerMetrics = []layered{
	// The instrument itself.
	{"driver.null_sessions_per_s", "1/s", "higher"},
	{"driver.cpu_ms_per_session", "ms", "lower"},
	{"driver.share", "%", "lower"},
	{"driver.trace_overhead_pct", "%", "lower"},
	// The clock times of the socket segments: the end-to-end figures the
	// sandbox does not repeat well enough to gate.
	{"http.sessions_per_s", "1/s", "higher"},
	{"http.session_p50_ms", "ms", "lower"},
	{"http.session_p90_ms", "ms", "lower"},
	{"http.request_p99_ms", "ms", "lower"},
	{"http.cpu_ms_per_session", "ms", "lower"},
	{"http.handler_ms_per_session", "ms", "lower"},
	{"http.ingest_p50_ms", "ms", "lower"},
	{"http.video_p50_ms", "ms", "lower"},
	{"http.video_mb_per_s", "MB/s", "higher"},
	// Socket and net/http cost around the handler.
	{"http.overhead_us_p50", "us", "lower"},
	// The handler, by direct dispatch of the same script.
	{"platform.join_us_p50", "us", "lower"},
	{"platform.tests_us_p50", "us", "lower"},
	{"platform.video_us_p50", "us", "lower"},
	{"platform.events_us_p50", "us", "lower"},
	{"platform.response_us_p50", "us", "lower"},
	{"platform.results_miss_us_p50", "us", "lower"},
	{"platform.results_hit_us_p50", "us", "lower"},
	{"platform.analytics_us_p50", "us", "lower"},
	{"platform.allocs_per_session", "count", "lower"},
	{"platform.heap_kb_per_session", "KiB", "lower"},
	{"platform.snapshot_ms", "ms", "lower"},
	{"platform.reopen_ms", "ms", "lower"},
	// Socket-side tails per endpoint: too unsteady to gate.
	{"platform.join_p99_ms", "ms", "lower"},
	{"platform.tests_p99_ms", "ms", "lower"},
	{"platform.video_p99_ms", "ms", "lower"},
	{"platform.events_p99_ms", "ms", "lower"},
	{"platform.response_p99_ms", "ms", "lower"},
	{"platform.results_miss_p99_ms", "ms", "lower"},
	{"platform.results_hit_p99_ms", "ms", "lower"},
	{"platform.analytics_p99_ms", "ms", "lower"},
	{"platform.max_ms", "ms", "lower"},
	{"wire.decode_ns_per_record", "ns", "lower"},
	{"wire.encode_ns_per_record", "ns", "lower"},
	{"wire.bytes_per_record", "B", "lower"},
	{"wire.decode_allocs_per_batch", "count", "lower"},
	{"store.append_us_p50", "us", "lower"},
	{"store.fsync_ms_p50", "ms", "lower"},
	{"store.fsyncs_per_session", "count", "lower"},
	{"store.window_records_mean", "count", "higher"},
	{"store.records_per_session", "count", "lower"},
	{"store.bytes_per_record", "B", "lower"},
	{"store.disk_bytes_per_session", "B", "lower"},
	{"store.snapshots", "count", "lower"},
	{"store.replay_ns_per_record", "ns", "lower"},
	{"quality.observe_ns_per_trace", "ns", "lower"},
	{"quality.complete_ns", "ns", "lower"},
	{"quality.bands_us", "us", "lower"},
	{"filtering.clean_us_per_ksession", "us", "lower"},
	{"adaptive.complete_ns", "ns", "lower"},
	{"adaptive.assign_ns", "ns", "lower"},
	{"blob.hit_ratio", "ratio", "higher"},
	{"blob.evictions_per_kget", "count", "lower"},
	{"blob.bytes_hit_ns", "ns", "lower"},
	{"blob.open_miss_us", "us", "lower"},
	{"blob.put_mb_per_s", "MB/s", "higher"},
	{"telemetry.observe_ns", "ns", "lower"},
	{"telemetry.render_us", "us", "lower"},
	{"trace.start_finish_ns", "ns", "lower"},
	{"cluster.ring_owner_ns", "ns", "lower"},
}

func unitOf(name string) string {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
