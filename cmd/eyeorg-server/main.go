// Command eyeorg-server runs the Eyeorg web service (the HTTP JSON API of
// https://eyeorg.net): campaign management, session assignment, video
// serving, engagement ingestion, response collection, filtered results,
// live quality analytics (GET /api/v1/campaigns/{id}/analytics), and
// operational telemetry (GET /metrics, Prometheus text format).
//
// Usage:
//
//	eyeorg-server -addr :8080
//	eyeorg-server -addr :8080 -data-dir ./eyeorg-data -shards 64
//	eyeorg-server -addr :8080 -max-inflight 256 -worker-rate 20
//	eyeorg-server -addr :8080 -trace-sample 0.01 -trace-slow 50ms -debug-addr :8081
//
// With -data-dir every mutation is journaled to a segmented write-ahead
// log (wal-*.seg) with periodic snapshots (snap-*.snap); restarting the
// server over the same directory recovers the exact pre-crash state,
// including byte-identical /results. -shards sets the lock sharding of
// the in-memory indexes (rounded up to a power of two). Concurrent
// mutations share one journal flush window, acked once the window
// reaches the OS; -fsync makes that an fdatasync of the window, so every
// mutation is on disk before its response.
//
// Admission control protects the service from crowd spikes:
// -max-inflight caps concurrently served requests (excess gets 429 +
// Retry-After), -worker-rate token-buckets each session's request rate
// on the session-scoped endpoints, and -max-body caps JSON ingest
// bodies (oversize gets 413). On SIGINT/SIGTERM the server drains:
// new sessions are refused with 503 while participants mid-assignment
// keep submitting, until no session is in flight (or -drain-timeout
// passes); then the listener shuts down and the journal — including a
// pending group-commit window — is flushed by Close.
//
// -adaptive turns campaigns sequential (VidPlat-style): the platform
// keeps a 95% confidence interval per video over kept sessions, steers
// each new assignment at the under-sampled / widest-interval videos,
// and closes the campaign — new joins get 409 — once every interval is
// at most -ci-halfwidth (seconds for timeline campaigns, preference
// score for A/B). -adaptive-seed fixes the small-sample bootstrap so
// stopping decisions are reproducible; /analytics gains a "stopping"
// block reporting per-video intervals and resolution.
//
// Video payloads live in a content-addressed blob store (deduplicated
// by SHA-256, served with strong ETags, 304s and Range requests). With
// -data-dir they persist as blob files, each served from a read-only
// mapping of its file, so the kernel's page cache is the video cache;
// without it they are held in memory.
//
// Observability: -trace-sample and/or -trace-slow enable end-to-end
// ingest tracing — every request is stamped through the explicit stage
// pipeline (receive → admission → decode → lock wait → journal append →
// apply → flush → fsync → ack → write), sampled traces are retained in
// a ring, requests slower than -trace-slow are always kept and logged,
// and per-stage latency histograms appear on /metrics. -debug-addr
// opens a second listener carrying the operational surface —
// net/http/pprof under /debug/pprof/, expvar under /debug/vars, and
// the trace ring under GET /debug/traces (and /debug/traces/{id}).
// Retained traces name campaigns and sessions, so the trace surface
// serves only there, never on the public address; -debug-addr must
// differ from -addr.
// Logs go to stderr through log/slog; -log-format selects text (human)
// or json (machine) records.
//
// Seed a campaign and a video, then take a test:
//
//	curl -X POST localhost:8080/api/v1/campaigns \
//	     -d '{"name":"demo","kind":"timeline"}'
//	webpeg -sites 1 && curl -X POST --data-binary @captures/site-000.eyv \
//	     localhost:8080/api/v1/campaigns/c1/videos
//	curl -X POST localhost:8080/api/v1/sessions \
//	     -d '{"campaign":"c1","worker":{"id":"w1"},"captcha":"tok"}'
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/platform"
)

// config is the parsed command line: the platform's options, bound to
// their flags directly, and what only this binary reads.
type config struct {
	platform                   platform.Options
	addr, debugAddr, logFormat string
	drainTimeout               time.Duration
}

// newFlags declares the command line. docs/OPERATIONS.md tabulates it,
// and TestDocsFlagsRegistered holds the two together.
func newFlags() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("eyeorg-server", flag.ExitOnError)
	c := &config{}
	o := &c.platform
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.DataDir, "data-dir", "", "journal + snapshot directory (default in-memory)")
	fs.IntVar(&o.Shards, "shards", 0, "index shard count, rounded to a power of two (0 = default)")
	fs.BoolVar(&o.Fsync, "fsync", false, "fdatasync each journal flush window before acking its mutations")
	fs.IntVar(&o.SnapshotEvery, "snapshot-every", 0, "journal records between snapshots (0 = default, <0 = never)")
	fs.IntVar(&o.MaxInFlight, "max-inflight", 0, "cap on concurrently served API requests; excess gets 429 (0 = unlimited)")
	fs.Float64Var(&o.WorkerRate, "worker-rate", 0, "per-session request rate cap in req/s on session endpoints; excess gets 429 (0 = unlimited)")
	fs.IntVar(&o.WorkerBurst, "worker-burst", 0, "per-session token-bucket burst (0 = 2x rate)")
	fs.Int64Var(&o.MaxBodyBytes, "max-body", 0, fmt.Sprintf("JSON ingest body cap in bytes; oversize gets 413 (0 = %d MiB)", platform.DefaultMaxBodyBytes>>20))
	fs.Float64Var(&o.TraceSample, "trace-sample", 0, "fraction of requests retained as stage-attributed traces on /debug/traces (0 = tracing off unless -trace-slow)")
	fs.DurationVar(&o.TraceSlow, "trace-slow", 0, "always retain and log requests at least this slow (0 = off)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "separate listener for /debug/pprof, /debug/vars and /debug/traces (empty = off; must differ from -addr)")
	fs.StringVar(&c.logFormat, "log-format", "text", "log record format: text or json")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 15*time.Second, "how long a drain waits for in-flight sessions to complete")
	fs.BoolVar(&o.Adaptive, "adaptive", false, "sequential campaigns: steer assignments by per-video confidence intervals and close campaigns (409 joins) once every video resolves")
	fs.Float64Var(&o.CIHalfWidth, "ci-halfwidth", 0, fmt.Sprintf("with -adaptive: target 95%% CI half-width per video — seconds (timeline) or preference score (ab); 0 = %g", adaptive.DefaultHalfWidth))
	fs.Int64Var(&o.AdaptiveSeed, "adaptive-seed", 0, "with -adaptive: seed for the deterministic small-sample bootstrap")
	return fs, c
}

func main() {
	fs, c := newFlags()
	fs.Parse(os.Args[1:]) // ExitOnError: a bad command line never returns

	logger, err := newLogger(os.Stderr, c.logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eyeorg-server: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	if err := validateAddrs(c.addr, c.debugAddr); err != nil {
		logger.Error("invalid listen configuration", "err", err)
		os.Exit(2)
	}

	c.platform.Logger = logger
	api, err := platform.Open(c.platform)
	if err != nil {
		logger.Error("opening platform store", "err", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		api.Close()
		logger.Error("listening failed", "addr", c.addr, "err", err)
		os.Exit(1)
	}
	if c.platform.DataDir != "" {
		logger.Info("persisting", "dir", c.platform.DataDir)
	}
	if c.debugAddr != "" {
		dln, err := net.Listen("tcp", c.debugAddr)
		if err != nil {
			api.Close()
			logger.Error("debug listener failed", "addr", c.debugAddr, "err", err)
			os.Exit(1)
		}
		dsrv := &http.Server{Handler: newDebugHandler(api), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := dsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener stopped", "err", err)
			}
		}()
		logger.Info("serving debug surface", "addr", dln.Addr().String())
	}
	logger.Info("serving the Eyeorg API", "addr", ln.Addr().String())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	if err := run(api, newHTTPServer(api.Handler()), ln, sigc, c.drainTimeout); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger in the requested record format.
func newLogger(w *os.File, format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// validateAddrs refuses to start with the debug surface on the public
// address: pprof and the trace ring must never be one -addr typo away
// from the open internet.
func validateAddrs(addr, debugAddr string) error {
	if debugAddr != "" && debugAddr == addr {
		return fmt.Errorf("-debug-addr %q must differ from -addr", debugAddr)
	}
	return nil
}

// newDebugHandler builds the operational surface served on -debug-addr:
// net/http/pprof, expvar, and — when tracing is enabled — the platform's
// /debug/traces routes.
func newDebugHandler(api *platform.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	if h := api.DebugHandler(); h != nil {
		mux.Handle("/debug/traces", h)
		mux.Handle("/debug/traces/", h)
	}
	return mux
}

// newHTTPServer wraps the platform handler with the connection
// timeouts a public service needs: slow-header, slow-read and
// slow-write clients all get bounded, and idle keep-alive connections
// are reaped. ReadTimeout is generous because a legitimate video
// upload is tens of megabytes.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// run serves until the listener fails or a signal arrives, then
// executes the drain sequence: stop admitting new sessions (503),
// keep serving participants already mid-assignment until none is in
// flight or drainTimeout passes, shut the HTTP server down (which
// finishes in-flight requests), and flush the journal — Close is what
// forces a pending group-commit window to disk. Factored out of main
// so the drain path is testable with an injected signal channel.
func run(api *platform.Server, srv *http.Server, ln net.Listener, sigc <-chan os.Signal, drainTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		api.Close()
		return err
	case sig := <-sigc:
		slog.Info("draining on signal", "signal", sig.String(), "sessions_in_flight", api.SessionsInFlight())
		api.StartDrain()
		awaitDrain(api, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			slog.Error("shutdown failed", "err", err)
		}
	}
	return api.Close()
}

// drainIdleGrace is how long a drain tolerates zero progress — no
// session completing, no request being served — before concluding the
// remaining sessions are abandoned and further waiting buys nothing.
const drainIdleGrace = 2 * time.Second

// awaitDrain waits for in-flight sessions to finish, bounded two ways:
// the hard drainTimeout, and a quiescence check. A crowd always
// abandons some sessions mid-assignment and those never complete, so
// "wait for zero in flight" alone would turn every restart into a full
// drainTimeout stall; instead the wait also ends once nothing has made
// progress for drainIdleGrace: no session completing and no request
// being served.
func awaitDrain(api *platform.Server, drainTimeout time.Duration) {
	deadline := time.Now().Add(drainTimeout)
	idleSince := time.Now()
	last := api.SessionsInFlight()
	for {
		n := api.SessionsInFlight()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			slog.Warn("drain timeout", "sessions_in_flight", n)
			return
		}
		if n != last || api.RequestsInFlight() > 0 {
			last, idleSince = n, time.Now()
		} else if time.Since(idleSince) >= drainIdleGrace {
			slog.Info("drain quiesced with sessions abandoned", "sessions_in_flight", n, "idle_grace", drainIdleGrace)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
