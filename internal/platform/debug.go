// The request-tracing surface: the trace lifecycle around each
// request, the commit-timing ring that lets a mutation attribute its
// durability wait to flush/fsync/ack, and the GET /debug/traces
// handlers.
//
// Tracing is opt-in (Options.TraceSample / TraceSlow); when enabled,
// every API request is stamped through internal/trace and retained
// when sampled or slower than the threshold. Like /metrics, the
// /debug/traces endpoints sit outside the instrumented set: they must
// answer even at the in-flight cap, and introspection must not show up
// inside the data it serves.
package platform

import (
	"context"
	"log/slog"
	"net/http"
	"sync"

	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/trace"
)

// commitRing retains the timing of recent durability windows,
// published by journalObserver. A mutation that just returned from
// WaitDurable looks its sequence up here; the journal reports a window
// strictly before waking its waiters, so the lookup only misses when
// commitRingSize whole windows landed between wake-up and lookup — in
// which case the trace attributes the wait to ack, never blocks.
type commitRing struct {
	mu  sync.Mutex
	buf [commitRingSize]store.Window
	n   uint64
}

const commitRingSize = 128

func (c *commitRing) publish(w store.Window) {
	c.mu.Lock()
	c.buf[c.n%commitRingSize] = w
	c.n++
	c.mu.Unlock()
}

// lookup finds the window that made seq durable (the zero Window on a
// miss).
func (c *commitRing) lookup(seq uint64) store.Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.n
	if live > commitRingSize {
		live = commitRingSize
	}
	for i := uint64(0); i < live; i++ {
		w := c.buf[(c.n-1-i)%commitRingSize]
		if w.First <= seq && seq <= w.Last {
			return w
		}
	}
	return store.Window{}
}

// startTrace begins a trace for one request when tracing is enabled,
// adopting an inbound traceparent / trace-id identity when the client
// sent one.
func (s *Server) startTrace(route string, r *http.Request) *trace.Trace {
	if s.tracer == nil {
		return nil
	}
	var parent *trace.Parent
	if h := r.Header.Get("traceparent"); h != "" {
		if p, err := trace.ParseHeader(h); err == nil {
			parent = &p
		}
	}
	return s.tracer.Start(route, parent)
}

// observeTrace is the tracer's OnFinish hook: it feeds the per-stage
// latency histograms on /metrics and logs slow traces with their IDs
// so an operator can pull the full breakdown from /debug/traces/{id}.
func (s *Server) observeTrace(tr *trace.Trace) {
	for i, d := range tr.Stages() {
		if d > 0 {
			s.metrics.stages[i].Observe(d)
		}
	}
	if tr.Slow() {
		s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow trace",
			slog.String("trace", tr.ID()),
			slog.String("route", tr.Route()),
			slog.Duration("total", tr.Duration()))
	}
}

// Tracer returns the server's request tracer (nil when tracing is
// disabled) so embedders can snapshot retained traces directly.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// DebugHandler returns the /debug/traces routes, the only place they
// are served: retained traces name campaigns and sessions, so the
// surface belongs on a separate operational listener (alongside
// pprof), never on the public API handler. Nil when tracing is
// disabled.
func (s *Server) DebugHandler() http.Handler {
	if s.tracer == nil {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	return mux
}

// --- /debug/traces handlers ---

// handleTraces serves every retained trace: JSON by default (the
// trace.Report document), the golden-pinned text rendering with
// ?format=text.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	recs := s.tracer.Snapshot()
	// ?route= and ?slow=1 narrow the dump — an operator chasing a
	// durable-ingest regression wants the slow response traces, not
	// every sampled video GET. Snapshot returns a private slice, so
	// filtering in place is safe.
	q := r.URL.Query()
	if route, slow := q.Get("route"), q.Get("slow") == "1"; route != "" || slow {
		kept := recs[:0]
		for _, rec := range recs {
			if route != "" && rec.Route != route {
				continue
			}
			if slow && !rec.Slow {
				continue
			}
			kept = append(kept, rec)
		}
		recs = kept
	}
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = trace.RenderText(w, recs)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.RenderJSON(w, recs)
}

// handleTraceByID serves one retained trace by its hex ID.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.tracer.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such trace")
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = trace.RenderText(w, []trace.Record{rec})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
