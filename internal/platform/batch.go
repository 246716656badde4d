// Binary batch ingest: the wire-protocol (EYB1) side of
// POST /api/v1/sessions/{id}/events.
//
// Content-type negotiation picks the decoder: application/x-eyeorg-batch
// bodies carry a whole session's buffered interactions in one
// length-prefixed binary batch (see internal/wire), anything else stays
// on the JSON path. A batch rides the same pipeline as JSON events —
// trace stages, admission, one journal record, group commit — but
// applies all its records under ONE session-shard lock acquisition, and
// admission charges the worker's token bucket per decoded record, so a
// 500-event batch costs 500 tokens, not 1.
//
// Equivalence with the JSON path is by construction: a JSON EventBatch
// is applied as the records AppendWireRecords converts it to, through
// the state's one applyRecords. FuzzServerVsModel holds both protocols
// to the state's reference model.
package platform

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// defaultMaxBatchRecords caps how many records one binary batch may
// carry; an oversize batch gets 413 after decode, before anything is
// journaled.
const defaultMaxBatchRecords = 4096

// isWireBatch reports whether the request negotiated the binary batch
// encoding (media-type parameters tolerated).
func isWireBatch(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == wire.ContentType || strings.HasPrefix(ct, wire.ContentType+";")
}

// AppendWireRecords converts one JSON-shaped EventBatch into its wire
// records and appends them to dst, as the JSON events path applies it
// (state.AppendWireRecords), so a batch ingested over either protocol
// lands identical durations. Clients that send EYB1 batches, such as the
// repository benchmark's driver and the differential suite, build their
// records with it.
func AppendWireRecords(dst []wire.Record, b EventBatch) []wire.Record {
	return state.AppendWireRecords(dst, b)
}

// handleEventsBinary ingests one EYB1 batch. The pooled decoder reads
// the capped body into its reusable buffer and decodes in place — zero
// allocations per record at steady state — then the whole batch
// travels as ONE journal record (the raw wire bytes) and applies under
// one session-shard lock acquisition, so replay is atomic: a crash
// mid-request either keeps every record of the batch or none.
func (s *Server) handleEventsBinary(w *scratch, r *http.Request) {
	tr := w.tr
	tr.Mark(trace.StageReceive)
	id := w.id
	tr.SetSession(id)
	defer r.Body.Close()
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	// MaxBytesReader must see net/http's own writer to close the
	// connection on overflow, not the scratch wrapping it, as in readJSON.
	recs, err := dec.DecodeFrom(http.MaxBytesReader(w.ResponseWriter, r.Body, s.maxBody))
	if err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	tr.Mark(trace.StageDecode)
	if len(recs) > s.maxBatch {
		s.reject(w, http.StatusRequestEntityTooLarge, "body",
			fmt.Sprintf("batch of %d records exceeds the %d-record cap", len(recs), s.maxBatch),
			time.Second)
		return
	}
	// Admission charges per decoded record, not per request: the
	// instrument() middleware already took one token for the request;
	// every record past the first costs one more, so a batch of N and
	// N single-event posts drain the worker's bucket identically.
	if s.admission.rate > 0 && len(recs) > 1 {
		if ok, wait := s.admission.admitN(id, float64(len(recs)-1)); !ok {
			s.reject(w, http.StatusTooManyRequests, "worker-rate",
				"per-worker rate exceeded", wait)
			return
		}
	}
	ev := &w.ev
	*ev = state.Event{Op: state.OpBatch, ID: id, Wire: dec.Bytes(), Records: recs}
	if _, err := s.mutate(ev, tr); err != nil {
		s.writeStateErr(w, err)
		return
	}
	w.buf = appendBatchAck(w.buf[:0], len(recs))
	writeBody(w, http.StatusAccepted, w.buf)
}
