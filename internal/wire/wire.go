// Package wire implements the EYB1 binary batch encoding for event
// ingest: one POST body carries a whole session's buffered
// interactions, the way a real JS client flushes.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic   "EYB1" (4 bytes)
//	kinds   count, then count × (len, bytes)   — record-kind name table
//	videos  count, then count × (len, bytes)   — video-ID string table
//	records count, then count × record
//
//	record  bodyLen, then body:
//	  kindIdx                                  — into the kind table
//	  kind "instruction":
//	    zigzag instruction nanoseconds
//	  kind "engagement":
//	    videoIdx                               — into the video table
//	    zigzag delta load ns                   — vs previous engagement record
//	    zigzag delta time-on-video ns
//	    zigzag delta out-of-focus ns
//	    zigzag plays, pauses, seeks
//	    8 bytes LE IEEE-754 watched fraction
//
// Record kinds travel by name in the table (so the format can grow
// kinds without renumbering) and by index in each record. Duration
// fields are nanosecond integers — the encoder side converts from
// float milliseconds with the exact arithmetic the JSON apply path
// uses, which is what makes the two protocols equivalent by
// construction. The three per-record duration fields are delta-encoded
// against the previous engagement record: successive batches from one
// session have similar magnitudes, so the zigzag varints stay short.
//
// Decoding is allocation-free at steady state: a Decoder owns its
// record slice, table scratch and a string intern cache, and is
// recycled through a package pool (GetDecoder/PutDecoder). The intern
// cache means a video ID allocates once per decoder, not once per
// record — testing.AllocsPerRun pins the warm path at 0 allocs.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ContentType is the media type that selects this encoding on
// POST /api/v1/sessions/{id}/events.
const ContentType = "application/x-eyeorg-batch"

// magic opens every batch.
const magic = "EYB1"

// Kind identifies what a Record carries.
type Kind uint8

const (
	// KindInstruction sets the session's instruction-reading time.
	KindInstruction Kind = iota + 1
	// KindEngagement reports one video's engagement instrumentation.
	KindEngagement

	kindMax = KindEngagement
)

// Wire names for the kind table.
const (
	kindNameInstruction = "instruction"
	kindNameEngagement  = "engagement"
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindInstruction:
		return kindNameInstruction
	case KindEngagement:
		return kindNameEngagement
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// kindFromName maps a table entry to its enum value. The switch on
// string(b) compiles to an allocation-free comparison.
func kindFromName(b []byte) (Kind, bool) {
	switch string(b) {
	case kindNameInstruction:
		return KindInstruction, true
	case kindNameEngagement:
		return KindEngagement, true
	}
	return 0, false
}

// Record is one decoded batch entry. Duration fields are nanoseconds;
// only the fields of the record's Kind are meaningful.
type Record struct {
	Kind Kind

	// KindInstruction.
	InstructionNs int64

	// KindEngagement.
	VideoID         string
	LoadNs          int64
	TimeOnVideoNs   int64
	OutOfFocusNs    int64
	Plays           int
	Pauses          int
	Seeks           int
	WatchedFraction float64
}

// Format hardening limits: a decoder refuses anything beyond these
// before allocating, so fuzzed headers cannot demand giant buffers.
const (
	maxKinds   = 64
	maxVideos  = 1 << 16
	maxRecords = 1 << 20
	maxString  = 1024
)

// Decode errors.
var (
	ErrMagic     = errors.New("wire: bad magic (not an EYB1 batch)")
	ErrTruncated = errors.New("wire: truncated batch")
	ErrCorrupt   = errors.New("wire: corrupt batch")
)

// --- encoding ---

// Encoder holds reusable intern state for AppendBatch. The zero value
// is ready; one Encoder is not safe for concurrent use.
type Encoder struct {
	vidIdx  map[string]int
	vids    []string
	kindIdx [kindMax + 1]int
	kinds   []Kind
}

// AppendBatch appends the EYB1 encoding of recs to dst and returns the
// extended slice. Table order is first-use order, so the same record
// sequence always encodes to the same bytes.
func (e *Encoder) AppendBatch(dst []byte, recs []Record) []byte {
	if e.vidIdx == nil {
		e.vidIdx = make(map[string]int, 16)
	}
	clear(e.vidIdx)
	e.vids = e.vids[:0]
	for i := range e.kindIdx {
		e.kindIdx[i] = -1
	}
	e.kinds = e.kinds[:0]
	for i := range recs {
		r := &recs[i]
		if r.Kind == 0 || r.Kind > kindMax {
			panic(fmt.Sprintf("wire: cannot encode unknown record kind %d", r.Kind))
		}
		if e.kindIdx[r.Kind] < 0 {
			e.kindIdx[r.Kind] = len(e.kinds)
			e.kinds = append(e.kinds, r.Kind)
		}
		if r.Kind == KindEngagement {
			if _, ok := e.vidIdx[r.VideoID]; !ok {
				e.vidIdx[r.VideoID] = len(e.vids)
				e.vids = append(e.vids, r.VideoID)
			}
		}
	}
	dst = append(dst, magic...)
	dst = binary.AppendUvarint(dst, uint64(len(e.kinds)))
	for _, k := range e.kinds {
		name := k.String()
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.vids)))
	for _, v := range e.vids {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	// Worst-case engagement body: 2 indexes + 6 ten-byte varints + the
	// fraction — comfortably inside 96 bytes, so the scratch never grows.
	var body [96]byte
	var prevLoad, prevTov, prevOof int64
	for i := range recs {
		r := &recs[i]
		b := body[:0]
		b = binary.AppendUvarint(b, uint64(e.kindIdx[r.Kind]))
		switch r.Kind {
		case KindInstruction:
			b = AppendZigzag(b, r.InstructionNs)
		case KindEngagement:
			b = binary.AppendUvarint(b, uint64(e.vidIdx[r.VideoID]))
			b = AppendZigzag(b, r.LoadNs-prevLoad)
			b = AppendZigzag(b, r.TimeOnVideoNs-prevTov)
			b = AppendZigzag(b, r.OutOfFocusNs-prevOof)
			prevLoad, prevTov, prevOof = r.LoadNs, r.TimeOnVideoNs, r.OutOfFocusNs
			b = AppendZigzag(b, int64(r.Plays))
			b = AppendZigzag(b, int64(r.Pauses))
			b = AppendZigzag(b, int64(r.Seeks))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.WatchedFraction))
		}
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// AppendBatch is the one-shot form of Encoder.AppendBatch.
func AppendBatch(dst []byte, recs []Record) []byte {
	var e Encoder
	return e.AppendBatch(dst, recs)
}

// AppendZigzag appends v as a zigzag varint, the signed-integer form
// every EYB1 field uses.
func AppendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// --- decoding ---

// internCap bounds the decoder's video-ID intern cache so adversarial
// clients cycling fresh IDs cannot grow a pooled decoder without
// bound; past the cap the cache resets and the next batch re-interns.
const internCap = 4096

// Decoder decodes EYB1 batches without allocating at steady state. The
// record slice it returns is owned by the Decoder and valid until the
// next Decode (or PutDecoder). Not safe for concurrent use; recycle
// through GetDecoder/PutDecoder.
type Decoder struct {
	recs   []Record
	kinds  []Kind
	vids   []string
	intern map[string]string
	buf    []byte
}

// NewDecoder returns a ready Decoder. Most callers want GetDecoder.
func NewDecoder() *Decoder {
	return &Decoder{intern: make(map[string]string, 16)}
}

var decPool = sync.Pool{New: func() any { return NewDecoder() }}

// GetDecoder takes a pooled decoder.
func GetDecoder() *Decoder { return decPool.Get().(*Decoder) }

// PutDecoder recycles d; the records of its last Decode must no longer
// be referenced.
func PutDecoder(d *Decoder) { decPool.Put(d) }

// internStr returns the cached string for b, allocating only the first
// time this decoder sees it. Map lookups keyed string(b) do not
// allocate on hit.
func (d *Decoder) internStr(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	if len(d.intern) >= internCap {
		clear(d.intern)
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// Bytes returns the raw batch read by the last DecodeFrom, so callers
// can journal the exact wire payload they decoded. Valid until the
// next DecodeFrom on this decoder.
func (d *Decoder) Bytes() []byte { return d.buf }

// DecodeFrom reads r to EOF into the decoder's reusable buffer and
// decodes it. Read errors (including http.MaxBytesError from a capped
// body) pass through verbatim.
func (d *Decoder) DecodeFrom(r io.Reader) ([]Record, error) {
	d.buf = d.buf[:0]
	for {
		if len(d.buf) == cap(d.buf) {
			d.buf = append(d.buf, 0)[:len(d.buf)]
		}
		n, err := r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return d.Decode(d.buf)
}

// Decode parses one batch. The returned records alias the decoder's
// internal storage; copy anything that must outlive the next Decode.
func (d *Decoder) Decode(data []byte) ([]Record, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, ErrMagic
	}
	p := Parser{Rest: data[len(magic):]}

	nKinds := p.Uvarint()
	if p.Err == nil && nKinds > maxKinds {
		return nil, fmt.Errorf("%w: %d record kinds (max %d)", ErrCorrupt, nKinds, maxKinds)
	}
	d.kinds = d.kinds[:0]
	for i := uint64(0); p.Err == nil && i < nKinds; i++ {
		name := p.Bytes(maxString)
		if p.Err != nil {
			break
		}
		k, ok := kindFromName(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, name)
		}
		d.kinds = append(d.kinds, k)
	}

	nVids := p.Uvarint()
	if p.Err == nil && nVids > maxVideos {
		return nil, fmt.Errorf("%w: %d video IDs (max %d)", ErrCorrupt, nVids, maxVideos)
	}
	d.vids = d.vids[:0]
	for i := uint64(0); p.Err == nil && i < nVids; i++ {
		d.vids = append(d.vids, d.internStr(p.Bytes(maxString)))
	}

	nRecs := p.Uvarint()
	if p.Err == nil && (nRecs > maxRecords || nRecs > uint64(len(p.Rest))) {
		return nil, fmt.Errorf("%w: record count %d exceeds payload", ErrCorrupt, nRecs)
	}
	if p.Err != nil {
		return nil, p.Err
	}
	if cap(d.recs) < int(nRecs) {
		d.recs = make([]Record, nRecs)
	}
	d.recs = d.recs[:nRecs]
	var prevLoad, prevTov, prevOof int64
	for i := range d.recs {
		body := p.Bytes(len(p.Rest))
		if p.Err != nil {
			return nil, p.Err
		}
		rp := Parser{Rest: body}
		rec := &d.recs[i]
		*rec = Record{}
		kindIdx := rp.Uvarint()
		if rp.Err == nil && kindIdx >= uint64(len(d.kinds)) {
			return nil, fmt.Errorf("%w: kind index %d out of table", ErrCorrupt, kindIdx)
		}
		if rp.Err != nil {
			return nil, rp.Err
		}
		rec.Kind = d.kinds[kindIdx]
		switch rec.Kind {
		case KindInstruction:
			rec.InstructionNs = rp.Zigzag()
		case KindEngagement:
			vidIdx := rp.Uvarint()
			if rp.Err == nil && vidIdx >= uint64(len(d.vids)) {
				return nil, fmt.Errorf("%w: video index %d out of table", ErrCorrupt, vidIdx)
			}
			if rp.Err != nil {
				return nil, rp.Err
			}
			rec.VideoID = d.vids[vidIdx]
			prevLoad += rp.Zigzag()
			prevTov += rp.Zigzag()
			prevOof += rp.Zigzag()
			rec.LoadNs, rec.TimeOnVideoNs, rec.OutOfFocusNs = prevLoad, prevTov, prevOof
			rec.Plays = int(rp.Zigzag())
			rec.Pauses = int(rp.Zigzag())
			rec.Seeks = int(rp.Zigzag())
			rec.WatchedFraction = math.Float64frombits(rp.fixed64())
		}
		if rp.Err != nil {
			return nil, rp.Err
		}
		if len(rp.Rest) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in record %d", ErrCorrupt, len(rp.Rest), i)
		}
	}
	if len(p.Rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last record", ErrCorrupt, len(p.Rest))
	}
	return d.recs, nil
}

// Parser walks a byte slice with a sticky error, so decode loops check
// once per record instead of once per field: after the first failure
// every read returns zero and Err stays set. Other packages build their
// own varint records on it (the platform's frozen session records).
type Parser struct {
	Rest []byte
	Err  error
}

// Uvarint reads one unsigned varint.
func (p *Parser) Uvarint() uint64 {
	if p.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.Rest)
	if n <= 0 {
		p.Err = ErrTruncated
		return 0
	}
	p.Rest = p.Rest[n:]
	return v
}

// Zigzag reads one zigzag varint (see AppendZigzag).
func (p *Parser) Zigzag() int64 {
	u := p.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads a length-prefixed field of at most limit bytes. The result
// aliases the input.
func (p *Parser) Bytes(limit int) []byte {
	n := p.Uvarint()
	if p.Err != nil {
		return nil
	}
	if n > uint64(limit) || n > uint64(len(p.Rest)) {
		p.Err = ErrTruncated
		return nil
	}
	b := p.Rest[:n]
	p.Rest = p.Rest[n:]
	return b
}

func (p *Parser) fixed64() uint64 {
	if p.Err != nil {
		return 0
	}
	if len(p.Rest) < 8 {
		p.Err = ErrTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(p.Rest)
	p.Rest = p.Rest[8:]
	return v
}
