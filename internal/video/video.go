// Package video is the page-load video Eyeorg shows participants (§3.1)
// and its EYV1 container: fixed-fps frame sequences on the vision
// raster, with the operations the platform needs — side-by-side
// splicing for A/B tests, artificial start delays for control questions,
// a compact run-length codec standing in for webm, and a transfer-size
// model for the participant-side download times that drive engagement
// (Figure 5). Frames come from elsewhere (webpeg renders a simulated
// load's paint timeline); the platform only validates and serves the
// encoded bytes.
package video

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/vision"
)

// DefaultFPS is the capture rate webpeg records at. 10 fps gives 100 ms
// scrubbing granularity, matching the slider precision participants get.
const DefaultFPS = 10

// Video is an immutable-by-convention frame sequence at a fixed rate.
// Frames[0] is the state at t=0 (always blank for a fresh navigation).
type Video struct {
	FPS    int
	Frames []*vision.Frame

	// webm memoizes WebmBytes, 0 until the first call (the model never
	// goes below its container cost). It is why the frames must not
	// change once a video is in use.
	webm atomic.Int64
}

// Duration returns the video length.
func (v *Video) Duration() time.Duration {
	if v.FPS <= 0 {
		return 0
	}
	return time.Duration(len(v.Frames)) * v.FrameDuration()
}

// FrameDuration returns the duration of one frame.
func (v *Video) FrameDuration() time.Duration {
	return time.Second / time.Duration(v.FPS)
}

// FrameIndexAt returns the index of the frame visible at offset t,
// clamped to the video bounds.
func (v *Video) FrameIndexAt(t time.Duration) int {
	if len(v.Frames) == 0 {
		return 0
	}
	idx := int(t / v.FrameDuration())
	if idx < 0 {
		idx = 0
	}
	if idx >= len(v.Frames) {
		idx = len(v.Frames) - 1
	}
	return idx
}

// FrameTime returns the timestamp of frame idx.
func (v *Video) FrameTime(idx int) time.Duration {
	return time.Duration(idx) * v.FrameDuration()
}

// FinalFrame returns the last frame (the settled page state).
func (v *Video) FinalFrame() *vision.Frame {
	if len(v.Frames) == 0 {
		return vision.NewFrame()
	}
	return v.Frames[len(v.Frames)-1]
}

// WithStartDelay returns a copy whose content starts d later; the first
// frame is frozen during the delay. Eyeorg's A/B control questions show
// the same load with one side delayed three seconds (§3.3).
func (v *Video) WithStartDelay(d time.Duration) *Video {
	if d <= 0 || len(v.Frames) == 0 {
		return &Video{FPS: v.FPS, Frames: append([]*vision.Frame(nil), v.Frames...)}
	}
	pad := int(d / v.FrameDuration())
	frames := make([]*vision.Frame, 0, pad+len(v.Frames))
	for i := 0; i < pad; i++ {
		frames = append(frames, v.Frames[0])
	}
	frames = append(frames, v.Frames...)
	return &Video{FPS: v.FPS, Frames: frames}
}

// SideBySide splices two videos into a single synchronized video: left
// half shows a, right half shows b. The shorter side holds its final
// frame. Splicing guarantees that a playback stall affects both loads
// equally (§3.2).
func SideBySide(a, b *Video) (*Video, error) {
	if a.FPS != b.FPS {
		return nil, fmt.Errorf("video: fps mismatch %d vs %d", a.FPS, b.FPS)
	}
	n := len(a.Frames)
	if len(b.Frames) > n {
		n = len(b.Frames)
	}
	frames := make([]*vision.Frame, n)
	for i := 0; i < n; i++ {
		fa := frameOrLast(a, i)
		fb := frameOrLast(b, i)
		frames[i] = vision.SideBySide(fa, fb)
	}
	return &Video{FPS: a.FPS, Frames: frames}, nil
}

func frameOrLast(v *Video, i int) *vision.Frame {
	if i < len(v.Frames) {
		return v.Frames[i]
	}
	return v.FinalFrame()
}

// ChangedTiles counts tile changes across consecutive frames — the codec's
// inter-frame cost and the visual activity measure.
func (v *Video) ChangedTiles() int {
	total := 0
	for i := 1; i < len(v.Frames); i++ {
		total += int(vision.Diff(v.Frames[i-1], v.Frames[i]) * float64(vision.GridW*vision.GridH))
	}
	return total
}

// WebmBytes models the size of the equivalent webm file served to
// participants: container overhead, a per-second stream cost, and a cost
// per changed tile (motion). Participant-side download time is
// WebmBytes / participant bandwidth. The size is computed once per
// video: a crowd asks for it on every answer, and ChangedTiles diffs
// every frame pair.
func (v *Video) WebmBytes() int64 {
	if n := v.webm.Load(); n != 0 {
		return n
	}
	n := v.webmBytes()
	v.webm.Store(n)
	return n
}

func (v *Video) webmBytes() int64 {
	const (
		container  = 80_000
		perSecond  = 26_000
		perChanged = 700
	)
	return container +
		int64(v.Duration().Seconds()*perSecond) +
		int64(v.ChangedTiles())*perChanged
}

// --- codec ---

// magic identifies the encoding ("EYeorg Video 1").
var magic = [4]byte{'E', 'Y', 'V', '1'}

// Encode serialises the video with per-frame run-length encoding. The
// format is a stand-in for webm with the property the experiments care
// about: size grows with duration and visual activity.
//
// Each frame's row-major tile array is scanned twice: once to count its
// runs and the bytes they encode to, so the output is allocated once at
// its exact size, and once to write them. The run counts of up to 128
// frames wait on the stack.
func Encode(v *Video) []byte {
	var stack [128]int
	runs := stack[:0]
	size := len(magic) + uvarintLen(uint64(v.FPS)) + uvarintLen(uint64(len(v.Frames)))
	for _, f := range v.Frames {
		n, b := countRuns(f)
		runs = append(runs, n)
		size += uvarintLen(uint64(n)) + b
	}
	buf := make([]byte, size)
	off := copy(buf, magic[:])
	off += binary.PutUvarint(buf[off:], uint64(v.FPS))
	off += binary.PutUvarint(buf[off:], uint64(len(v.Frames)))
	for i, f := range v.Frames {
		off += binary.PutUvarint(buf[off:], uint64(runs[i]))
		off = putRuns(buf, off, f)
	}
	return buf
}

// tiles is the number of tiles in a frame.
const tiles = vision.GridW * vision.GridH

// countRuns is a frame's first scan: its run count and the bytes its
// (value, length) pairs encode to.
func countRuns(f *vision.Frame) (runs, size int) {
	for i := 0; i < tiles; {
		v := f.TileAt(i)
		j := i + 1
		for j < tiles && f.TileAt(j) == v {
			j++
		}
		runs++
		size += uvarintLen(uint64(v)) + uvarintLen(uint64(j-i))
		i = j
	}
	return runs, size
}

// putRuns is a frame's second scan: it writes the frame's (value,
// length) pairs into buf from off and returns the offset past them.
func putRuns(buf []byte, off int, f *vision.Frame) int {
	for i := 0; i < tiles; {
		v := f.TileAt(i)
		j := i + 1
		for j < tiles && f.TileAt(j) == v {
			j++
		}
		off += binary.PutUvarint(buf[off:], uint64(v))
		off += binary.PutUvarint(buf[off:], uint64(j-i))
		i = j
	}
	return off
}

// uvarintLen is the length of x's binary.AppendUvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// ErrCorrupt reports an undecodable video payload.
var ErrCorrupt = errors.New("video: corrupt encoding")

// Decode reverses Encode. It builds each frame from the runs a Checker
// reports as it checks data.
func Decode(data []byte) (*Video, error) {
	v := &Video{}
	c := Checker{visit: func(frame int, val uint64, pos, n int) {
		if frame == len(v.Frames) {
			v.Frames = append(v.Frames, vision.NewFrame())
		}
		v.Frames[frame].Fill(pos, n, vision.Tile(val))
	}}
	c.Write(data)
	fps, err := c.Verdict()
	if err != nil {
		return nil, err
	}
	v.FPS = fps
	return v, nil
}

// Validate reports whether Decode would accept data: one Write to a
// Checker, which builds no frame.
func Validate(data []byte) error {
	var c Checker
	c.Write(data)
	_, err := c.Verdict()
	return err
}

// Container bounds a payload's header must respect.
const (
	maxFPS    = 240
	maxFrames = 1 << 20
)

// Checker checks a payload against the EYV1 container as it arrives —
// magic, frame rate and frame-count bounds, every run non-empty and
// inside its frame, every frame exactly covered — and is the one
// definition of a valid payload: Validate is one Write to a Checker,
// Decode builds frames from the runs one reports, and an upload is
// written to one while it is stored. Write the payload in pieces of any
// size, then ask Verdict. A Checker reads each varint in place; only a
// varint a piece ends inside is carried to the next Write, as the value
// and length of its bytes so far. Bytes past a complete payload are
// accepted and ignored. The zero value is ready to use.
type Checker struct {
	// visit, when non-nil, gets each run that covers tiles: n tiles of
	// value val from tile pos of the given frame. Every frame a Checker
	// gets past had such a run, so frames arrive in order, none skipped.
	visit func(frame int, val uint64, pos, n int)

	next   field  // what the next varint is
	magic  int    // bytes of the magic matched (next == fieldMagic)
	x      uint64 // the carried varint's value so far
	nb     uint   // and how many of its bytes have arrived
	fps    int
	frames int    // frames the header declares
	frame  int    // the frame whose runs are being read
	runs   uint64 // runs of that frame still to read
	pos    int    // tiles of that frame its runs have covered
	val    uint64 // the value of the run whose length is next
}

// field is where a Checker stands in the container.
type field uint8

const (
	fieldMagic field = iota
	fieldFPS
	fieldFrames
	fieldRuns // a frame's run count
	fieldVal  // a run's value
	fieldLen  // a run's length
	fieldDone // a whole payload checked
	fieldBad  // corrupt: the verdict is latched
)

// Write checks the next piece of the payload. It never fails, so a
// Checker can sit behind an io.TeeReader or io.MultiWriter; a corrupt
// payload shows in Verdict.
func (c *Checker) Write(p []byte) (int, error) {
	i := 0
	for ; c.next == fieldMagic && i < len(p); i++ {
		if p[i] != magic[c.magic] {
			c.next = fieldBad
			return len(p), nil
		}
		if c.magic++; c.magic == len(magic) {
			c.next = fieldFPS
		}
	}
	// The walk runs on locals and stores them back once, at the end.
	next, x, nb := c.next, c.x, c.nb
	pos, runs, val := c.pos, c.runs, c.val
	for i < len(p) && next < fieldDone {
		if next == fieldVal && nb == 0 {
			var ok bool
			if i, pos, runs, ok = c.runsInPlace(p, i, pos, runs); !ok {
				next = fieldBad
				break
			}
			if runs == 0 {
				next = c.endFrame(pos)
				continue
			}
			if i == len(p) {
				break
			}
		}
		// Read bytes until one with its high bit clear ends the varint;
		// p may end first, and the varint is carried to the next Write.
		for ; i < len(p) && p[i] >= 0x80; i++ {
			if nb == binary.MaxVarintLen64-1 {
				next = fieldBad // binary.Uvarint's overflow: an 11th byte
				break
			}
			x |= uint64(p[i]&0x7f) << (7 * nb)
			nb++
		}
		if i == len(p) || next == fieldBad {
			break
		}
		b := p[i]
		i++
		// binary.Uvarint's overflow rule: a tenth byte above 1 puts the
		// value past 64 bits.
		if nb == binary.MaxVarintLen64-1 && b > 1 {
			next = fieldBad
			break
		}
		x |= uint64(b) << (7 * nb)
		// x is whole: it completes the field next names.
		switch next {
		case fieldVal:
			val, next = x, fieldLen
		case fieldLen:
			n, ok := span(pos, x)
			if !ok {
				next = fieldBad
				break
			}
			if n > 0 {
				if c.visit != nil {
					c.visit(c.frame, val, pos, n)
				}
				pos += n
			}
			next = fieldVal
			if runs--; runs == 0 {
				next = c.endFrame(pos)
			}
		case fieldRuns:
			runs, pos, next = x, 0, fieldVal
			if runs == 0 {
				next = c.endFrame(pos)
			}
		case fieldFPS:
			next = fieldFrames
			if x == 0 || x > maxFPS {
				next = fieldBad
			}
			c.fps = int(x)
		case fieldFrames:
			next = fieldRuns
			switch {
			case x > maxFrames:
				next = fieldBad
			case x == 0:
				next = fieldDone
			}
			c.frames = int(x)
		}
		x, nb = 0, 0
	}
	c.next, c.x, c.nb = next, x, nb
	c.pos, c.runs, c.val = pos, runs, val
	return len(p), nil
}

// runsInPlace reads whole runs of the current frame from p[i:], having
// covered pos tiles with runs left to read, for as long as both of a
// run's varints surely lie in p and neither is longer than nine bytes:
// the loop a payload spends its time in, with nothing carried. It
// returns where it stopped (before any run it did not read), the tiles
// covered and the runs left, or false for a run that does not fit. Write
// reads a run it leaves a byte at a time.
func (c *Checker) runsInPlace(p []byte, i, pos int, runs uint64) (int, int, uint64, bool) {
	for ; runs > 0 && len(p)-i >= 2*binary.MaxVarintLen64; runs-- {
		val, j, ok := shortUvarint(p, i)
		if !ok {
			break
		}
		length, j, ok := shortUvarint(p, j)
		if !ok {
			break
		}
		i = j
		n, ok := span(pos, length)
		if !ok {
			return i, pos, runs, false
		}
		if n > 0 {
			if c.visit != nil {
				c.visit(c.frame, val, pos, n)
			}
			pos += n
		}
	}
	return i, pos, runs, true
}

// shortUvarint reads the varint at p[i:] in place when it is at most
// nine bytes long (every value below 2^63): its value and the index
// past it. A longer one is left to Write's byte-at-a-time reading, which
// alone applies binary.Uvarint's rule for a tenth byte.
func shortUvarint(p []byte, i int) (uint64, int, bool) {
	var x uint64
	for s := uint(0); s < 63; s += 7 {
		b := p[i]
		i++
		if b < 0x80 {
			return x | uint64(b)<<s, i, true
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, i, false
}

// span is what a run of the given length does to a frame whose runs
// have covered pos tiles: the tiles it covers, or false when it is
// empty or does not fit the tiles the frame has left (compared without
// overflow). A length past the int range converts to a negative count:
// a run that covers nothing, and is accepted.
func span(pos int, length uint64) (int, bool) {
	n := int(length)
	return n, length != 0 && n <= tiles-pos
}

// endFrame closes the frame whose runs are all read, having covered pos
// tiles (they must cover it exactly), and returns the next field.
func (c *Checker) endFrame(pos int) field {
	if pos != tiles {
		return fieldBad
	}
	if c.frame++; c.frame == c.frames {
		return fieldDone
	}
	return fieldRuns
}

// Verdict reports the frame rate of the payload written so far, or
// ErrCorrupt unless it is one whole valid payload (and, perhaps, bytes
// past it).
func (c *Checker) Verdict() (fps int, err error) {
	if c.next != fieldDone {
		return 0, ErrCorrupt
	}
	return c.fps, nil
}
