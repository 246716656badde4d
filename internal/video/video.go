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
// Each frame is walked twice: once to count its runs and the bytes they
// encode to, so the output is allocated once at its exact size, and once
// to write them. The run counts of up to 128 frames wait on the stack.
func Encode(v *Video) []byte {
	var stack [128]int
	runs := stack[:0]
	size := len(magic) + uvarintLen(uint64(v.FPS)) + uvarintLen(uint64(len(v.Frames)))
	for _, f := range v.Frames {
		n, b := countRuns(f)
		runs = append(runs, n)
		size += uvarintLen(uint64(n)) + b
	}
	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(v.FPS))
	buf = binary.AppendUvarint(buf, uint64(len(v.Frames)))
	for i, f := range v.Frames {
		buf = appendFrameRLE(buf, f, runs[i])
	}
	return buf
}

// countRuns is a frame's first walk: its run count and the bytes its
// (value, length) pairs encode to.
func countRuns(f *vision.Frame) (runs, size int) {
	const total = vision.GridW * vision.GridH
	for i := 0; i < total; {
		v := f.At(i%vision.GridW, i/vision.GridW)
		j := i + 1
		for j < total && f.At(j%vision.GridW, j/vision.GridW) == v {
			j++
		}
		runs++
		size += uvarintLen(uint64(v)) + uvarintLen(uint64(j-i))
		i = j
	}
	return runs, size
}

// uvarintLen is the length of x's binary.AppendUvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func appendFrameRLE(buf []byte, f *vision.Frame, runs int) []byte {
	total := vision.GridW * vision.GridH
	buf = binary.AppendUvarint(buf, uint64(runs))
	i := 0
	for i < total {
		v := f.At(i%vision.GridW, i/vision.GridW)
		j := i + 1
		for j < total && f.At(j%vision.GridW, j/vision.GridW) == v {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(v))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		i = j
	}
	return buf
}

// ErrCorrupt reports an undecodable video payload.
var ErrCorrupt = errors.New("video: corrupt encoding")

// Decode reverses Encode.
func Decode(data []byte) (*Video, error) {
	v := &Video{}
	fps, err := walk(data, func(frame int, val uint64, pos, n int) {
		if frame == len(v.Frames) {
			v.Frames = append(v.Frames, vision.NewFrame())
		}
		f := v.Frames[frame]
		for k := pos; k < pos+n; k++ {
			f.Set(k%vision.GridW, k/vision.GridW, vision.Tile(val))
		}
	})
	if err != nil {
		return nil, err
	}
	v.FPS = fps
	return v, nil
}

// Validate reports whether Decode would accept data, by the same walk
// over the container, without building a frame.
func Validate(data []byte) error {
	_, err := walk(data, nil)
	return err
}

// walk checks data against the EYV1 container — magic, frame rate and
// frame-count bounds, every run non-empty and inside its frame, every
// frame exactly covered — and returns the frame rate. It is the one
// definition of a valid payload that Decode and Validate share. visit,
// when non-nil, gets each run that covers tiles: n tiles of value val
// from tile pos of the given frame. Every frame walk gets past had such
// a run, so frames arrive in order, none skipped.
func walk(data []byte, visit func(frame int, val uint64, pos, n int)) (int, error) {
	if len(data) < 6 || [4]byte(data[:4]) != magic {
		return 0, ErrCorrupt
	}
	rest, ok := data[4:], true
	uvarint := func() uint64 {
		x, n := binary.Uvarint(rest)
		if n <= 0 {
			ok = false
			return 0
		}
		rest = rest[n:]
		return x
	}
	const maxFrames = 1 << 20
	fps, frames := uvarint(), uvarint()
	if !ok || fps == 0 || fps > 240 || frames > maxFrames {
		return 0, ErrCorrupt
	}
	const total = vision.GridW * vision.GridH
	for frame := 0; frame < int(frames); frame++ {
		runs, pos := uvarint(), 0
		for r := uint64(0); ok && r < runs; r++ {
			val, length := uvarint(), uvarint()
			// A length past the int range converts to a negative count:
			// a run that covers nothing, and is accepted.
			n := int(length)
			if !ok || length == 0 || pos+n > total {
				return 0, ErrCorrupt
			}
			if n > 0 {
				if visit != nil {
					visit(frame, val, pos, n)
				}
				pos += n
			}
		}
		if !ok || pos != total {
			return 0, ErrCorrupt
		}
	}
	return int(fps), nil
}
