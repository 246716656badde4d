package video

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/eyeorg/eyeorg/internal/vision"
)

// walkReference is the whole-buffer container walk the Checker replaced,
// kept as it was: the oracle FuzzCheckerMatchesWalk holds the Checker to.
// It computes a run's end as pos+n, which wraps for a length near the
// int range; the Checker refuses such a run (see
// TestWrappingRunRefused), and that is the one way the two may differ.
func walkReference(data []byte, visit func(frame int, val uint64, pos, n int)) (int, error) {
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

// decodeReference is Decode over walkReference, as it was.
func decodeReference(data []byte) (*Video, error) {
	v := &Video{}
	fps, err := walkReference(data, func(frame int, val uint64, pos, n int) {
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

// encodeReference is Encode as it was before it scanned the tile array:
// every tile read through Frame.At, the run counts of up to 128 frames
// on the stack. FuzzEncodeMatchesReference holds Encode's bytes to it.
func encodeReference(v *Video) []byte {
	var stack [128]int
	runs := stack[:0]
	size := len(magic) + uvarintLen(uint64(v.FPS)) + uvarintLen(uint64(len(v.Frames)))
	for _, f := range v.Frames {
		n, b := countRunsReference(f)
		runs = append(runs, n)
		size += uvarintLen(uint64(n)) + b
	}
	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(v.FPS))
	buf = binary.AppendUvarint(buf, uint64(len(v.Frames)))
	for i, f := range v.Frames {
		buf = appendFrameRLEReference(buf, f, runs[i])
	}
	return buf
}

func countRunsReference(f *vision.Frame) (runs, size int) {
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

func appendFrameRLEReference(buf []byte, f *vision.Frame, runs int) []byte {
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

// wrappingRun is a payload walkReference accepted and decodeReference
// panicked on: a frame whose second and third runs are so long that
// pos+n wraps past the int range and back, and whose fourth run, read
// at a negative tile, closes the frame.
func wrappingRun() []byte {
	b := append([]byte("EYV1"), 10, 1, 4)
	b = binary.AppendUvarint(append(b, 7), 10)
	b = binary.AppendUvarint(append(b, 7), math.MaxInt-5)
	b = binary.AppendUvarint(append(b, 7), math.MaxInt)
	// 10 + (MaxInt-5) + MaxInt wraps to 3 tiles covered.
	return binary.AppendUvarint(append(b, 7), tiles-3)
}

// TestWrappingRunRefused: a run longer than the tiles its frame has left
// is refused even when pos+n would wrap, so Validate no longer accepts
// a payload Decode cannot build (the walk before the Checker did, and
// Decode then panicked on a negative tile).
func TestWrappingRunRefused(t *testing.T) {
	data := wrappingRun()
	if _, err := walkReference(data, nil); err != nil {
		t.Fatalf("the reference walk refused the wrapping payload: %v", err)
	}
	if !panics(func() { decodeReference(data) }) {
		t.Fatal("the reference Decode built the wrapping payload")
	}
	if err := Validate(data); err != ErrCorrupt {
		t.Fatalf("Validate = %v, want ErrCorrupt", err)
	}
	if _, err := Decode(data); err != ErrCorrupt {
		t.Fatalf("Decode = %v, want ErrCorrupt", err)
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// run is one visit a walk reports.
type run struct {
	frame    int
	val      uint64
	pos, len int
}

// maxVisits bounds the runs a fuzz case records (a frame has at most
// tiles of them, a fuzzed payload few frames).
const maxVisits = 1 << 16

// writeCut writes data to c in pieces whose lengths cycle through cuts
// (each byte mod 17, so a piece may be empty), then the rest in one.
func writeCut(c *Checker, data, cuts []byte) {
	moved := true
	for len(data) > 0 && len(cuts) > 0 && moved {
		moved = false
		for _, b := range cuts {
			n := min(int(b)%17, len(data))
			c.Write(data[:n])
			data = data[n:]
			moved = moved || n > 0
		}
	}
	c.Write(data)
}

// FuzzCheckerMatchesWalk: for any bytes cut into pieces at any points, a
// Checker's verdict, frame rate and runs equal walkReference's over the
// whole buffer, and Decode builds the frames decodeReference builds. The
// one allowed difference is a payload the reference accepts through a
// wrapping run: the Checker refuses it, and the reference's Decode must
// be the one that panics on it.
func FuzzCheckerMatchesWalk(f *testing.F) {
	for i, seed := range append(validateSeeds(), wrappingRun(), Encode(noiseVideo(2, 3))) {
		f.Add(seed, []byte{byte(i), 1, 2, 3, 5, 7, 0})
		f.Add(seed, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var want, got []run
		record := func(into *[]run) func(int, uint64, int, int) {
			return func(frame int, val uint64, pos, n int) {
				if len(*into) < maxVisits {
					*into = append(*into, run{frame, val, pos, n})
				}
			}
		}
		wantFPS, wantErr := walkReference(data, record(&want))
		c := Checker{visit: record(&got)}
		writeCut(&c, data, cuts)
		fps, err := c.Verdict()
		if (err == nil) != (wantErr == nil) {
			if err != nil && wantErr == nil && panics(func() { decodeReference(data) }) {
				return // a wrapping run: refused here, a panic there
			}
			t.Fatalf("Checker = %v, reference walk = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if fps != wantFPS {
			t.Fatalf("Checker fps %d, reference %d", fps, wantFPS)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Checker runs differ from the reference walk's:\n%v\n%v", got, want)
		}
		v, err := Decode(data)
		ref, refErr := decodeReference(data)
		if err != nil || refErr != nil {
			t.Fatalf("Decode = %v, reference = %v, after both walks accepted", err, refErr)
		}
		if v.FPS != ref.FPS || len(v.Frames) != len(ref.Frames) {
			t.Fatalf("Decode shape %d fps × %d frames, reference %d × %d", v.FPS, len(v.Frames), ref.FPS, len(ref.Frames))
		}
		for i := range v.Frames {
			if *v.Frames[i] != *ref.Frames[i] {
				t.Fatalf("frame %d differs from the reference Decode's", i)
			}
		}
	})
}

// fuzzVideo builds a video from fuzzed inputs: n frames, the first three
// painted and the rest repeating them in turn (as WithStartDelay repeats
// a frame), each painted with runs read from raw: a byte picking the
// value's bit width (so varints of every length occur), four value bytes
// and a length byte.
func fuzzVideo(fps, n int, raw []byte) *Video {
	v := &Video{FPS: fps}
	distinct := make([]*vision.Frame, 0, 3)
	at := 0
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[at%len(raw)]
		at++
		return b
	}
	for k := 0; k < n; k++ {
		if len(distinct) == cap(distinct) {
			v.Frames = append(v.Frames, distinct[k%len(distinct)])
			continue
		}
		fr := vision.NewFrame()
		for i := 0; i < tiles && len(raw) > 0; {
			width := uint(next()) % 33
			val := uint64(binary.LittleEndian.Uint32([]byte{next(), next(), next(), next()})) << 32 >> (64 - width)
			for l := int(next())%64 + 1; l > 0 && i < tiles; l-- {
				fr.Set(i%vision.GridW, i/vision.GridW, vision.Tile(val))
				i++
			}
		}
		distinct = append(distinct, fr)
		v.Frames = append(v.Frames, fr)
	}
	return v
}

// FuzzEncodeMatchesReference: Encode writes encodeReference's bytes,
// into a buffer exactly their size, for any frame rate (negative and
// past the container's bound too), up to 200 frames (past the run counts
// Encode keeps on the stack) and any tiles.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(10, uint16(3), []byte{32, 1, 2, 3, 4, 5, 7, 0, 0, 0, 0, 200})
	f.Add(-1, uint16(0), []byte(nil))
	f.Add(300, uint16(131), []byte{28, 0xff, 0xff, 0xff, 0x0f, 0})
	f.Add(1, uint16(130), []byte{0, 0, 0, 0, 0, 63, 1, 9, 9, 9, 9, 1})
	f.Fuzz(func(t *testing.T, fps int, frames uint16, raw []byte) {
		v := fuzzVideo(fps, int(frames)%201, raw)
		got, want := Encode(v), encodeReference(v)
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from the reference (%d vs %d bytes)", len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("cap %d for %d bytes", cap(got), len(got))
		}
	})
}

// noiseVideo is the repo benchmark's delivery payload: frames of 28-bit
// noise tiles drawn from the seed in row-major order, so nearly every
// tile is its own run and its value a four-byte varint.
func noiseVideo(seed int64, frames int) *Video {
	r := rand.New(rand.NewSource(seed))
	v := &Video{FPS: DefaultFPS}
	for f := 0; f < frames; f++ {
		fr := vision.NewFrame()
		for y := 0; y < vision.GridH; y++ {
			for x := 0; x < vision.GridW; x++ {
				fr.Set(x, y, vision.Tile(r.Uint32()>>4))
			}
		}
		v.Frames = append(v.Frames, fr)
	}
	return v
}
