package video

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/eyeorg/eyeorg/internal/parallel"
	"github.com/eyeorg/eyeorg/internal/vision"
)

// sample builds, frame by frame at 10 fps, a load d long in three
// stages: a skeleton over the whole grid at 200 ms, a hero at 800 ms and
// an ad at 2 s, each frame holding what has painted by its time.
func sample(d time.Duration) *Video {
	stages := map[int]struct {
		r vision.Rect
		v vision.Tile
	}{
		2:  {vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, 1},
		8:  {vision.Rect{X: 0, Y: 2, W: 30, H: 10}, 2},
		20: {vision.Rect{X: 38, Y: 0, W: 10, H: 5}, 3},
	}
	v := static(d)
	cur := vision.NewFrame()
	for i := range v.Frames {
		if s, ok := stages[i]; ok {
			cur.Paint(s.r, s.v)
		}
		v.Frames[i] = cur.Clone()
	}
	return v
}

// static is a blank screen recorded for d at 10 fps.
func static(d time.Duration) *Video {
	v := &Video{FPS: 10}
	for i := 0; i <= int(d/(100*time.Millisecond)); i++ {
		v.Frames = append(v.Frames, vision.NewFrame())
	}
	return v
}

func TestFrameIndexAtClamps(t *testing.T) {
	v := sample(3 * time.Second)
	if v.FrameIndexAt(-time.Second) != 0 {
		t.Fatal("negative time not clamped")
	}
	if v.FrameIndexAt(time.Hour) != len(v.Frames)-1 {
		t.Fatal("overlong time not clamped")
	}
	if v.FrameIndexAt(500*time.Millisecond) != 5 {
		t.Fatal("mid index wrong")
	}
}

func TestDuration(t *testing.T) {
	v := sample(3 * time.Second)
	if v.Duration() != time.Duration(len(v.Frames))*100*time.Millisecond {
		t.Fatalf("duration = %v for %d frames", v.Duration(), len(v.Frames))
	}
}

func TestWithStartDelay(t *testing.T) {
	v := sample(3 * time.Second)
	d := v.WithStartDelay(3 * time.Second)
	if len(d.Frames) != len(v.Frames)+30 {
		t.Fatalf("delayed video has %d frames, want %d", len(d.Frames), len(v.Frames)+30)
	}
	for i := 0; i < 30; i++ {
		if vision.Diff(d.Frames[i], v.Frames[0]) != 0 {
			t.Fatal("delay frames not frozen on first frame")
		}
	}
	if vision.Diff(d.Frames[30+8], v.Frames[8]) != 0 {
		t.Fatal("content not shifted by exactly the delay")
	}
	// Zero/negative delay copies.
	same := v.WithStartDelay(0)
	if len(same.Frames) != len(v.Frames) {
		t.Fatal("zero delay changed length")
	}
}

func TestSideBySide(t *testing.T) {
	a := sample(2 * time.Second)
	b := sample(3 * time.Second)
	s, err := SideBySide(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != len(b.Frames) {
		t.Fatalf("spliced length %d, want %d (longer side)", len(s.Frames), len(b.Frames))
	}
	// After a ends, its half must hold the final frame.
	last := s.Frames[len(s.Frames)-1]
	if last.At(0, 5) == 0 {
		t.Fatal("left half empty after a ended")
	}
}

func TestSideBySideFPSMismatch(t *testing.T) {
	a := &Video{FPS: 10, Frames: []*vision.Frame{vision.NewFrame()}}
	b := &Video{FPS: 30, Frames: []*vision.Frame{vision.NewFrame()}}
	if _, err := SideBySide(a, b); err == nil {
		t.Fatal("fps mismatch accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := sample(3 * time.Second)
	data := Encode(v)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.FPS != v.FPS || len(got.Frames) != len(v.Frames) {
		t.Fatalf("shape mismatch after roundtrip")
	}
	for i := range v.Frames {
		if vision.Diff(v.Frames[i], got.Frames[i]) != 0 {
			t.Fatalf("frame %d corrupted by roundtrip", i)
		}
	}
}

// TestEncodeExactSize: Encode allocates its output once, with no
// capacity past its length, and writes the bytes the growing encoder
// it replaced wrote — over seeded noise frames (long varints, many
// runs), captures and the empty video.
func TestEncodeExactSize(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	noise := &Video{FPS: DefaultFPS}
	for f := 0; f < 41; f++ {
		fr := vision.NewFrame()
		for y := 0; y < vision.GridH; y++ {
			for x := 0; x < vision.GridW; x++ {
				fr.Set(x, y, vision.Tile(r.Uint32()>>uint(r.Intn(32))))
			}
		}
		noise.Frames = append(noise.Frames, fr)
	}
	long := sample(20 * time.Second) // 200 frames: past the stack counts
	for i, v := range []*Video{noise, sample(3 * time.Second), long, {FPS: 300}} {
		got, want := Encode(v), encodeGrowing(v)
		if !bytes.Equal(got, want) {
			t.Fatalf("video %d: Encode differs from the growing encoder (%d vs %d bytes)", i, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("video %d: cap %d for %d bytes", i, cap(got), len(got))
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { Encode(noise) }); allocs != 1 {
		t.Fatalf("Encode allocated %.0f times, want 1", allocs)
	}
}

// encodeGrowing is Encode as it was before it sized its output: the
// reference its bytes must match.
func encodeGrowing(v *Video) []byte {
	buf := make([]byte, 0, 1024)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(v.FPS))
	buf = binary.AppendUvarint(buf, uint64(len(v.Frames)))
	const total = vision.GridW * vision.GridH
	for _, f := range v.Frames {
		var vals, lens []uint64
		for i := 0; i < total; {
			val := f.At(i%vision.GridW, i/vision.GridW)
			j := i + 1
			for j < total && f.At(j%vision.GridW, j/vision.GridW) == val {
				j++
			}
			vals, lens = append(vals, uint64(val)), append(lens, uint64(j-i))
			i = j
		}
		buf = binary.AppendUvarint(buf, uint64(len(vals)))
		for k := range vals {
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, vals[k]), lens[k])
		}
	}
	return buf
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("EYV2xxxxxx"),
		append([]byte("EYV1"), 255, 255, 255, 255, 255, 255, 255, 255, 255, 255),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncation of a valid stream must error, not panic.
	valid := Encode(sample(time.Second))
	for _, cut := range []int{5, 10, len(valid) / 2, len(valid) - 3} {
		if _, err := Decode(valid[:cut]); err == nil {
			t.Errorf("truncated at %d accepted", cut)
		}
	}
}

func TestWebmBytesGrowsWithActivityAndDuration(t *testing.T) {
	short := sample(time.Second)
	long := sample(10 * time.Second)
	if long.WebmBytes() <= short.WebmBytes() {
		t.Fatal("longer video not larger")
	}
	blank := static(10 * time.Second)
	if long.WebmBytes() <= blank.WebmBytes() {
		t.Fatal("active video not larger than static of same length")
	}
}

func TestChangedTiles(t *testing.T) {
	v := sample(3 * time.Second)
	want := vision.GridW*vision.GridH + 30*10 + 10*5 // skeleton + hero + ad
	if got := v.ChangedTiles(); got != want {
		t.Fatalf("ChangedTiles = %d, want %d", got, want)
	}
}

// Property: encode/decode roundtrips for arbitrary small sequences of
// frames, each painting one more rectangle over the last.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		v := &Video{FPS: 10, Frames: []*vision.Frame{vision.NewFrame()}}
		for _, c := range raw {
			fr := v.FinalFrame().Clone()
			fr.Paint(vision.Rect{X: int(c) % 40, Y: int(c>>4) % 20, W: 1 + int(c)%8, H: 1 + int(c>>8)%7}, vision.Tile(c%97)+1)
			v.Frames = append(v.Frames, fr)
		}
		got, err := Decode(Encode(v))
		if err != nil || len(got.Frames) != len(v.Frames) {
			return false
		}
		for i := range v.Frames {
			if vision.Diff(v.Frames[i], got.Frames[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWebmBytesMemoConcurrent: many workers asking one video for its
// size at once all get the value the model computes from the frames, and
// so does every later call (go test -race checks the memo's publication).
func TestWebmBytesMemoConcurrent(t *testing.T) {
	videos := []*Video{
		sample(3 * time.Second),
		static(time.Second),
		{FPS: 10},
	}
	for i, v := range videos {
		want := v.webmBytes()
		got, err := parallel.Map(8, 64, func(int) (int64, error) { return v.WebmBytes(), nil })
		if err != nil {
			t.Fatal(err)
		}
		for w, n := range got {
			if n != want {
				t.Fatalf("video %d, call %d: WebmBytes = %d, want %d", i, w, n, want)
			}
		}
		if n := v.WebmBytes(); n != want {
			t.Fatalf("video %d: memoized WebmBytes = %d, want %d", i, n, want)
		}
	}
}

// TestValidateMatchesDecode: Validate accepts exactly what Decode
// decodes, on valid payloads, every truncation of one, and garbage.
func TestValidateMatchesDecode(t *testing.T) {
	seeds := validateSeeds()
	for _, i := range []int{0, 1, 3, 4, len(seeds) - 1} {
		if err := Validate(seeds[i]); err != nil {
			t.Fatalf("valid payload %d refused: %v", i, err)
		}
	}
	for i, data := range seeds {
		_, decErr := Decode(data)
		if err := Validate(data); (err == nil) != (decErr == nil) {
			t.Fatalf("payload %d (%d bytes): Validate = %v, Decode = %v", i, len(data), err, decErr)
		}
	}
}

// validateSeeds is what the Validate checks start from: Encode outputs,
// every truncation of one, a frame whose run is zero-length, and the
// garbage TestDecodeRejectsGarbage refuses.
func validateSeeds() [][]byte {
	one := Encode(sample(time.Second))
	seeds := [][]byte{
		Encode(sample(3 * time.Second)),
		Encode(&Video{FPS: 10}),
		// One frame, one run of length zero.
		append([]byte("EYV1"), 10, 1, 1, 7, 0),
		// One frame covered by a single run.
		binary.AppendUvarint(append([]byte("EYV1"), 10, 1, 1, 7), vision.GridW*vision.GridH),
		// A run whose length is negative as an int, then the real one.
		binary.AppendUvarint(append(append([]byte("EYV1"), 10, 1, 2, 7),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 7), vision.GridW*vision.GridH),
		nil,
		{1, 2, 3},
		[]byte("EYV2xxxxxx"),
		// A run that would wrap the tile count (TestWrappingRunRefused).
		wrappingRun(),
	}
	for cut := range one {
		seeds = append(seeds, one[:cut])
	}
	return append(seeds, one)
}

// FuzzVideoValidate: Validate(b) == nil exactly when Decode(b) succeeds.
func FuzzVideoValidate(f *testing.F) {
	for _, seed := range validateSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, decErr := Decode(data)
		if err := Validate(data); (err == nil) != (decErr == nil) {
			t.Fatalf("Validate = %v, Decode = %v", err, decErr)
		}
	})
}
