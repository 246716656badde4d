package quality

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/eyeorg/eyeorg/internal/stats"
)

// frameTime is the i-th frame pick of a 10 frames/s timeline, in
// seconds: what a timeline submission is, so what a sketch counts.
func frameTime(i int) float64 {
	return (time.Duration(i) * 100 * time.Millisecond).Seconds()
}

// Property: a sketch answers percentile queries bit-identically to a
// batch Sample over the same observations, for any insertion order and
// any pattern of repeats, and its order statistics are the sorted
// sample's, looked up in ascending order or not.
func TestPropertySketchMatchesSample(t *testing.T) {
	f := func(raw []float64, repeats, probes []uint8) bool {
		clean := raw[:0:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v+0) // +0 for -0: see Sketch.Add
			}
		}
		if len(clean) > 0 {
			for _, i := range repeats {
				clean = append(clean, clean[int(i)%len(clean)])
			}
		}
		var sk Sketch
		for _, v := range clean {
			sk.Add(v)
		}
		if sk.Len() != len(clean) {
			return false
		}
		batch := stats.Sample(clean)
		sorted := batch.Sorted()
		r := ranks{sk: &sk}
		for k := range sorted { // one walk up
			if r.at(k) != sorted[k] {
				return false
			}
		}
		for k := len(sorted) - 1; k >= 0; k-- { // one walk down
			if r.at(k) != sorted[k] {
				return false
			}
		}
		for _, p := range append(probes, 0, 63, 127, 191, 255) {
			q := float64(p) / 255 * 100
			if lv, _ := sk.Band(q, 100); math.Float64bits(lv) != math.Float64bits(batch.Percentile(q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchEmptyAndPanic(t *testing.T) {
	var sk Sketch
	if lv, hv := sk.Band(25, 75); lv != 0 || hv != 0 {
		t.Fatalf("empty Band = [%v, %v], want [0, 0]", lv, hv)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range percentile did not panic")
		}
	}()
	sk.Add(1)
	sk.Band(25, 101)
}

// Filtered must hand back a slice of its own: callers hold it beside the
// live campaign (the platform's equivalence suites do), so writing into
// it must reach neither the sketch nor another caller's slice.
func TestSketchFilteredIsACopy(t *testing.T) {
	var sk Sketch
	for _, v := range []float64{3, 1, 2, 2} {
		sk.Add(v)
	}
	first := sk.Filtered(0, 100)
	second := sk.Filtered(0, 100)
	first[0] = -99
	sk.Add(0.5)
	if want := []float64{3, 1, 2, 2}; !slices.Equal(second, want) {
		t.Fatalf("writing into one returned slice reached another: %v", second)
	}
	if want := []float64{3, 1, 2, 2, 0.5}; !slices.Equal(sk.Filtered(0, 100), want) {
		t.Fatalf("writing into the returned slice reached the sketch: %v", sk.Filtered(0, 100))
	}
}

// TestSketchBytesPerSubmission pins what a sketch keeps per submission,
// as live heap. Timeline answers are frame picks, so 100,000 answers
// over 256 frames cost a 4-byte code each and 16 B per distinct value:
// at most 5 B per answer with the codes' growth slack. Were every answer
// distinct, each would carry a distinct value's 16 B too: at most 24 B.
// The two float64 copies the sketch once kept cost 16 B per answer plus
// slack whatever the repeats.
func TestSketchBytesPerSubmission(t *testing.T) {
	const answers = 100_000
	for _, tc := range []struct {
		distinct int
		ceiling  float64 // bytes per answer
	}{
		{256, 5},
		{answers, 24},
	} {
		before := liveHeap()
		sk := &Sketch{}
		for i := 0; i < answers; i++ {
			sk.Add(frameTime(i * 7919 % answers % tc.distinct)) // 7919 is prime: a permutation
		}
		per := float64(liveHeap()-before) / answers
		runtime.KeepAlive(sk)
		t.Logf("%d distinct values: %.2f B per answer", tc.distinct, per)
		if per > tc.ceiling {
			t.Errorf("%d distinct values: %.2f B per answer, ceiling %v", tc.distinct, per, tc.ceiling)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkSketchAdd adds values already seen to a sketch of n answers
// over 256 frame picks: ns/op stays flat in n and no Add allocates. The
// Adds cycle through one table of 4,096 random picks whatever n is, so
// only the sketch's size differs between the runs. Every n Adds the
// sketch is cut back to its first n answers (a 1 KiB copy of the counts,
// timed with them), so it never outgrows the 2n codes it was given room
// for.
func BenchmarkSketchAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	picks := make([]float64, 4096)
	for i := range picks {
		picks[i] = frameTime(r.Intn(256))
	}
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("answers=%d", n), func(b *testing.B) {
			sk := &Sketch{codes: make([]uint32, 0, 2*n)}
			for i := 0; i < n; i++ {
				sk.Add(picks[i%len(picks)])
			}
			counts := slices.Clone(sk.counts)
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				if j == n {
					sk.codes = sk.codes[:n]
					copy(sk.counts, counts)
					j = 0
				}
				sk.Add(picks[i%len(picks)])
				j++
			}
		})
	}
}

// FuzzSketchMatchesSample: whatever the submissions and the bands, a
// sketch's Band, Filtered and TimelineBands equal stats.Sample's answers
// over the same values in the same order, bit for bit, after every Add.
// The first four bytes pick two bands, each lo <= hi; after them a byte
// below 0xf0 adds one of 16 frame picks (the repeats timeline answers are
// made of), and a byte from 0xf0 adds the float64 whose bits the next 8
// bytes hold, unless it is not finite. Each Add is followed by a render
// at the band the byte's 0x10 bit picks, so TimelineBands resumes its
// last sum, switches band, and sees a bound cross a distinct value.
func FuzzSketchMatchesSample(f *testing.F) {
	f.Add([]byte{64, 128, 64, 128, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{0, 255, 0, 255, 5})
	f.Add([]byte{255, 0, 0, 0})
	f.Add([]byte{32, 200, 32, 200, 0xf0, 1, 2, 3, 4, 5, 6, 7, 0x40, 7, 7, 0xf1, 0, 0, 0, 0, 0, 0, 0xf0, 0xbf, 7})
	// The lower bound falls below a value already summed, then the upper
	// bound rises above one.
	f.Add([]byte{64, 170, 64, 170, 8, 8, 8, 8, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{64, 170, 64, 170, 1, 1, 1, 1, 8, 8, 8, 8, 8, 8})
	// Two bands alternating over a sample that grows at both ends.
	f.Add([]byte{64, 170, 25, 230, 5, 0x15, 6, 0x16, 4, 0x14, 9, 0x10, 2, 0x1c, 12, 0x11, 3, 0x13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		var bands [2][2]float64
		for i := range bands {
			lo := float64(data[2*i]) / 255 * 100
			bands[i] = [2]float64{lo, min(lo+float64(data[2*i+1])/255*(100-lo), 100)}
		}
		c := NewCampaign("timeline")
		sk := c.sketch("v")
		var vals []float64
		for rest := data[4:]; len(rest) > 0; {
			b := rest[0]
			rest = rest[1:]
			if b < 0xf0 {
				vals = append(vals, frameTime(int(b%16)))
			} else {
				if len(rest) < 8 {
					break
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				vals = append(vals, v+0) // +0 for -0: see Sketch.Add
			}
			sk.Add(vals[len(vals)-1])
			lo, hi := bands[b>>4&1][0], bands[b>>4&1][1]
			s := stats.Sample(vals)
			filtered := s.IQRFilter(lo, hi)
			want := Band{Total: len(s), InBand: len(filtered), Lo: s.Percentile(lo), Hi: s.Percentile(hi), Mean: filtered.Mean()}
			if lv, hv := sk.Band(lo, hi); !sameFloats([]float64{lv, hv}, []float64{want.Lo, want.Hi}) {
				t.Fatalf("Band(%v, %v) over %v = [%v, %v], want [%v, %v]", lo, hi, vals, lv, hv, want.Lo, want.Hi)
			}
			if got := sk.Filtered(lo, hi); !sameFloats(got, filtered) {
				t.Fatalf("Filtered(%v, %v) over %v = %v, want %v", lo, hi, vals, got, filtered)
			}
			if got := c.TimelineBands(lo, hi)["v"]; !sameBand(got, want) {
				t.Fatalf("TimelineBands(%v, %v) over %v = %+v, want %+v", lo, hi, vals, got, want)
			}
		}
	})
}

var sinkBands map[string]Band

// BenchmarkTimelineBands prices one TimelineBands render of 4 videos
// holding 4,096 answers each, every one of 256 frame picks 16 times in
// a shuffled order, in three cases:
//
//   - cold: every sketch's memo is cleared before the render, so it
//     sums every answer;
//   - resume: before each render one video gets 4 answers, the first
//     frame, two at the middle one and the last, which keeps every
//     bound where it was (the 25th and 75th percentiles' ranks move by
//     1 and 3, and so do the order statistics they read), so the render
//     sums those 4 and resumes the other videos with nothing new;
//   - crossing: the same Adds, and the render alternates between the
//     default band and one a percentile wider on each side, 41 ranks or
//     more than two frames away, so each bound crosses a distinct value
//     and every render sums every answer.
//
// The Adds are timed with the render. Every 256 renders the sketches
// are cut back to their first 4,096 answers and the memo they had then,
// which is exactly their state then, so none grows past 4,352.
func BenchmarkTimelineBands(b *testing.B) {
	const videos, answers, period = 4, 4096, 256
	r := rand.New(rand.NewSource(1))
	c := NewCampaign("timeline")
	var sketches []*Sketch
	for v := 0; v < videos; v++ {
		sk := c.sketch(fmt.Sprintf("v%d", v))
		sk.codes = make([]uint32, 0, answers+4*period)
		for _, p := range r.Perm(answers) {
			sk.Add(frameTime(p % 256))
		}
		sketches = append(sketches, sk)
	}
	adds := []float64{frameTime(0), frameTime(128), frameTime(128), frameTime(255)}
	before := c.TimelineBands(25, 75)
	counts, memos := make([][]uint32, videos), make([]bandMemo, videos)
	for v, sk := range sketches {
		counts[v], memos[v] = slices.Clone(sk.counts), sk.memo
	}
	cutBack := func() {
		for v, sk := range sketches {
			sk.codes = sk.codes[:answers]
			copy(sk.counts, counts[v])
			sk.memo = memos[v]
		}
	}
	for _, sk := range sketches {
		for _, a := range adds {
			sk.Add(a)
		}
	}
	for id, band := range c.TimelineBands(25, 75) {
		if band.Lo != before[id].Lo || band.Hi != before[id].Hi {
			b.Fatalf("video %s: the resume case's Adds moved the band from [%v, %v] to [%v, %v]", id, before[id].Lo, before[id].Hi, band.Lo, band.Hi)
		}
	}
	for _, tc := range []struct {
		name        string
		cold, cross bool
	}{{"cold", true, false}, {"resume", false, false}, {"crossing", false, true}} {
		b.Run(tc.name, func(b *testing.B) {
			cutBack()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tc.cold {
					for _, sk := range sketches {
						sk.memo = bandMemo{}
					}
				} else {
					if i%period == period-1 {
						cutBack()
					}
					sk := sketches[i%videos]
					for _, a := range adds {
						sk.Add(a)
					}
				}
				lo, hi := 25.0, 75.0
				if tc.cross && i%2 == 1 {
					lo, hi = 24, 76
				}
				sinkBands = c.TimelineBands(lo, hi)
			}
		})
	}
}
