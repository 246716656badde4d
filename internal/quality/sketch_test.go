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
// over 256 frames cost a 1-byte code each and 16 B per distinct value:
// at most 1.5 B per answer with the codes' growth slack (5 B while every
// code was 4 bytes wide). Over 60,000 distinct values a code is 2 bytes
// and 0.6 distinct values per answer cost 9.6 B: at most 15 B. Were
// every answer distinct, each would carry a 4-byte code and a distinct
// value's 16 B: at most 24 B. The two float64 copies the sketch once
// kept cost 16 B per answer plus slack whatever the repeats.
func TestSketchBytesPerSubmission(t *testing.T) {
	const answers = 100_000
	for _, tc := range []struct {
		distinct int
		ceiling  float64 // bytes per answer
	}{
		{256, 1.5},
		{60_000, 15},
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

// cut cuts the codes back to their first n, at their width.
func (cs *codes) cut(n int) {
	switch {
	case cs.w32 != nil:
		cs.w32 = cs.w32[:n]
	case cs.w16 != nil:
		cs.w16 = cs.w16[:n]
	default:
		cs.w8 = cs.w8[:n]
	}
}

// widths ORs together the widths, in bits, of the codes' slices that
// are not nil: one width is in use, so it is 8, 16 or 32.
func (cs *codes) widths() int {
	w := 0
	if cs.w8 != nil {
		w |= 8
	}
	if cs.w16 != nil {
		w |= 16
	}
	if cs.w32 != nil {
		w |= 32
	}
	return w
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
			sk := &Sketch{codes: codes{w8: make([]uint8, 0, 2*n)}}
			for i := 0; i < n; i++ {
				sk.Add(picks[i%len(picks)])
			}
			counts := slices.Clone(sk.counts)
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				if j == n {
					sk.codes.cut(n)
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
// over the same values in the same order, bit for bit, after every byte's
// Adds. The first four bytes pick two bands, each lo <= hi; after them a
// byte below 0xe0 adds one of 16 frame picks (the repeats timeline
// answers are made of), a byte from 0xe0 to 0xef adds 64 values seen for
// the first time, ascending above the frame picks or, with its low bit
// set, descending below zero (four of them take a sketch past 256
// distinct values, where its codes widen), and a byte from 0xf0 adds the
// float64 whose bits the next 8 bytes hold, unless it is not finite.
// Each byte's Adds are followed by a render at the band the byte's 0x10
// bit picks, so TimelineBands resumes its last sum, switches band, and
// sees a bound cross a distinct value.
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
	// Past 256 distinct values the codes widen from one byte to two: the
	// frame picks, then runs of new values, with picks of either band
	// between them, so the memo resumes across the widening.
	f.Add([]byte{64, 170, 25, 230, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0xe0, 0x15, 0xe0, 0x16, 0xe0, 0x14, 0xe0, 0x10, 3, 0x13})
	f.Add([]byte{0, 255, 64, 128, 5, 0xe1, 0xe0, 5, 0xe1, 0x1a, 0xe0, 0x1a, 0xe1, 2, 0x1f})
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
		fresh := 0 // values the runs added
		for rest := data[4:]; len(rest) > 0; {
			b := rest[0]
			rest = rest[1:]
			n := len(vals)
			switch {
			case b < 0xe0:
				vals = append(vals, frameTime(int(b%16)))
			case b < 0xf0:
				for end := fresh + 64; fresh < end; {
					fresh++
					if b&1 == 0 {
						vals = append(vals, frameTime(15+fresh))
					} else {
						vals = append(vals, frameTime(-fresh))
					}
				}
			default:
				if len(rest) < 8 {
					return
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				vals = append(vals, v+0) // +0 for -0: see Sketch.Add
			}
			for _, v := range vals[n:] {
				sk.Add(v)
			}
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

// TestSketchWidthsMatchUint32: a sketch whose codes widen, from one byte
// to two past 256 distinct values and to four past 65,536, answers Len,
// Band, Filtered and the resumed band bit-identically to a sketch that
// keeps every code four bytes wide from the start. Both take the same
// values: a distinct value's first submission, in ascending order with
// every 97th out of order, then two repeats drawn at random. The two are
// compared after each first submission around either widening, and at
// every 1,024th distinct value between, at the default band and at one
// drawn at random, so the memo resumes across each widening and is
// recertified at another band.
func TestSketchWidthsMatchUint32(t *testing.T) {
	const distinct = 1<<16 + 8
	r := rand.New(rand.NewSource(54))
	var sk Sketch
	ref := Sketch{codes: codes{w32: []uint32{}}}
	near := func(d, edge int) bool { return d >= edge-2 && d <= edge+2 }
	var added []float64
	for d := 1; d <= distinct; d++ {
		v := frameTime(d)
		if d%97 == 0 {
			v = frameTime(-d) // below every value seen
		}
		added = append(added, v)
		for _, v := range []float64{v, added[r.Intn(len(added))], added[r.Intn(len(added))]} {
			sk.Add(v)
			ref.Add(v)
		}
		if !near(d, 1<<8) && !near(d, 1<<16) && d%1024 != 0 {
			continue
		}
		want := 8
		switch {
		case d > 1<<16:
			want = 32
		case d > 1<<8:
			want = 16
		}
		if got := sk.codes.widths(); got != want {
			t.Fatalf("%d distinct values: codes in use %#x bits wide, want %d", d, got, want)
		}
		if sk.Len() != ref.Len() {
			t.Fatalf("%d distinct values: Len = %d, want %d", d, sk.Len(), ref.Len())
		}
		lo := r.Float64() * 50
		for _, b := range [][2]float64{{25, 75}, {lo, lo + r.Float64()*(100-lo)}, {25, 75}} {
			if got, want := sk.band(b[0], b[1]), ref.band(b[0], b[1]); !sameBand(got, want) {
				t.Fatalf("%d distinct values: band(%v, %v) = %+v, want %+v", d, b[0], b[1], got, want)
			}
			if got, want := sk.Filtered(b[0], b[1]), ref.Filtered(b[0], b[1]); !sameFloats(got, want) {
				t.Fatalf("%d distinct values: Filtered(%v, %v) differs from the four-byte codes' (%d and %d values)", d, b[0], b[1], len(got), len(want))
			}
		}
	}
	if ref.codes.widths() != 32 {
		t.Fatal("the reference's codes narrowed")
	}
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
		sk.codes.w8 = make([]uint8, 0, answers+4*period)
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
			sk.codes.cut(answers)
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
