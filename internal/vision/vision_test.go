package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := Rect{X: 2, Y: 3, W: 4, H: 5}
	if r.Empty() || r.Area() != 20 {
		t.Fatalf("rect %+v: empty=%v area=%d", r, r.Empty(), r.Area())
	}
	if !(Rect{}).Empty() {
		t.Fatal("zero rect should be empty")
	}
	if (Rect{W: -1, H: 3}).Area() != 0 {
		t.Fatal("negative rect area should be 0")
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 10, H: 10}
	b := Rect{X: 5, Y: 5, W: 10, H: 10}
	got := a.Intersect(b)
	want := Rect{X: 5, Y: 5, W: 5, H: 5}
	if got != want {
		t.Fatalf("Intersect = %+v, want %+v", got, want)
	}
	if !a.Intersect(Rect{X: 20, Y: 20, W: 2, H: 2}).Empty() {
		t.Fatal("disjoint intersect not empty")
	}
}

func TestAboveFold(t *testing.T) {
	if !(Rect{X: 0, Y: 0, W: 5, H: 5}).AboveFold() {
		t.Fatal("top-left rect should be above fold")
	}
	if (Rect{X: 0, Y: GridH + 2, W: 5, H: 5}).AboveFold() {
		t.Fatal("below-fold rect reported above fold")
	}
	// Straddling the fold counts as above.
	if !(Rect{X: 0, Y: GridH - 1, W: 5, H: 5}).AboveFold() {
		t.Fatal("straddling rect should be above fold")
	}
}

func TestPaintAndDiff(t *testing.T) {
	a := NewFrame()
	b := NewFrame()
	if Diff(a, b) != 0 {
		t.Fatal("blank frames differ")
	}
	changed := b.Paint(Rect{X: 0, Y: 0, W: 12, H: 9}, 7)
	if changed != 108 {
		t.Fatalf("Paint changed %d tiles, want 108", changed)
	}
	want := 108.0 / float64(GridW*GridH)
	if got := Diff(a, b); got != want {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
	// Repainting the same value changes nothing.
	if again := b.Paint(Rect{X: 0, Y: 0, W: 12, H: 9}, 7); again != 0 {
		t.Fatalf("idempotent repaint changed %d tiles", again)
	}
}

func TestPaintClipsToViewport(t *testing.T) {
	f := NewFrame()
	changed := f.Paint(Rect{X: GridW - 2, Y: GridH - 2, W: 10, H: 10}, 3)
	if changed != 4 {
		t.Fatalf("clipped paint changed %d, want 4", changed)
	}
	if f.Paint(Rect{X: 0, Y: GridH + 1, W: 5, H: 5}, 3) != 0 {
		t.Fatal("below-fold paint changed viewport tiles")
	}
}

func TestAtSetBounds(t *testing.T) {
	f := NewFrame()
	f.Set(0, 0, 9)
	if f.At(0, 0) != 9 {
		t.Fatal("Set/At roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	f.At(GridW, 0)
}

// TestTileAtAndFill: tile i of the row-major array is the tile at
// (i%GridW, i/GridW), a filled run wraps from a row's last column to the
// next row's first, and a run past the array panics.
func TestTileAtAndFill(t *testing.T) {
	f := NewFrame()
	f.Fill(GridW-2, 4, 7)
	for i := 0; i < GridW*GridH; i++ {
		want := Tile(0)
		if i >= GridW-2 && i < GridW+2 {
			want = 7
		}
		if f.TileAt(i) != want || f.At(i%GridW, i/GridW) != want {
			t.Fatalf("tile %d: TileAt %d, At %d, want %d", i, f.TileAt(i), f.At(i%GridW, i/GridW), want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a run past the tile array did not panic")
		}
	}()
	f.Fill(GridW*GridH-1, 2, 1)
}

func TestCloneIsDeep(t *testing.T) {
	f := NewFrame()
	f.Set(1, 1, 5)
	c := f.Clone()
	c.Set(1, 1, 6)
	if f.At(1, 1) != 5 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSimilarThreshold(t *testing.T) {
	a := NewFrame()
	b := NewFrame()
	// Change exactly 1% of tiles (12.96 -> 13 tiles ~ just over 1%).
	total := GridW * GridH
	onePercent := total / 100
	for i := 0; i < onePercent; i++ {
		b.Set(i%GridW, i/GridW, 1)
	}
	if !Similar(a, b, 0.01) {
		t.Fatalf("%d/%d differing tiles should be within 1%%", onePercent, total)
	}
	for i := onePercent; i < onePercent*3; i++ {
		b.Set(i%GridW, i/GridW, 1)
	}
	if Similar(a, b, 0.01) {
		t.Fatal("3% differing tiles reported similar at 1%")
	}
}

func TestNonBlankAndMatchFraction(t *testing.T) {
	f := NewFrame()
	if f.NonBlank() != 0 {
		t.Fatal("blank frame has content")
	}
	final := NewFrame()
	final.Paint(Rect{X: 0, Y: 0, W: GridW, H: GridH}, 1)
	if got := MatchFraction(f, final); got != 0 {
		t.Fatalf("blank vs full MatchFraction = %v, want 0", got)
	}
	f.Paint(Rect{X: 0, Y: 0, W: GridW, H: GridH}, 1)
	if got := MatchFraction(f, final); got != 1 {
		t.Fatalf("full match = %v, want 1", got)
	}
}

func TestEarliestSimilarRewind(t *testing.T) {
	// Frame sequence: blank, blank, content, content+tiny change.
	mk := func(paintTo int, extra bool) *Frame {
		f := NewFrame()
		if paintTo > 0 {
			f.Paint(Rect{X: 0, Y: 0, W: 30, H: 20}, 2)
		}
		if extra {
			f.Set(47, 26, 3) // single-tile change, under 1%
		}
		return f
	}
	frames := []*Frame{mk(0, false), mk(0, false), mk(1, false), mk(1, true)}
	// Frame 3 is within 1% of frame 2, so the rewind suggestion is 2.
	if got := EarliestSimilar(frames, 3, 0.01); got != 2 {
		t.Fatalf("rewind from 3 = %d, want 2", got)
	}
	// Frame 2 has no earlier similar frame.
	if got := EarliestSimilar(frames, 2, 0.01); got != 2 {
		t.Fatalf("rewind from 2 = %d, want 2 (itself)", got)
	}
	// Rewinding from a blank frame lands on the first blank frame.
	if got := EarliestSimilar(frames, 1, 0.01); got != 0 {
		t.Fatalf("rewind from 1 = %d, want 0", got)
	}
}

func TestEarliestSimilarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range chosen did not panic")
		}
	}()
	EarliestSimilar([]*Frame{NewFrame()}, 5, 0.01)
}

func TestSideBySide(t *testing.T) {
	a := NewFrame()
	b := NewFrame()
	a.Paint(Rect{X: 0, Y: 0, W: GridW, H: GridH}, 1)
	b.Paint(Rect{X: 0, Y: 0, W: GridW, H: GridH}, 2)
	s := SideBySide(a, b)
	if s.At(0, 0) != 1 || s.At(GridW/2-1, 10) != 1 {
		t.Fatal("left half does not show frame a")
	}
	if s.At(GridW/2, 0) != 2 || s.At(GridW-1, 10) != 2 {
		t.Fatal("right half does not show frame b")
	}
}

// Property: Diff is a pseudo-metric — symmetric, zero on identity, in [0,1].
func TestPropertyDiffMetric(t *testing.T) {
	f := func(coords []uint16) bool {
		a, b := NewFrame(), NewFrame()
		for i, c := range coords {
			x := int(c) % GridW
			y := (int(c) / GridW) % GridH
			if i%2 == 0 {
				a.Set(x, y, Tile(i+1))
			} else {
				b.Set(x, y, Tile(i+1))
			}
		}
		d1, d2 := Diff(a, b), Diff(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1 && Diff(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatchFraction(f, final) + Diff(f, final) == 1.
func TestPropertyMatchDiffComplement(t *testing.T) {
	f := func(coords []uint16) bool {
		a, b := NewFrame(), NewFrame()
		for _, c := range coords {
			x := int(c) % GridW
			y := (int(c) / GridW) % GridH
			b.Set(x, y, Tile(c+1))
		}
		sum := MatchFraction(a, b) + Diff(a, b)
		return sum > 0.9999999 && sum < 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Similar(a, b, t) is Diff(a, b) <= t, for frames differing
// in any number of tiles, in one run or scattered, and for any
// threshold: 0, 0.01, 1, negative, NaN, infinite, the exact fractions
// next to the frames' Diff and arbitrary ones.
func TestPropertySimilarMatchesDiff(t *testing.T) {
	const total = GridW * GridH
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		a := NewFrame()
		for i := range a.tiles {
			a.tiles[i] = Tile(r.Intn(4))
		}
		b := a.Clone()
		k := r.Intn(40) // around the frame helper's 1% (13 tiles)
		if trial%4 == 0 {
			k = r.Intn(total + 1)
		}
		if trial%2 == 0 { // one run of k tiles
			start := r.Intn(total - k + 1)
			for i := start; i < start+k; i++ {
				b.tiles[i]++
			}
		} else {
			for _, i := range r.Perm(total)[:k] {
				b.tiles[i]++
			}
		}
		d := Diff(a, b)
		if d != float64(k)/total {
			t.Fatalf("trial %d: Diff = %v with %d tiles changed", trial, d, k)
		}
		for _, th := range []float64{
			0, 0.01, 1, -0.01, -1, math.NaN(), math.Inf(1), math.Inf(-1),
			d, math.Nextafter(d, -1), math.Nextafter(d, 2),
			float64(k-1) / total, float64(k+1) / total, r.Float64(), r.Float64() / 20,
		} {
			if got, want := Similar(a, b, th), d <= th; got != want {
				t.Fatalf("trial %d: %d of %d tiles differ: Similar(%v) = %v, Diff %v", trial, k, total, th, got, d)
			}
			if got, want := Similar(b, a, th), d <= th; got != want {
				t.Fatalf("trial %d: %d of %d tiles differ: Similar(b, a, %v) = %v, Diff %v", trial, k, total, th, got, d)
			}
		}
	}
}
