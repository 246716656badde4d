// Package vision models what participants see: the browser viewport as a
// raster of tiles, frames as snapshots of that raster, and the pixel
// comparisons Eyeorg performs on them — most importantly the
// frame-selection helper's search for "the earliest similar frame (no more
// than 1% different in a pixel-by-pixel comparison)" (§3.2, Figure 3).
//
// A tile raster stands in for real pixels (DESIGN.md §4.2): each tile holds
// the identity of the content drawn there, so "fraction of differing tiles"
// carries the same signal as a pixel diff at a small fraction of the cost.
// BenchmarkAblationTileResolution verifies conclusions are stable across
// raster resolutions.
package vision

import (
	"fmt"
)

// Default viewport raster dimensions: 48x27 tiles of a 1280x720 viewport,
// i.e. one tile per ~26x26 pixel block.
const (
	GridW = 48
	GridH = 27
)

// Tile is the content identity painted on one tile (0 = blank/white).
type Tile uint32

// Rect is a tile-aligned rectangle in page coordinates. Y may exceed the
// viewport height for below-the-fold content.
type Rect struct {
	X, Y, W, H int
}

// Empty reports whether the rectangle covers no tiles (invisible objects
// such as scripts and tracking pixels).
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Intersect returns the overlap of two rectangles.
func (r Rect) Intersect(o Rect) Rect {
	x1 := max(r.X, o.X)
	y1 := max(r.Y, o.Y)
	x2 := min(r.X+r.W, o.X+o.W)
	y2 := min(r.Y+r.H, o.Y+o.H)
	if x2 <= x1 || y2 <= y1 {
		return Rect{}
	}
	return Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

// Viewport returns the above-the-fold portion of r on the standard grid.
func (r Rect) Viewport() Rect {
	return r.Intersect(Rect{X: 0, Y: 0, W: GridW, H: GridH})
}

// AboveFold reports whether any part of r is visible without scrolling.
func (r Rect) AboveFold() bool { return !r.Viewport().Empty() }

// Frame is one viewport snapshot: GridW x GridH tiles in row-major order.
type Frame struct {
	tiles [GridW * GridH]Tile
}

// NewFrame returns a blank (all-white) frame.
func NewFrame() *Frame { return &Frame{} }

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	c := *f
	return &c
}

// At returns the tile at (x, y). Out-of-range coordinates panic.
func (f *Frame) At(x, y int) Tile {
	if uint(x) >= GridW || uint(y) >= GridH {
		panic(outsideGrid{x, y})
	}
	return f.tiles[y*GridW+x]
}

// Set writes the tile at (x, y). Out-of-range coordinates panic.
func (f *Frame) Set(x, y int, v Tile) {
	if uint(x) >= GridW || uint(y) >= GridH {
		panic(outsideGrid{x, y})
	}
	f.tiles[y*GridW+x] = v
}

// outsideGrid is the panic value of At and Set for a tile outside the
// grid. Its message is formatted only when the panic is printed, so At
// and Set, called once per tile, stay cheap enough to inline; a negative
// coordinate converts to a huge unsigned one, so each bound is one
// compare.
type outsideGrid struct{ x, y int }

func (e outsideGrid) Error() string {
	return fmt.Sprintf("vision: tile (%d,%d) outside %dx%d grid", e.x, e.y, GridW, GridH)
}

// TileAt returns tile i of the row-major tile array: the tile at
// (i%GridW, i/GridW). It reads the array without a coordinate check,
// so a scan over i in [0, GridW*GridH) costs one load per tile; an i
// outside that range panics as an index does.
func (f *Frame) TileAt(i int) Tile { return f.tiles[i] }

// Fill sets n tiles of the row-major tile array, from tile i on, to v: a
// run of tiles that may wrap from one row to the next. A run outside
// the array panics as a slice does.
func (f *Frame) Fill(i, n int, v Tile) {
	run := f.tiles[i : i+n]
	for k := range run {
		run[k] = v
	}
}

// Paint fills the viewport-visible part of rect with v and returns the
// number of tiles changed.
func (f *Frame) Paint(rect Rect, v Tile) int {
	vp := rect.Viewport()
	if vp.Empty() {
		return 0
	}
	changed := 0
	for y := vp.Y; y < vp.Y+vp.H; y++ {
		row := y * GridW
		for x := vp.X; x < vp.X+vp.W; x++ {
			if f.tiles[row+x] != v {
				f.tiles[row+x] = v
				changed++
			}
		}
	}
	return changed
}

// Diff returns the fraction of tiles that differ between two frames,
// in [0, 1]. This is Eyeorg's "pixel-by-pixel comparison".
func Diff(a, b *Frame) float64 {
	if a == nil || b == nil {
		panic("vision: Diff on nil frame")
	}
	n := 0
	for i := range a.tiles {
		if a.tiles[i] != b.tiles[i] {
			n++
		}
	}
	return float64(n) / float64(len(a.tiles))
}

// blockTiles is how many tiles Similar compares at once: 16 tiles are
// one 64-byte array comparison.
const blockTiles = 16

// A frame is a whole number of blocks; this fails to compile otherwise.
var _ [0]struct{} = [GridW * GridH % blockTiles]struct{}{}

// Similar reports whether two frames differ by no more than threshold
// (the frame helper uses threshold = 0.01): Diff(a, b) <= threshold,
// for every threshold. It skips equal blocks of 16 tiles with one
// comparison and stops at the first block that takes the differing
// tiles past the threshold.
func Similar(a, b *Frame, threshold float64) bool {
	if a == nil || b == nil {
		panic("vision: Similar on nil frame")
	}
	const total = GridW * GridH
	n := 0
	for i := 0; i < total; i += blockTiles {
		x, y := (*[blockTiles]Tile)(a.tiles[i:]), (*[blockTiles]Tile)(b.tiles[i:])
		if *x == *y {
			continue
		}
		for j := range x {
			if x[j] != y[j] {
				n++
			}
		}
		if float64(n)/total > threshold { // Diff's division: n only grows
			return false
		}
	}
	return float64(n)/total <= threshold
}

// NonBlank returns the fraction of tiles showing content.
func (f *Frame) NonBlank() float64 {
	n := 0
	for _, t := range f.tiles {
		if t != 0 {
			n++
		}
	}
	return float64(n) / float64(len(f.tiles))
}

// MatchFraction returns the fraction of tiles in f that already equal the
// corresponding tile of final — the "visual completeness" that SpeedIndex
// integrates.
func MatchFraction(f, final *Frame) float64 {
	if f == nil || final == nil {
		panic("vision: MatchFraction on nil frame")
	}
	n := 0
	for i := range f.tiles {
		if f.tiles[i] == final.tiles[i] {
			n++
		}
	}
	return float64(n) / float64(len(f.tiles))
}

// EarliestSimilar returns the index of the earliest frame in frames that is
// within threshold of frames[chosen] — the rewind-frame suggestion of the
// frame-selection helper (Figure 3(a)). It returns chosen itself when no
// earlier frame qualifies. It panics if chosen is out of range.
func EarliestSimilar(frames []*Frame, chosen int, threshold float64) int {
	if chosen < 0 || chosen >= len(frames) {
		panic("vision: chosen frame out of range")
	}
	target := frames[chosen]
	for i := 0; i < chosen; i++ {
		if Similar(frames[i], target, threshold) {
			return i
		}
	}
	return chosen
}

// SideBySide composes the same-index frames of two videos into one frame:
// the left half shows a's columns (horizontally downsampled 2:1), the right
// half shows b's. This is the A/B splice of §3.2 — both loads share one
// frame clock, so a playback stall affects both sides equally.
func SideBySide(a, b *Frame) *Frame {
	out := NewFrame()
	half := GridW / 2
	for y := 0; y < GridH; y++ {
		for x := 0; x < half; x++ {
			out.Set(x, y, a.At(x*2, y))
			out.Set(half+x, y, b.At(x*2, y))
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
