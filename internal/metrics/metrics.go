// Package metrics computes the four machine PLT metrics the paper
// evaluates against human perception (§5.2):
//
//   - OnLoad: the browser load event (taken from the HAR);
//   - SpeedIndex: "the average time at which visible parts of the page are
//     displayed" — the area above the visual-completeness curve;
//   - FirstVisualChange: when the first pixels are drawn;
//   - LastVisualChange: when the last pixels stop changing.
//
// Like WebPagetest (which the paper's SpeedIndex definition comes from),
// everything except OnLoad is computed from the captured video frames, so
// the metrics see exactly what participants see.
package metrics

import (
	"time"

	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
)

// PLT bundles the computed metrics for one page-load video.
type PLT struct {
	OnLoad            time.Duration
	SpeedIndex        time.Duration
	FirstVisualChange time.Duration
	LastVisualChange  time.Duration
}

// ByName returns the metric's value by its figure label. Unknown names
// return 0.
func (p PLT) ByName(name string) time.Duration {
	switch name {
	case "onload":
		return p.OnLoad
	case "speedindex":
		return p.SpeedIndex
	case "firstvisualchange":
		return p.FirstVisualChange
	case "lastvisualchange":
		return p.LastVisualChange
	}
	return 0
}

// Names lists the metrics in the order the paper plots them.
var Names = []string{"onload", "speedindex", "lastvisualchange", "firstvisualchange"}

// Compute derives the visual metrics from a video and attaches the given
// onload time.
func Compute(v *video.Video, onload time.Duration) PLT {
	return PLT{
		OnLoad:            onload,
		SpeedIndex:        SpeedIndex(v),
		FirstVisualChange: FirstVisualChange(v),
		LastVisualChange:  LastVisualChange(v),
	}
}

// Completeness returns the per-frame visual completeness: the fraction of
// viewport tiles already in their final state.
func Completeness(v *video.Video) []float64 {
	final := v.FinalFrame()
	out := make([]float64, len(v.Frames))
	for i, f := range v.Frames {
		out[i] = vision.MatchFraction(f, final)
	}
	return out
}

// SpeedIndex integrates the area above the visual-completeness curve:
// SI = Σ (1 - VC(t)) dt over the whole capture. Completeness is measured
// against the final frame and may regress — a carousel rotating away from
// its settled state counts as incomplete again, exactly as in
// WebPagetest's video-based computation. That churn sensitivity is one of
// the reasons SpeedIndex diverges from human perception (§5.2).
func SpeedIndex(v *video.Video) time.Duration {
	vc := Completeness(v)
	dt := v.FrameDuration()
	var si float64
	for _, c := range vc {
		if c < 1 {
			si += (1 - c) * float64(dt)
		}
	}
	return time.Duration(si)
}

// FirstVisualChange returns the timestamp of the first frame that differs
// from the initial (blank) frame, or 0 if nothing ever changes.
func FirstVisualChange(v *video.Video) time.Duration {
	if len(v.Frames) == 0 {
		return 0
	}
	first := v.Frames[0]
	for i := 1; i < len(v.Frames); i++ {
		if *v.Frames[i] != *first {
			return v.FrameTime(i)
		}
	}
	return 0
}

// LastVisualChange returns the timestamp of the last frame that differs
// from its predecessor, or 0 for a static video.
func LastVisualChange(v *video.Video) time.Duration {
	for i := len(v.Frames) - 1; i >= 1; i-- {
		if *v.Frames[i] != *v.Frames[i-1] {
			return v.FrameTime(i)
		}
	}
	return 0
}

// PerceptualProgress returns, per frame, the salience-weighted completeness
// of the content sets humans judge: all content, and main (non-auxiliary)
// content only. crowd uses these curves to place participants' readiness
// thresholds; keeping the computation here keeps metric and perception
// definitions side by side.
type PerceptualCurves struct {
	// T holds the frame timestamps.
	T []time.Duration
	// All is completeness over every visible object.
	All []float64
	// Main is completeness over non-auxiliary content only (ads and
	// widgets excluded) — what ad-insensitive participants watch.
	Main []float64
}

// Curves computes perceptual progress from a video plus the per-tile
// auxiliary mask derived from the final frame of an unblocked load.
// auxTiles marks raster values that belong to auxiliary objects.
//
// Unlike the pixel metrics, perception is computed on *canonical* tiles:
// a carousel mid-rotation counts as present from its first paint, because
// humans consider animating content loaded while SpeedIndex and
// LastVisualChange keep counting its churn (§1's "above-the-fold content
// the user does not wait for").
func Curves(v *video.Video, auxTiles map[vision.Tile]bool) PerceptualCurves {
	final := v.FinalFrame()
	n := len(v.Frames)
	pc := PerceptualCurves{
		T:    make([]time.Duration, n),
		All:  make([]float64, n),
		Main: make([]float64, n),
	}
	// Precompute the denominator masks on canonical values.
	totalAll, totalMain := 0, 0
	for y := 0; y < vision.GridH; y++ {
		for x := 0; x < vision.GridW; x++ {
			fv := webpage.CanonicalTile(final.At(x, y))
			totalAll++
			if !auxTiles[fv] {
				totalMain++
			}
		}
	}
	for i, f := range v.Frames {
		pc.T[i] = v.FrameTime(i)
		matchAll, matchMain := 0, 0
		for y := 0; y < vision.GridH; y++ {
			for x := 0; x < vision.GridW; x++ {
				fv := webpage.CanonicalTile(final.At(x, y))
				if webpage.CanonicalTile(f.At(x, y)) == fv {
					matchAll++
					if !auxTiles[fv] {
						matchMain++
					}
				}
			}
		}
		pc.All[i] = float64(matchAll) / float64(totalAll)
		if totalMain > 0 {
			pc.Main[i] = float64(matchMain) / float64(totalMain)
		} else {
			pc.Main[i] = pc.All[i]
		}
	}
	return pc
}

// AreaAbove integrates (1 - curve) dt over the curve's span — the
// perceptual analogue of SpeedIndex. Smaller means the content was, on
// average, on screen earlier.
func AreaAbove(t []time.Duration, curve []float64) time.Duration {
	if len(t) < 2 || len(curve) != len(t) {
		return 0
	}
	var area float64
	for i := 1; i < len(t); i++ {
		dt := float64(t[i] - t[i-1])
		c := curve[i-1]
		if c > 1 {
			c = 1
		}
		area += (1 - c) * dt
	}
	return time.Duration(area)
}

// CrossTime returns the first frame time at which curve >= threshold, and
// whether it ever crosses.
func CrossTime(t []time.Duration, curve []float64, threshold float64) (time.Duration, bool) {
	for i, c := range curve {
		if c >= threshold {
			return t[i], true
		}
	}
	return 0, false
}
