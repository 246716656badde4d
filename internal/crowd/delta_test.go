package crowd

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// curvesWithMainAt builds perception curves for a load whose main content
// completes at mainT and whose aux (ad) content completes at auxT.
func curvesWithMainAt(mainT, auxT time.Duration) metrics.PerceptualCurves {
	paints := []browsersim.PaintEvent{
		{T: 300 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
		{T: mainT, Rect: vision.Rect{X: 0, Y: 4, W: 30, H: 14}, Value: 2},
		{T: auxT, Rect: vision.Rect{X: 36, Y: 0, W: 12, H: 6}, Value: 9, Aux: true},
	}
	v := webpeg.Render(paints, 8*time.Second, 10)
	return metrics.Curves(v, map[vision.Tile]bool{9: true})
}

func TestPerceivedLoadDeltaSign(t *testing.T) {
	fast := curvesWithMainAt(1*time.Second, 2*time.Second)
	slow := curvesWithMainAt(3*time.Second, 4*time.Second)
	pop := population(t, Paid, 50)
	for _, p := range pop {
		// A slow, B fast: positive delta (A felt slower).
		if d := p.PerceivedLoadDelta(slow, fast); d <= 0 {
			t.Fatalf("slow-vs-fast delta = %v, want positive", d)
		}
		// Symmetric in sign.
		if d := p.PerceivedLoadDelta(fast, slow); d >= 0 {
			t.Fatalf("fast-vs-slow delta = %v, want negative", d)
		}
		// Identical sides: zero.
		if d := p.PerceivedLoadDelta(fast, fast); d != 0 {
			t.Fatalf("identical sides delta = %v, want 0", d)
		}
	}
}

func TestPerceivedLoadDeltaAdSensitivity(t *testing.T) {
	// Sides whose MAIN content ties but whose ads differ: only ad-waiters
	// perceive a gap — the §5.4 indecision mechanism.
	sameMainEarlyAds := curvesWithMainAt(1500*time.Millisecond, 2*time.Second)
	sameMainLateAds := curvesWithMainAt(1500*time.Millisecond, 6*time.Second)
	pop := population(t, Paid, 400)
	var waiterGap, indifferentGap time.Duration
	var waiters, indifferent int
	for _, p := range pop {
		d := p.PerceivedLoadDelta(sameMainLateAds, sameMainEarlyAds)
		if p.WaitsForAds {
			waiterGap += d
			waiters++
		} else {
			indifferentGap += d
			indifferent++
		}
	}
	if waiters == 0 || indifferent == 0 {
		t.Skip("population draw missing a class")
	}
	if waiterGap/time.Duration(waiters) <= 0 {
		t.Fatal("ad-waiters did not perceive the late-ads side as slower")
	}
	if indifferentGap != 0 {
		t.Fatalf("ad-indifferent participants perceived an ad-only gap: %v", indifferentGap)
	}
}
