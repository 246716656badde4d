package webpeg

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
)

// samplePaints builds a three-stage paint timeline: skeleton at 200ms,
// hero at 800ms, ad at 2s.
func samplePaints() []browsersim.PaintEvent {
	return []browsersim.PaintEvent{
		{T: 200 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1, Salience: 0.8},
		{T: 800 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 2, W: 30, H: 10}, Value: 2, ObjectID: "hero", Salience: 1},
		{T: 2 * time.Second, Rect: vision.Rect{X: 38, Y: 0, W: 10, H: 5}, Value: 3, ObjectID: "ad", Aux: true, Salience: 0.3},
	}
}

func TestRenderTiming(t *testing.T) {
	v := Render(samplePaints(), 3*time.Second, 10)
	if v.FPS != 10 {
		t.Fatalf("fps = %d", v.FPS)
	}
	if len(v.Frames) != 31 {
		t.Fatalf("frames = %d, want 31 (t = 0 through 3s)", len(v.Frames))
	}
	if v.Frames[0].NonBlank() != 0 {
		t.Fatal("frame 0 should be blank")
	}
	// At 100ms the skeleton has not painted yet; at 200ms it has.
	if v.Frames[1].NonBlank() != 0 {
		t.Fatal("skeleton visible before its paint time")
	}
	if v.Frames[2].NonBlank() == 0 {
		t.Fatal("skeleton missing at its paint time")
	}
	// Hero appears by the 800ms frame.
	if v.Frames[8].At(5, 5) != 2 {
		t.Fatalf("hero tile = %d at 800ms", v.Frames[8].At(5, 5))
	}
	// Ad appears at 2s.
	if v.Frames[19].At(40, 2) == 3 {
		t.Fatal("ad visible before 2s")
	}
	if v.Frames[20].At(40, 2) != 3 {
		t.Fatal("ad missing at 2s")
	}
}

func TestRenderDropsLatePaints(t *testing.T) {
	v := Render(samplePaints(), time.Second, 10)
	for _, f := range v.Frames {
		if f.At(40, 2) == 3 {
			t.Fatal("paint after capture window appeared in video")
		}
	}
}

func TestRenderDefaults(t *testing.T) {
	v := Render(nil, 0, 0)
	if v.FPS != video.DefaultFPS || len(v.Frames) == 0 {
		t.Fatal("defaults not applied")
	}
}
