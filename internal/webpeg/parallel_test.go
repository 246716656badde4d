package webpeg

import (
	"reflect"
	"testing"

	"github.com/eyeorg/eyeorg/internal/sitegen"
)

// CaptureCorpus must return exactly the captures a serial loop over
// CaptureSite would: per-site randomness forks from the seed by URL, so
// the worker count cannot influence any capture.
func TestCaptureCorpusWorkerCountInvariant(t *testing.T) {
	pages := sitegen.Generate(sitegen.Config{Seed: 31, Sites: 6, AdShare: 0.5})
	serial, err := CaptureCorpus(pages, Config{Seed: 31, Loads: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CaptureCorpus(pages, Config{Seed: 31, Loads: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Result holds live request callbacks (func fields DeepEqual can never
	// match across builds), so compare the deterministic capture data.
	sameCapture := func(t *testing.T, i int, a, b *Capture) {
		t.Helper()
		if a.Page != b.Page {
			t.Fatalf("capture %d: page identity differs", i)
		}
		if !reflect.DeepEqual(a.OnLoads, b.OnLoads) || a.MedianIndex != b.MedianIndex {
			t.Fatalf("capture %d: trial onloads differ (%v/%d vs %v/%d)",
				i, a.OnLoads, a.MedianIndex, b.OnLoads, b.MedianIndex)
		}
		if !reflect.DeepEqual(a.Video, b.Video) {
			t.Fatalf("capture %d: videos differ", i)
		}
		if a.Selected.OnLoad != b.Selected.OnLoad || !reflect.DeepEqual(a.Selected.Paints, b.Selected.Paints) {
			t.Fatalf("capture %d: selected load differs", i)
		}
	}
	if len(serial) != len(parallel) {
		t.Fatalf("capture counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		sameCapture(t, i, serial[i], parallel[i])
		one, err := CaptureSite(pages[i], Config{Seed: 31, Loads: 3})
		if err != nil {
			t.Fatal(err)
		}
		sameCapture(t, i, serial[i], one)
	}
}
