package video_test

import (
	"testing"

	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// BenchmarkValidate checks two payloads: the repo benchmark's delivery
// upload (41 frames of 28-bit noise, ~265 KB, every tile its own run)
// and a webpeg capture of a generated page (few long runs).
func BenchmarkValidate(b *testing.B) {
	page := sitegen.Generate(sitegen.Config{Seed: 5, Sites: 1, AdShare: 1, ComplexityScale: 1})[0]
	capture, err := webpeg.CaptureSite(page, webpeg.Config{Seed: 9, Loads: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    *video.Video
	}{
		{"noise", video.NoiseVideo(1, 41)},
		{"webpeg", capture.Video},
	} {
		data := video.Encode(c.v)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := video.Validate(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
