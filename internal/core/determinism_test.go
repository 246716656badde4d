package core

import (
	"reflect"
	"testing"

	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/recruit"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/webpage"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// The determinism contract of the parallel engine: every parallel path
// must produce exactly the same structs as the serial path for the same
// seed. These tests pin it with reflect.DeepEqual across worker counts.

const detSeed = 77

func detPages(t *testing.T, sites int) []*webpage.Page {
	t.Helper()
	return sitegen.Generate(sitegen.Config{Seed: detSeed, Sites: sites, AdShare: 0.7})
}

func TestBuildTimelineCampaignWorkerCountInvariant(t *testing.T) {
	pages := detPages(t, 6)
	serial, err := BuildTimelineCampaign("det-tl", pages, webpeg.Config{Seed: detSeed, Loads: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildTimelineCampaign("det-tl", pages, webpeg.Config{Seed: detSeed, Loads: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("timeline campaign differs between Workers=1 and Workers=8")
	}
}

func TestBuildABCampaignWorkerCountInvariant(t *testing.T) {
	pages := detPages(t, 6)
	cfgA := webpeg.Config{Seed: detSeed, Loads: 3, Protocol: httpsim.HTTP1, Workers: 1}
	cfgB := webpeg.Config{Seed: detSeed, Loads: 3, Protocol: httpsim.HTTP2, Workers: 1}
	serial, err := BuildABCampaign("det-ab", pages, cfgA, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	cfgA.Workers, cfgB.Workers = 8, 8
	parallel, err := BuildABCampaign("det-ab", pages, cfgA, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("A/B campaign differs between Workers=1 and Workers=8")
	}
}

func TestRunCampaignWorkerCountInvariant(t *testing.T) {
	for name, build := range map[string]func() (*Campaign, error){
		"timeline": func() (*Campaign, error) {
			return BuildTimelineCampaign("det-run-tl", detPages(t, 5), webpeg.Config{Seed: detSeed, Loads: 3})
		},
		"ab": func() (*Campaign, error) {
			cfgA := webpeg.Config{Seed: detSeed, Loads: 3, Protocol: httpsim.HTTP1}
			cfgB := webpeg.Config{Seed: detSeed, Loads: 3, Protocol: httpsim.HTTP2}
			return BuildABCampaign("det-run-ab", detPages(t, 5), cfgA, cfgB)
		},
	} {
		t.Run(name, func(t *testing.T) {
			// Two independent campaign builds, so the lazily cached A/B
			// control questions of the first run cannot leak into the
			// second: each run starts from a pristine campaign.
			cSerial, err := build()
			if err != nil {
				t.Fatal(err)
			}
			cParallel, err := build()
			if err != nil {
				t.Fatal(err)
			}
			serial, err := RunCampaignWorkers(cSerial, recruit.CrowdFlower, 40, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := RunCampaignWorkers(cParallel, recruit.CrowdFlower, 40, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Records, parallel.Records) {
				t.Fatal("session records differ between workers=1 and workers=8")
			}
			if !reflect.DeepEqual(serial.Outcome, parallel.Outcome) {
				t.Fatal("filtering outcome differs between workers=1 and workers=8")
			}
			if !reflect.DeepEqual(serial.Campaign, parallel.Campaign) {
				t.Fatal("campaign state (incl. cached A/B controls) differs between workers=1 and workers=8")
			}
			if !reflect.DeepEqual(serial.Recruitment, parallel.Recruitment) {
				t.Fatal("recruitment differs between workers=1 and workers=8")
			}
		})
	}
}
