package core

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/recruit"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/stats"
	"github.com/eyeorg/eyeorg/internal/webpage"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// buildSmallTimeline captures a small corpus into a timeline campaign.
func buildSmallTimeline(t *testing.T, sites int, seed int64) *Campaign {
	t.Helper()
	pages := sitegen.Generate(sitegen.Config{Seed: seed, Sites: sites, AdShare: 0.7, ComplexityScale: 1})
	c, err := BuildTimelineCampaign("tl", pages, webpeg.Config{Seed: seed, Loads: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildSmallAB(t *testing.T, sites int, seed int64) *Campaign {
	t.Helper()
	pages := sitegen.Generate(sitegen.Config{Seed: seed, Sites: sites, AdShare: 0.7, ComplexityScale: 1})
	cfgA := webpeg.Config{Seed: seed, Loads: 3, Protocol: httpsim.HTTP1}
	cfgB := webpeg.Config{Seed: seed, Loads: 3, Protocol: httpsim.HTTP2}
	c, err := BuildABCampaign("h1h2", pages, cfgA, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildTimelineCampaign(t *testing.T) {
	c := buildSmallTimeline(t, 4, 1)
	if c.Kind != TimelineKind || c.Units() != 4 {
		t.Fatalf("campaign shape wrong: kind=%v units=%d", c.Kind, c.Units())
	}
	for _, u := range c.Timeline {
		if u.Video == nil || len(u.Curves.T) == 0 {
			t.Fatal("unit missing video or curves")
		}
		if u.PLT.OnLoad <= 0 || u.PLT.FirstVisualChange <= 0 {
			t.Fatalf("unit metrics implausible: %+v", u.PLT)
		}
	}
}

func TestBuildABCampaign(t *testing.T) {
	c := buildSmallAB(t, 4, 2)
	if c.Kind != ABKind || c.Units() != 4 {
		t.Fatal("campaign shape wrong")
	}
	sawLeft, sawRight := false, false
	for _, u := range c.AB {
		if u.Test == nil || u.Test.Spliced == nil {
			t.Fatal("unit missing spliced video")
		}
		if u.Test.AOnLeft {
			sawLeft = true
		} else {
			sawRight = true
		}
		if u.PLTA.OnLoad == u.PLTB.OnLoad {
			t.Fatal("H1 and H2 captures produced identical onload; variants not applied")
		}
	}
	if !sawLeft || !sawRight {
		t.Fatal("side randomization missing (all pairs on one side)")
	}
}

func TestRunCampaignAssignmentCoverage(t *testing.T) {
	c := buildSmallTimeline(t, 5, 3)
	res, err := RunCampaign(c, recruit.CrowdFlower, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 20 {
		t.Fatalf("records = %d", len(res.Records))
	}
	perVideo := map[string]int{}
	for _, rec := range res.Records {
		// 6 regular + 1 control response each.
		if len(rec.Timeline) != VideosPerParticipant+1 {
			t.Fatalf("participant has %d responses", len(rec.Timeline))
		}
		controls := 0
		for _, resp := range rec.Timeline {
			if resp.Control {
				controls++
			} else {
				perVideo[resp.VideoID]++
			}
		}
		if controls != 1 {
			t.Fatalf("participant has %d control questions, want 1", controls)
		}
		if len(rec.Trace.Videos) != VideosPerParticipant+1 {
			t.Fatalf("trace has %d videos", len(rec.Trace.Videos))
		}
	}
	// 20 participants x 6 videos / 5 units = 24 responses each.
	for id, n := range perVideo {
		if n != 24 {
			t.Fatalf("video %s has %d responses, want 24 (round-robin)", id, n)
		}
	}
}

func TestRunCampaignFiltersLowQuality(t *testing.T) {
	c := buildSmallTimeline(t, 4, 4)
	res, err := RunCampaign(c, recruit.CrowdFlower, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Outcome.Summary
	dropped := float64(s.Dropped()) / float64(s.Total)
	// §4: "about 20% of the participants ... as low performers".
	if dropped < 0.08 || dropped > 0.35 {
		t.Fatalf("dropped fraction = %.3f, want ~0.2", dropped)
	}
	if s.Engagement() == 0 || s.Control == 0 {
		t.Fatalf("expected drops in both engagement and control: %+v", s)
	}
}

func TestTrustedFilteredLess(t *testing.T) {
	c := buildSmallTimeline(t, 4, 5)
	paid, err := RunCampaign(c, recruit.CrowdFlower, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := RunCampaign(c, recruit.TrustedInvites, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	pd := float64(paid.Outcome.Summary.Dropped()) / 200
	td := float64(trusted.Outcome.Summary.Dropped()) / 200
	if td >= pd {
		t.Fatalf("trusted drop rate %.3f not below paid %.3f", td, pd)
	}
}

func TestRunABCampaign(t *testing.T) {
	c := buildSmallAB(t, 4, 6)
	res, err := RunCampaign(c, recruit.CrowdFlower, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	votes := filtering.ABByVideo(res.KeptRecords())
	if len(votes) != 4 {
		t.Fatalf("votes for %d pairs, want 4", len(votes))
	}
	total := 0
	for _, v := range votes {
		total += v.Total()
	}
	if total == 0 {
		t.Fatal("no decisive votes collected")
	}
}

func TestWisdomOfCrowdTightensCampaignResponses(t *testing.T) {
	// Figure 6(b): the 25-75th percentile filter brings paid stdevs down.
	c := buildSmallTimeline(t, 4, 7)
	res, err := RunCampaign(c, recruit.CrowdFlower, 240, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := filtering.TimelineByVideo(res.KeptRecords())
	woc := filtering.WisdomOfCrowd(raw)
	for id := range raw {
		rs := stats.Sample(raw[id]).Stdev()
		ws := stats.Sample(woc[id]).Stdev()
		if ws > rs {
			t.Fatalf("video %s: stdev grew after filtering (%.3f -> %.3f)", id, rs, ws)
		}
	}
}

func TestStatsRow(t *testing.T) {
	c := buildSmallTimeline(t, 3, 8)
	res, err := RunCampaign(c, recruit.CrowdFlower, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Stats()
	if row.Participants != 50 || row.Male+row.Female != 50 {
		t.Fatalf("row = %+v", row)
	}
	if row.Sites != 3 || row.CostDollars != 6 {
		t.Fatalf("row sites/cost wrong: %+v", row)
	}
	if row.Duration <= 0 || row.Countries < 2 {
		t.Fatalf("row duration/countries wrong: %+v", row)
	}
	// The row counts the recruited personas; they are the records' own
	// participants, in the same order.
	male, female, countries := 0, 0, map[string]bool{}
	for i, rec := range res.Records {
		p := rec.Participant.(*crowd.Participant)
		if p != res.Recruitment.Participants[i] {
			t.Fatalf("record %d belongs to %s, recruit %d is %s", i, p.ID, i, res.Recruitment.Participants[i].ID)
		}
		switch p.Gender {
		case "m":
			male++
		case "f":
			female++
		}
		countries[p.Country] = true
	}
	if row.Male != male || row.Female != female || row.Countries != len(countries) {
		t.Fatalf("row counts %d m / %d f / %d countries, records hold %d / %d / %d", row.Male, row.Female, row.Countries, male, female, len(countries))
	}
}

func TestRunCampaignDeterministic(t *testing.T) {
	c := buildSmallTimeline(t, 3, 9)
	a, err := RunCampaign(c, recruit.CrowdFlower, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(c, recruit.CrowdFlower, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		for j := range ra.Timeline {
			if ra.Timeline[j].Submitted != rb.Timeline[j].Submitted {
				t.Fatal("responses differ across identical runs")
			}
		}
	}
}

func TestEmptyCampaignRejected(t *testing.T) {
	c := &Campaign{Name: "empty", Kind: TimelineKind}
	if _, err := RunCampaign(c, recruit.CrowdFlower, 10, 0); err == nil {
		t.Fatal("empty campaign accepted")
	}
}

func TestAuxTiles(t *testing.T) {
	pages := sitegen.GenerateAdCorpus(10, 1)
	aux := AuxTiles(pages[0])
	if len(aux) == 0 {
		t.Fatal("ad page has no aux tiles")
	}
	for i, o := range pages[0].Objects {
		tile := webpage.TileValue(i)
		if o.Aux && o.Visible() && !aux[tile] {
			t.Fatal("visible aux object missing from tile set")
		}
		if (!o.Aux || !o.Visible()) && aux[tile] {
			t.Fatal("non-aux tile marked aux")
		}
	}
}

func TestKindString(t *testing.T) {
	if TimelineKind.String() != "timeline" || ABKind.String() != "a/b" {
		t.Fatal("kind labels wrong")
	}
}

func TestCampaignSeedsDiffer(t *testing.T) {
	// Different seeds must give different participant answers.
	c1 := buildSmallTimeline(t, 3, 100)
	c2 := buildSmallTimeline(t, 3, 100)
	c2.Seed = 101
	a, _ := RunCampaign(c1, recruit.CrowdFlower, 30, 0)
	b, _ := RunCampaign(c2, recruit.CrowdFlower, 30, 0)
	same := 0
	n := 0
	for i := range a.Records {
		for j := range a.Records[i].Timeline {
			n++
			if a.Records[i].Timeline[j].Submitted == b.Records[i].Timeline[j].Submitted {
				same++
			}
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical campaigns")
	}
}

var _ = time.Second
