package experiments

import (
	"io"
	"maps"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/core"
	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/stats"
)

// suite is shared across tests in this package: campaigns are expensive
// and memoized, and every figure reads from the same runs — exactly how
// the paper's analysis reads one dataset.
var suite = NewSuite(QuickConfig())

func TestTable1Shape(t *testing.T) {
	rows, err := suite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table 1 has %d rows, want 7", len(rows))
	}
	// Validation rows first (paid, trusted, paid, trusted), then 3 final.
	if rows[0].Class.String() != "paid" || rows[1].Class.String() != "trusted" {
		t.Fatal("row order wrong")
	}
	for i, r := range rows {
		if r.Participants == 0 || r.Sites == 0 {
			t.Fatalf("row %d empty: %+v", i, r)
		}
		if r.Male+r.Female != r.Participants {
			t.Fatalf("row %d gender split inconsistent", i)
		}
	}
	// Paid pools lose ~20% to filtering; trusted far less.
	paidDrop := float64(rows[0].Filtered.Dropped()) / float64(rows[0].Participants)
	trustedDrop := float64(rows[1].Filtered.Dropped()) / float64(rows[1].Participants)
	if paidDrop < 0.05 || paidDrop > 0.40 {
		t.Fatalf("paid validation drop rate %.2f outside plausible band", paidDrop)
	}
	if trustedDrop >= paidDrop {
		t.Fatalf("trusted drop %.2f not below paid %.2f", trustedDrop, paidDrop)
	}
	// Cost and duration: trusted slower and free.
	if rows[1].CostDollars != 0 || rows[0].CostDollars == 0 {
		t.Fatal("cost columns wrong")
	}
	if rows[1].Duration <= rows[0].Duration {
		t.Fatal("trusted recruitment should take far longer")
	}
}

func TestFigure4TimeAndActions(t *testing.T) {
	a, err := suite.Figure4a()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"timeline/paid", "timeline/trusted", "ab/paid", "ab/trusted"} {
		if len(a[key]) == 0 {
			t.Fatalf("figure 4(a) missing series %s", key)
		}
	}
	// Timeline takes longer than A/B (§4.2: ~3x).
	tlMed := stats.Sample(a["timeline/paid"]).Median()
	abMed := stats.Sample(a["ab/paid"]).Median()
	if tlMed <= abMed {
		t.Fatalf("timeline median %.1fmin not above A/B %.1fmin", tlMed, abMed)
	}

	b, err := suite.Figure4b()
	if err != nil {
		t.Fatal(err)
	}
	// Timeline needs more interaction than A/B.
	if stats.Sample(b["timeline/paid"]).Median() <= stats.Sample(b["ab/paid"]).Median() {
		t.Fatal("timeline actions not above A/B actions")
	}
}

func TestFigure4cControlCorrectness(t *testing.T) {
	c, err := suite.Figure4c()
	if err != nil {
		t.Fatal(err)
	}
	for key, pct := range c {
		if pct < 75 || pct > 100 {
			t.Fatalf("series %s control correctness %.1f%% implausible", key, pct)
		}
	}
	// Paid participants fail control questions more often than trusted.
	if c["timeline/paid"] > c["timeline/trusted"] {
		t.Fatalf("paid timeline correctness %.1f above trusted %.1f", c["timeline/paid"], c["timeline/trusted"])
	}
}

func TestFigure5OutOfFocus(t *testing.T) {
	res, err := suite.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res["timeline L<=2s"])+len(res["timeline L<=10s"])+len(res["timeline L<=100s"]) == 0 {
		t.Fatal("no timeline-paid participants bucketed")
	}
	if len(res["ab paid"]) == 0 || len(res["timeline trusted"]) == 0 {
		t.Fatal("reference series missing")
	}
	// Most participants have near-zero out-of-focus time (the paper's CDF
	// starts at ~0.8).
	all := append(append([]float64{}, res["timeline L<=2s"]...), res["ab paid"]...)
	zeroish := 0
	for _, v := range all {
		if v < 1 {
			zeroish++
		}
	}
	if float64(zeroish)/float64(len(all)) < 0.5 {
		t.Fatal("too many distracted participants; focus model off")
	}
}

func TestFigure6Wisdom(t *testing.T) {
	a, err := suite.Figure6a()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no sample videos")
	}
	b, err := suite.Figure6b()
	if err != nil {
		t.Fatal(err)
	}
	// Filtering tightens: 25-75th stdevs below unfiltered, and paid
	// filtered approaches trusted (Figure 6(b)'s punchline).
	paidAll := stats.Sample(b["paid all"]).Median()
	paid2575 := stats.Sample(b["paid 25-75th"]).Median()
	trustedAll := stats.Sample(b["trusted all"]).Median()
	if paid2575 >= paidAll {
		t.Fatalf("25-75 filtering did not tighten paid stdevs: %.2f -> %.2f", paidAll, paid2575)
	}
	if paidAll <= trustedAll {
		t.Fatalf("unfiltered paid (%.2f) should be wider than trusted (%.2f)", paidAll, trustedAll)
	}

	c, err := suite.Figure6c()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"paid", "trusted"} {
		if len(c[label]) == 0 {
			t.Fatalf("agreement series %s missing", label)
		}
		if min := stats.Sample(c[label]).Min(); min < 33 {
			t.Fatalf("%s minimum agreement %.0f%% below the 3-way-split floor", label, min)
		}
	}
}

func TestFigure7aHelperEffect(t *testing.T) {
	rows, err := suite.Figure7a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Submitted > r.Slider {
			t.Fatalf("video %d: submitted %.2f above slider %.2f", r.VideoIndex, r.Submitted, r.Slider)
		}
	}
}

func TestFigure7bCorrelationOrdering(t *testing.T) {
	res, err := suite.Figure7b()
	if err != nil {
		t.Fatal(err)
	}
	on := res.Correlation["onload"]
	si := res.Correlation["speedindex"]
	lvc := res.Correlation["lastvisualchange"]
	fvc := res.Correlation["firstvisualchange"]
	t.Logf("correlations: onload=%.2f speedindex=%.2f lvc=%.2f fvc=%.2f", on, si, lvc, fvc)
	// The paper's ordering: OnLoad and FVC high (~0.85), SpeedIndex lower
	// (~0.68), LastVisualChange lowest (~0.47).
	if !(on > 0.6 && fvc > 0.55) {
		t.Fatalf("onload/fvc correlations too low: %.2f / %.2f", on, fvc)
	}
	if !(lvc < on && lvc < fvc) {
		t.Fatalf("lastvisualchange (%.2f) must correlate worst", lvc)
	}
	if si >= on {
		t.Fatalf("speedindex (%.2f) should correlate below onload (%.2f)", si, on)
	}
}

func TestFigure7cBias(t *testing.T) {
	res, err := suite.Figure7c()
	if err != nil {
		t.Fatal(err)
	}
	// OnLoad overestimates (most differences negative); FVC underestimates
	// (most positive); LVC overestimates hard.
	frac := func(vals []float64, below float64) float64 {
		n := 0
		for _, v := range vals {
			if v < below {
				n++
			}
		}
		return float64(n) / float64(len(vals))
	}
	if f := frac(res["onload"], 0); f < 0.4 {
		t.Fatalf("UPLT below onload for only %.0f%% of sites; onload should overestimate", 100*f)
	}
	if f := frac(res["firstvisualchange"], 0); f > 0.4 {
		t.Fatalf("UPLT below first paint for %.0f%% of sites; fvc should underestimate", 100*f)
	}
	if f := frac(res["lastvisualchange"], 0); f < 0.6 {
		t.Fatalf("lastvisualchange should overestimate nearly always (got %.0f%%)", 100*f)
	}
}

func TestFigure8aAgreementGrowsWithDelta(t *testing.T) {
	res, err := suite.Figure8a()
	if err != nil {
		t.Fatal(err)
	}
	// The paper finds monotone growth for OnLoad and FirstVisualChange;
	// SpeedIndex and LastVisualChange explicitly do NOT grow monotonically
	// (§5.2), so only the well-behaved metrics are asserted here.
	for _, m := range []string{"onload", "firstvisualchange"} {
		series := res.MedianAgreement[m]
		var lowHalf, highHalf []float64
		for i, v := range series {
			if v == 0 {
				continue
			}
			if i < len(series)/2 {
				lowHalf = append(lowHalf, v)
			} else {
				highHalf = append(highHalf, v)
			}
		}
		if len(lowHalf) == 0 || len(highHalf) == 0 {
			t.Skipf("metric %s: not enough populated buckets at quick scale", m)
		}
		lo := stats.Sample(lowHalf).Mean()
		hi := stats.Sample(highHalf).Mean()
		// Allow small-sample noise; the trend must not invert materially.
		if hi < lo-5 {
			t.Fatalf("metric %s: agreement fell from %.0f to %.0f as delta grew", m, lo, hi)
		}
	}
}

func TestFigure8bH2Wins(t *testing.T) {
	res, err := suite.Figure8b()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) == 0 {
		t.Fatal("no scored sites")
	}
	strongH2, strongH1 := 0, 0
	for _, s := range res.All {
		if s >= 0.8 {
			strongH2++
		}
		if s <= 0.2 {
			strongH1++
		}
	}
	h2Share := float64(strongH2) / float64(len(res.All))
	h1Share := float64(strongH1) / float64(len(res.All))
	t.Logf("H2 strong %.0f%%, H1 strong %.0f%% of %d sites", 100*h2Share, 100*h1Share, len(res.All))
	// Paper: ~70% score >= 0.8; ~12% score <= 0.2.
	if h2Share < 0.45 {
		t.Fatalf("only %.0f%% of sites clearly favour H2; want a strong majority", 100*h2Share)
	}
	if h1Share > h2Share {
		t.Fatal("H1 beats H2 overall; protocol effect inverted")
	}
	// Large-delta subset shows more consensus than small-delta subset.
	if len(res.SmallDelta) > 2 && len(res.LargeDelta) > 2 {
		indecision := func(vals []float64) float64 {
			n := 0
			for _, v := range vals {
				if v > 0.2 && v < 0.8 {
					n++
				}
			}
			return float64(n) / float64(len(vals))
		}
		if indecision(res.LargeDelta) > indecision(res.SmallDelta) {
			t.Fatalf("large-delta pairs more contested (%.2f) than small-delta (%.2f)",
				indecision(res.LargeDelta), indecision(res.SmallDelta))
		}
	}
}

func TestFigure8cGhosteryWins(t *testing.T) {
	res, err := suite.Figure8c()
	if err != nil {
		t.Fatal(err)
	}
	strong := func(name string) float64 {
		vals := res[name]
		if len(vals) == 0 {
			return 0
		}
		n := 0
		for _, v := range vals {
			if v >= 0.8 {
				n++
			}
		}
		return float64(n) / float64(len(vals))
	}
	g, a, u := strong("ghostery"), strong("adblock"), strong("ublock")
	t.Logf("strong-win shares: ghostery=%.2f adblock=%.2f ublock=%.2f", g, a, u)
	if g < a || g < u {
		t.Fatalf("ghostery (%.2f) not the clear favourite over adblock (%.2f) / ublock (%.2f)", g, a, u)
	}
}

func TestFigure9Taxonomy(t *testing.T) {
	res, err := suite.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	total := res.Counts[ShapeTight] + res.Counts[ShapeWide] + res.Counts[ShapeMulti]
	if total == 0 {
		t.Fatal("no videos classified")
	}
	if res.Counts[ShapeMulti] == 0 {
		t.Fatal("no multi-modal distributions; the ad-waiting mechanism is missing")
	}
	if res.Counts[ShapeTight] == 0 {
		t.Fatal("no tight distributions")
	}
}

func TestFigure1PicksInterestingVideo(t *testing.T) {
	res, err := suite.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) < 5 || res.Duration <= 0 {
		t.Fatalf("figure 1 data thin: %d responses, %.1fs", len(res.Responses), res.Duration)
	}
	if len(res.Markers) != 4 {
		t.Fatalf("markers = %d, want 4 metrics", len(res.Markers))
	}
}

func TestParticipantsSummary(t *testing.T) {
	sum, err := suite.Participants()
	if err != nil {
		t.Fatal(err)
	}
	total := sum.Male + sum.Female
	if total != 3*suite.Cfg.FinalParticipants {
		t.Fatalf("participants = %d, want %d", total, 3*suite.Cfg.FinalParticipants)
	}
	maleShare := float64(sum.Male) / float64(total)
	if maleShare < 0.6 || maleShare > 0.85 {
		t.Fatalf("male share %.2f outside the ~0.7 band", maleShare)
	}
	if len(sum.Countries) < 10 {
		t.Fatalf("countries = %d, want a broad pool", len(sum.Countries))
	}
	if best, n := topCountry(sum.Countries); best != "VE" || n == 0 {
		t.Fatalf("most common country = %s, want VE (Venezuela)", best)
	}
	// The summary counts exactly the final campaigns' records' personas.
	tl, _ := suite.TimelineFinal()
	h1h2, _ := suite.ABH1H2Final()
	ads, _, _ := suite.AdsFinal()
	want := &ParticipantSummary{Countries: map[string]int{}}
	for _, run := range []*core.RunResult{tl, h1h2, ads} {
		for _, rec := range run.Records {
			p := rec.Participant.(*crowd.Participant)
			switch p.Gender {
			case "m":
				want.Male++
			case "f":
				want.Female++
			}
			want.Countries[p.Country]++
		}
	}
	if sum.Male != want.Male || sum.Female != want.Female || !maps.Equal(sum.Countries, want.Countries) {
		t.Fatalf("summary %d m / %d f / %v, records hold %d / %d / %v", sum.Male, sum.Female, sum.Countries, want.Male, want.Female, want.Countries)
	}
}

func topCountry(m map[string]int) (string, int) {
	best, bestN := "", 0
	for c, n := range m {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best, bestN
}

func TestRenderAllProducesOutput(t *testing.T) {
	var sb strings.Builder
	if err := suite.RenderAll(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Figure 1", "Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("render output suspiciously short: %d bytes", len(out))
	}
}

func TestRenderAllParallelMatchesSerial(t *testing.T) {
	var serial, concurrent strings.Builder
	if err := suite.RenderAll(&serial); err != nil {
		t.Fatal(err)
	}
	if err := suite.RenderAllParallel(&concurrent, 8); err != nil {
		t.Fatal(err)
	}
	if serial.String() != concurrent.String() {
		t.Fatalf("parallel render differs from serial (%d vs %d bytes)",
			serial.Len(), concurrent.Len())
	}
}

// A fresh suite rendered in parallel must converge to the same artefacts
// as the shared (serially warmed) suite: concurrent figures racing to
// build the same campaigns go through per-campaign once-guards.
func TestParallelSuiteBuildsOnceUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full suite")
	}
	fresh := NewSuite(QuickConfig())
	var got strings.Builder
	if err := fresh.RenderAllParallel(&got, 8); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := suite.RenderAll(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("suite built under concurrent contention differs from the serially built suite")
	}
}

var _ io.Writer = (*strings.Builder)(nil)
