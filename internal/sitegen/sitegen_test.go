package sitegen

import (
	"reflect"
	"testing"

	"github.com/eyeorg/eyeorg/internal/webpage"
)

// defaultConfig is the corpus shape of the paper's campaigns: 100 sites,
// ~2/3 ad-supported.
func defaultConfig(seed int64) Config {
	return Config{Seed: seed, Sites: 100, AdShare: 0.65}
}

func TestGenerateCountAndValidity(t *testing.T) {
	pages := Generate(defaultConfig(1))
	if len(pages) != 100 {
		t.Fatalf("generated %d pages, want 100", len(pages))
	}
	for i, p := range pages {
		if err := p.Validate(); err != nil {
			t.Fatalf("page %d invalid: %v", i, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(defaultConfig(42))
	b := Generate(defaultConfig(42))
	for i := range a {
		if a[i].URL != b[i].URL {
			t.Fatalf("page %d URL differs across runs", i)
		}
		if len(a[i].Objects) != len(b[i].Objects) {
			t.Fatalf("page %d object count differs: %d vs %d", i, len(a[i].Objects), len(b[i].Objects))
		}
		if a[i].TotalBytes() != b[i].TotalBytes() {
			t.Fatalf("page %d weight differs", i)
		}
	}
}

func TestSeedChangesCorpus(t *testing.T) {
	a := Generate(defaultConfig(1))
	b := Generate(defaultConfig(2))
	same := 0
	for i := range a {
		if a[i].TotalBytes() == b[i].TotalBytes() {
			same++
		}
	}
	if same > len(a)/4 {
		t.Fatalf("%d/%d pages identical across different seeds", same, len(a))
	}
}

func TestAdShareRespected(t *testing.T) {
	cfg := defaultConfig(7)
	cfg.AdShare = 0.65
	pages := Generate(cfg)
	withAds := 0
	for _, p := range pages {
		if p.HasAds() {
			withAds++
		}
	}
	if withAds < 50 || withAds > 80 {
		t.Fatalf("ad-supported pages = %d/100, want ~65", withAds)
	}

	cfg.AdShare = 0
	for _, p := range Generate(cfg) {
		if p.HasAds() {
			t.Fatal("AdShare=0 corpus contains ads")
		}
	}
}

func TestGenerateAdCorpusAllHaveAds(t *testing.T) {
	for _, p := range GenerateAdCorpus(3, 50) {
		if !p.HasAds() {
			t.Fatal("ad corpus page without ads")
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRealisticComplexity(t *testing.T) {
	pages := Generate(defaultConfig(11))
	var objs, bytes, hosts float64
	for _, p := range pages {
		objs += float64(len(p.Objects))
		bytes += float64(p.TotalBytes())
		hosts += float64(len(p.Hosts()))
	}
	n := float64(len(pages))
	meanObjs, meanBytes, meanHosts := objs/n, bytes/n, hosts/n
	if meanObjs < 15 || meanObjs > 120 {
		t.Fatalf("mean objects/page = %.1f, outside plausible [15,120]", meanObjs)
	}
	if meanBytes < 500_000 || meanBytes > 6_000_000 {
		t.Fatalf("mean page weight = %.0f bytes, outside plausible [0.5MB,6MB]", meanBytes)
	}
	if meanHosts < 3 || meanHosts > 30 {
		t.Fatalf("mean hosts/page = %.1f, outside plausible [3,30]", meanHosts)
	}
}

func TestStructuralFeatures(t *testing.T) {
	pages := Generate(defaultConfig(13))
	sawRenderBlocking, sawInjected, sawDeferred, sawHero := 0, 0, 0, 0
	for _, p := range pages {
		hero := false
		for _, o := range p.Objects {
			if o.RenderBlocking {
				sawRenderBlocking++
			}
			if o.Injected {
				sawInjected++
			}
			if o.Deferred {
				sawDeferred++
			}
			if o.Salience == 1.0 && o.Kind == webpage.KindImage {
				hero = true
			}
		}
		if hero {
			sawHero++
		}
	}
	if sawRenderBlocking == 0 || sawDeferred == 0 {
		t.Fatal("corpus missing render-blocking or deferred objects")
	}
	if sawInjected == 0 {
		t.Fatal("corpus missing script-injected objects")
	}
	if sawHero != len(pages) {
		t.Fatalf("only %d/%d pages have a hero image", sawHero, len(pages))
	}
}

func TestAdPagesHaveAboveFoldAds(t *testing.T) {
	pages := GenerateAdCorpus(17, 30)
	for _, p := range pages {
		found := false
		for _, o := range p.Objects {
			if o.Kind == webpage.KindAd && o.AboveFold() {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("ad page %s has no above-fold ad", p.URL)
		}
	}
}

func TestInjectedAdsParentIsScript(t *testing.T) {
	pages := GenerateAdCorpus(19, 20)
	for _, p := range pages {
		for _, o := range p.Objects {
			if !o.Injected {
				continue
			}
			parent := p.ObjectByID(o.Parent)
			if parent == nil || parent.Kind != webpage.KindJS {
				t.Fatalf("injected %s on %s has bad parent", o.ID, p.URL)
			}
		}
	}
}

func TestAdHostsShareNetworks(t *testing.T) {
	// Ad hosts must come from the fixed network pool so blocker lists can
	// cover them.
	pages := GenerateAdCorpus(23, 40)
	known := map[string]bool{}
	for k := 0; k < AdNetworkCount; k++ {
		known[AdHost(k)] = true
		known[TrackerHost(k)] = true
	}
	for _, p := range pages {
		for _, o := range p.Objects {
			if o.Kind == webpage.KindAd || o.Kind == webpage.KindTracker {
				if !known[o.Host] {
					t.Fatalf("ad/tracker host %s outside the network pool", o.Host)
				}
			}
		}
	}
}

// TestComplexityScale: the deprecated knob is ignored, so a corpus is the
// same whatever it is set to.
func TestComplexityScale(t *testing.T) {
	want := Generate(Config{Seed: 5, Sites: 4, AdShare: 0.5})
	for _, scale := range []float64{0.5, 1, 2} {
		got := Generate(Config{Seed: 5, Sites: 4, AdShare: 0.5, ComplexityScale: scale})
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("ComplexityScale %v changed site %d", scale, i)
			}
		}
	}
}

func TestZeroSites(t *testing.T) {
	if pages := Generate(Config{Seed: 1, Sites: 0}); pages != nil {
		t.Fatal("zero-site corpus should be nil")
	}
}

func TestSiteDiversity(t *testing.T) {
	// Load-time experiments need real spread across sites; verify weights
	// span at least 4x between light and heavy pages.
	pages := Generate(defaultConfig(29))
	min, max := pages[0].TotalBytes(), pages[0].TotalBytes()
	for _, p := range pages {
		if b := p.TotalBytes(); b < min {
			min = b
		} else if b > max {
			max = b
		}
	}
	if max < min*4 {
		t.Fatalf("page weights too uniform: min=%d max=%d", min, max)
	}
}

func TestHostNamingStable(t *testing.T) {
	for k := 0; k < AdNetworkCount*2; k++ {
		if AdHost(k) != AdHost(k%AdNetworkCount) {
			t.Fatal("AdHost does not wrap around the pool")
		}
	}
	if AdHost(0) == TrackerHost(0) {
		t.Fatal("ad and tracker hosts collide")
	}
	if AdHost(1) == AdHost(2) {
		t.Fatal("distinct networks share a host")
	}
}
