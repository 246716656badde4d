package eyeorg_test

import (
	"os/exec"
	"strings"
	"testing"
)

// serverPackages is what a server is built from: the platform, the tiers
// under it, and the few leaf packages it shares with the paper
// reproduction (the §4.3 rules, the survey records they read, the EYV1
// video codec it validates uploads with). Nothing of the page-load
// simulator, the simulated crowd or the experiment suite belongs here. A
// new import that pulls another package into internal/platform or the
// server binary fails TestServerDeps until it is added here, on purpose.
var serverPackages = map[string]bool{
	"internal/platform":  true,
	"internal/store":     true,
	"internal/blob":      true,
	"internal/quality":   true,
	"internal/adaptive":  true,
	"internal/wire":      true,
	"internal/trace":     true,
	"internal/telemetry": true,
	"internal/filtering": true,
	"internal/survey":    true,
	"internal/video":     true,
	"internal/vision":    true,
	"internal/stats":     true,
	"internal/rng":       true,
}

// TestServerDeps lists the module packages internal/platform and the
// server binary are linked from (go list -deps, test files aside) and
// fails on any that is neither on serverPackages nor the binary itself.
// Run it with -v to log each closure.
func TestServerDeps(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	const module = "github.com/eyeorg/eyeorg"
	for _, target := range []string{"./internal/platform", "./cmd/eyeorg-server"} {
		out, err := exec.Command("go", "list", "-deps", target).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", target, err)
		}
		var own []string
		for _, pkg := range strings.Fields(string(out)) {
			if pkg != module && !strings.HasPrefix(pkg, module+"/") {
				continue // the standard library
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(pkg, module), "/")
			own = append(own, rel)
			if !serverPackages[rel] && rel != strings.TrimPrefix(target, "./") {
				t.Errorf("%s links %s, which is not on the server allowlist", target, pkg)
			}
		}
		t.Logf("%s: %d packages: %s", target, len(own), strings.Join(own, " "))
	}
}
