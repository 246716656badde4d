package eyeorg_test

import (
	"os/exec"
	"strings"
	"testing"
)

// serverPackages is what a server is built from: the platform, the tiers
// under it, and the few leaf packages it shares with the paper
// reproduction (the §4.3 rules, the participant records they read, the
// EYV1 video codec it validates uploads with). Nothing of the page-load
// simulator, the simulated crowd or the experiment suite belongs here. A
// new import that pulls another package into internal/platform or the
// server binary fails TestServerDeps until it is added here, on purpose.
var serverPackages = map[string]bool{
	"internal/platform":       true,
	"internal/platform/state": true,
	"internal/store":          true,
	"internal/blob":           true,
	"internal/quality":        true,
	"internal/adaptive":       true,
	"internal/wire":           true,
	"internal/trace":          true,
	"internal/telemetry":      true,
	"internal/filtering":      true,
	"internal/response":       true,
	"internal/video":          true,
	"internal/vision":         true,
	"internal/stats":          true,
	"internal/rng":            true,
}

// module is the import path every package of this repository has.
const module = "github.com/eyeorg/eyeorg"

// deps returns what target is linked from (go list -deps, test files
// aside, the standard library included), skipping t without a go
// toolchain.
func deps(t *testing.T, target string) []string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", target).Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", target, err)
	}
	return strings.Fields(string(out))
}

// TestServerDeps lists the module packages internal/platform and the
// server binary are linked from and fails on any that is neither on
// serverPackages nor the binary itself. Run it with -v to log each
// closure.
func TestServerDeps(t *testing.T) {
	for _, target := range []string{"./internal/platform", "./cmd/eyeorg-server"} {
		var own []string
		for _, pkg := range deps(t, target) {
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

// TestStateDeps holds the campaign state machine to what it is: the
// closure of internal/platform/state, standard library included, has
// neither net/http nor internal/telemetry, which are the HTTP tier's, nor
// the frame code of internal/video and internal/vision, which only the
// upload check and the tests participants take need, and every module
// package in it is on serverPackages. Run it with -v to log the closure.
func TestStateDeps(t *testing.T) {
	const target = "./internal/platform/state"
	var own []string
	for _, pkg := range deps(t, target) {
		rel, ok := strings.CutPrefix(pkg, module+"/")
		switch {
		case pkg == "net/http", pkg == module+"/internal/telemetry":
			t.Errorf("%s links %s, which belongs to the HTTP tier", target, pkg)
		case rel == "internal/video", rel == "internal/vision", rel == "internal/survey":
			t.Errorf("%s links %s, frame code the §4.3 fold does not read", target, pkg)
		case ok && !serverPackages[rel]:
			t.Errorf("%s links %s, which is not on the server allowlist", target, pkg)
		}
		if ok {
			own = append(own, rel)
		}
	}
	t.Logf("%s: %d module packages: %s", target, len(own), strings.Join(own, " "))
}
