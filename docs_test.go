// Documentation gates: every relative link in README.md and docs/
// must resolve to a real file (offline, path-existence only), and
// every fenced code block tagged `go` must be a complete file that
// compiles against this module, and the metric names the docs quote
// must be the ones /metrics serves — docs that drift from the code fail
// CI instead of rotting. (The flag tables are held to the binaries the
// same way by TestDocsFlagsRegistered in each cmd package: a main
// package cannot be imported from here.)
package eyeorg_test

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("reading docs/: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	if len(files) < 4 {
		t.Fatalf("expected README + at least 3 docs pages, found %v", files)
	}
	return files
}

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsLinkCheck verifies every relative link target exists on
// disk. External links (http/https/mailto) are skipped — the check
// must pass offline.
func TestDocsLinkCheck(t *testing.T) {
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(stripCodeBlocks(string(body)), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			if path == "" {
				// Pure fragment: an anchor within the same file. Anchor
				// names aren't verified (GitHub's slugger is out of
				// scope); the file itself obviously exists.
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), path)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", file, target, resolved, err)
			}
			_ = frag
		}
	}
}

// stripCodeBlocks removes fenced code blocks so link syntax inside
// examples doesn't trip the checker.
func stripCodeBlocks(s string) string {
	var out strings.Builder
	inFence := false
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// goSnippets extracts the contents of every ```go fenced block.
func goSnippets(t *testing.T, file string) []string {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var snippets []string
	var cur strings.Builder
	inGo := false
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case !inGo && trimmed == "```go":
			inGo = true
			cur.Reset()
		case inGo && trimmed == "```":
			inGo = false
			snippets = append(snippets, cur.String())
		case inGo:
			cur.WriteString(line)
			cur.WriteByte('\n')
		}
	}
	return snippets
}

// TestDocsGoSnippets compiles every go-tagged block in the docs. Each
// block must be a complete file (starting with a package clause);
// blocks land in a throwaway module that replaces this module's path
// with the repo root, so imports of github.com/eyeorg/eyeorg resolve
// locally and the test runs offline.
func TestDocsGoSnippets(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, file := range docFiles(t) {
		for i, snippet := range goSnippets(t, file) {
			total++
			if !strings.HasPrefix(strings.TrimSpace(snippet), "package ") {
				t.Errorf("%s: go snippet %d must be a complete file starting with a package clause", file, i+1)
				continue
			}
			dir := t.TempDir()
			mod := fmt.Sprintf("module docsnippet\n\ngo 1.22\n\nrequire github.com/eyeorg/eyeorg v0.0.0\n\nreplace github.com/eyeorg/eyeorg => %s\n", root)
			if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(snippet), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "build", "./...")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("%s: go snippet %d does not compile:\n%s\n--- snippet ---\n%s", file, i+1, out, snippet)
			}
		}
	}
	if total == 0 {
		t.Fatal("no go-tagged snippets found in the docs — the extraction is broken")
	}
}

// seriesName matches a metric name as the docs quote it; one that ends
// in "_" is a family prefix ("eyeorg_http_*").
var seriesName = regexp.MustCompile(`eyeorg_[a-z0-9_]+`)

// registeredSeries scrapes h's /metrics and returns the series names
// its TYPE lines declare.
func registeredSeries(t *testing.T, h http.Handler) map[string]bool {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names[f[2]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("exposition declares no series")
	}
	return names
}

// TestDocsMetricNamesRegistered ties the metrics reference to the
// registries both ways: every eyeorg_* name README.md or
// docs/OPERATIONS.md quotes is a series a durable, tracing-on server
// really serves, and every series it serves is named in full in docs/OPERATIONS.md — an abbreviated name is one no
// grep, dashboard query or benchmark scrape can match.
func TestDocsMetricNamesRegistered(t *testing.T) {
	srv, err := platform.Open(platform.Options{DataDir: t.TempDir(), TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	registered := registeredSeries(t, srv.Handler())

	documented := map[string]bool{} // names docs/OPERATIONS.md spells out
	for _, file := range []string{"README.md", filepath.Join("docs", "OPERATIONS.md")} {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range seriesName.FindAllString(string(body), -1) {
			found := registered[name]
			if strings.HasSuffix(name, "_") {
				for reg := range registered {
					found = found || strings.HasPrefix(reg, name)
				}
			} else if file != "README.md" {
				documented[name] = true
			}
			if !found {
				t.Errorf("%s names %q, which no /metrics serves", file, name)
			}
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("series %q is served but docs/OPERATIONS.md never names it in full", name)
		}
	}
}
