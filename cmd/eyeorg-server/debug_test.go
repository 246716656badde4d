package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/platform"
)

func TestValidateAddrs(t *testing.T) {
	if err := validateAddrs(":8080", ":8080"); err == nil {
		t.Fatal("identical -addr and -debug-addr accepted")
	}
	if err := validateAddrs(":8080", ":8081"); err != nil {
		t.Fatalf("distinct addrs rejected: %v", err)
	}
	if err := validateAddrs(":8080", ""); err != nil {
		t.Fatalf("empty debug addr rejected: %v", err)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		if _, err := newLogger(os.Stderr, format); err != nil {
			t.Errorf("format %q rejected: %v", format, err)
		}
	}
	if _, err := newLogger(os.Stderr, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestDebugHandlerSurface: the -debug-addr mux serves pprof, expvar and
// (tracing on) the trace ring; with tracing off the trace routes 404
// while pprof stays up.
func TestDebugHandlerSurface(t *testing.T) {
	traced, err := platform.Open(platform.Options{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	srv := httptest.NewServer(newDebugHandler(traced))
	defer srv.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/debug/vars":          http.StatusOK,
		"/debug/traces":        http.StatusOK,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	plain, err := platform.Open(platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	psrv := httptest.NewServer(newDebugHandler(plain))
	defer psrv.Close()
	resp, err := http.Get(psrv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tracing-off /debug/traces = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(psrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tracing-off pprof index = %d, want 200", resp.StatusCode)
	}
}

// TestTracedServerEndToEnd drives the composed main-path wiring — API
// listener with tracing flags set, debug listener beside it — and
// reads a stage-attributed trace back through the debug listener's
// /debug/traces route. The API listener itself must not serve the
// trace surface.
func TestTracedServerEndToEnd(t *testing.T) {
	srv, err := platform.Open(platform.Options{
		TraceSample: 1, Fsync: true, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	api := httptest.NewServer(srv.Handler())
	defer api.Close()
	dbg := httptest.NewServer(newDebugHandler(srv))
	defer dbg.Close()
	if code := post(t, api.URL+"/api/v1/campaigns", []byte(`{"name":"d","kind":"timeline"}`), nil); code != http.StatusCreated {
		t.Fatalf("create campaign: %d", code)
	}
	leak, err := http.Get(api.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	leak.Body.Close()
	if leak.StatusCode != http.StatusNotFound {
		t.Fatalf("API listener serves /debug/traces: %d, want 404", leak.StatusCode)
	}
	resp, err := http.Get(dbg.URL + "/debug/traces?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "route=create_campaign") {
		t.Fatalf("trace text missing the traced route:\n%s", body)
	}
}
