package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeOptions is the -smoke run the tests drive: every workload at
// about 1% of its size.
func smokeOptions(traced bool) options {
	return options{seed: 1, seconds: 10, trace: traced, smoke: true}
}

// TestSmoke runs the whole harness small, untraced and traced, so the
// tier-1 tests keep it compiling and its output checks live without
// paying for a full run.
func TestSmoke(t *testing.T) {
	root, err := dataRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	clean := &cleanup{dir: root}
	defer clean.run()
	env := readEnv(root)

	for _, traced := range []bool{false, true} {
		o := smokeOptions(traced)
		for _, sp := range specs {
			rep := runGuarded(sp, o, 0.01, env, root, clean)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				rep.print(os.Stderr)
				t.Fatalf("%s (traced=%v): correct=%v attempted=%d failed=%d", sp.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			line := rep.driverLine()
			metrics := line["metrics"].(map[string]any)
			if !traced {
				if len(metrics) != len(endToEndMetrics) {
					t.Errorf("%s: %d end-to-end metrics, want %d", sp.name, len(metrics), len(endToEndMetrics))
				}
				for _, want := range endToEndMetrics {
					m, ok := metrics[want.name].(map[string]any)
					if !ok {
						t.Errorf("%s: end-to-end metric %s missing", sp.name, want.name)
						continue
					}
					if v := m["value"].(float64); !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: %s = %v, want a positive number", sp.name, want.name, v)
					}
					if m["unit"] != want.unit {
						t.Errorf("%s: %s in %v, want %s", sp.name, want.name, m["unit"], want.unit)
					}
				}
				continue
			}
			if len(metrics) != len(perLayerMetrics) {
				t.Errorf("%s: %d per-layer metrics, want %d", sp.name, len(metrics), len(perLayerMetrics))
			}
			for _, want := range perLayerMetrics {
				m, ok := metrics[want.name].(map[string]any)
				if !ok {
					t.Errorf("%s: per-layer metric %s missing", sp.name, want.name)
					continue
				}
				if v := m["value"].(float64); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", sp.name, want.name, v)
				}
			}
			data, err := os.ReadFile(rep.SpanFile)
			if err != nil {
				t.Fatalf("%s: span file: %v", sp.name, err)
			}
			var file struct {
				Spans []struct {
					ID     int    `json:"id"`
					Name   string `json:"name"`
					Start  int64  `json:"start_ns"`
					End    int64  `json:"end_ns"`
					Parent int    `json:"parent"`
				} `json:"spans"`
				Written int `json:"spans_written"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatalf("%s: span file is not JSON: %v", sp.name, err)
			}
			if file.Written == 0 || file.Written != len(file.Spans) {
				t.Errorf("%s: span file holds %d spans, says %d", sp.name, len(file.Spans), file.Written)
			}
			byID := map[int]int{}
			layers := map[string]bool{}
			for i, s := range file.Spans {
				byID[s.ID] = i
				layers[strings.SplitN(s.Name, ".", 2)[0]] = true
			}
			// Socket requests, the direct replay and the layer probes all
			// leave spans.
			for _, layer := range []string{"http", "platform", "wire", "blob", "telemetry"} {
				if !layers[layer] && !(layer == "wire" && sp.delivery) {
					t.Errorf("%s: no %s.* span in the file", sp.name, layer)
				}
			}
			for _, s := range file.Spans {
				if s.End < s.Start {
					t.Errorf("%s: span %d (%s) ends before it starts", sp.name, s.ID, s.Name)
				}
				if s.Parent >= 0 {
					p, ok := byID[s.Parent]
					if !ok {
						t.Errorf("%s: span %d names parent %d, which is not in the file", sp.name, s.ID, s.Parent)
					} else if file.Spans[p].Start > s.Start || file.Spans[p].End < s.End {
						t.Errorf("%s: span %d (%s) is not inside its parent %d", sp.name, s.ID, s.Name, s.Parent)
					}
				}
			}
		}
	}
	clean.run()
	if left, _ := filepath.Glob(filepath.Join(".data", "*")); len(left) != 0 {
		t.Errorf("the run left %v behind", left)
	}
}

// TestManifestMatchesProgram holds BENCHMARK.json to the program's own
// tables, so neither can drift from the other.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(mf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program", len(mf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range mf.EndToEnd {
		want := endToEndMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program", len(mf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range mf.PerLayer {
		want := perLayerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: manifest %+v, program %+v", i, m, want)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", mf.RunSeconds)
	}
}
