package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// suiteReport is one pass over every workload.
type suiteReport struct {
	Env       envInfo   `json:"env"`
	Smoke     bool      `json:"smoke"`
	Traced    bool      `json:"traced"`
	Workloads []*report `json:"workloads"`
	Correct   bool      `json:"correct"`
	// Claim is always null: this benchmark measures, it argues nothing.
	Claim any `json:"claim"`
}

// suite runs every workload once, each under its own watchdog.
func suite(o options, env envInfo, root string, clean *cleanup) *suiteReport {
	scale := 1.0
	if o.smoke {
		scale = 0.01
	}
	out := &suiteReport{Env: env, Smoke: o.smoke, Traced: o.trace, Correct: true}
	for _, sp := range specs {
		rep := runGuarded(sp, o, scale, env, root, clean)
		rep.print(os.Stderr)
		out.Workloads = append(out.Workloads, rep)
		out.Correct = out.Correct && rep.Correct
	}
	return out
}

// finishSuite writes the suite's report and prints the one-line summary,
// which ends with "claim": null.
func finishSuite(o options, rep *suiteReport) int {
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	type row struct {
		Workload  string `json:"workload"`
		Correct   bool   `json:"correct"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
	}
	summary := struct {
		Correct   bool  `json:"correct"`
		Workloads []row `json:"workloads"`
		Claim     any   `json:"claim"`
	}{Correct: rep.Correct}
	for _, w := range rep.Workloads {
		summary.Workloads = append(summary.Workloads, row{w.Workload, w.Correct, w.Attempted, w.Failed})
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheck runs the untraced suite twice and holds the second run to
// the first within each metric's bound, the way the driver holds a
// change to its parent.
func selfcheck(o options, env envInfo, root string, clean *cleanup) int {
	o.trace = false
	bounds := map[string]gated{}
	for _, m := range endToEndMetrics {
		bounds[m.name] = m
	}
	if data, err := os.ReadFile(filepath.Join(home(), "..", "BENCHMARK.json")); err == nil {
		var mf manifest
		if err := json.Unmarshal(data, &mf); err != nil {
			fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
			return 1
		}
		for _, m := range mf.EndToEnd {
			bounds[m.Name] = gated{name: m.Name, better: m.Better, bound: m.Bound}
		}
	}
	first := suite(o, env, root, clean)
	second := suite(o, env, root, clean)
	ok := first.Correct && second.Correct
	fmt.Printf("%-18s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for i, a := range first.Workloads {
		b := second.Workloads[i]
		for j, ma := range a.EndToEnd {
			if j >= len(b.EndToEnd) {
				ok = false
				continue
			}
			mb := b.EndToEnd[j]
			g := bounds[ma.Name]
			// worse is how far the second run fell behind the first, as a
			// share of the first; negative when it did better.
			worse := (mb.Value - ma.Value) / ma.Value
			if g.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.IsNaN(worse) || worse > g.bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %7.1f%% %6.0f%%%s\n", a.Workload, ma.Name, ma.Value, mb.Value, 100*worse, 100*g.bound, verdict)
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, []*suiteReport{first, second}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Printf("{\"selfcheck_agrees\": %v, \"claim\": null}\n", ok)
	if !ok {
		return 1
	}
	return 0
}
