package main

import (
	"context"
	"path/filepath"
	"sort"
	"testing"
)

type specNames struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func names(list []struct{ Name string }) []string {
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload, untraced and traced, at toy size, and
// pins the workload and metric names to BENCHMARK.json's, so the
// benchmark keeps compiling and keeps its contract as the packages it
// calls are refactored.
func TestSmoke(t *testing.T) {
	var spec specNames
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if got, want := workloadNames(), names(spec.Workloads); !sameStrings(sortedCopy(got), want) {
		t.Fatalf("workloads %v, BENCHMARK.json has %v", got, want)
	}
	ctx := context.Background()
	cfg := runConfig{seed: 1, setUps: 1, probeScale: 0.01} // no tmp: memory CDN, allowed only here
	for _, w := range workloads {
		toy := w.toy()
		res, err := runUntraced(ctx, toy, cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s untraced: %d of %d failed: %v", w.name, res.Failed, res.Attempted, res.Problems)
		}
		if got, want := sortedKeys(res.E2E), names(spec.EndToEnd); !sameStrings(got, want) {
			t.Errorf("%s end-to-end metrics %v, BENCHMARK.json has %v", w.name, got, want)
		}

		res, err = runTraced(ctx, toy, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: %d of %d failed: %v", w.name, res.Failed, res.Attempted, res.Problems)
		}
		if got, want := sortedKeys(res.Layers), names(spec.PerLayer); !sameStrings(got, want) {
			t.Errorf("%s per-layer metrics %v, BENCHMARK.json has %v", w.name, got, want)
		}
		if got, want := sortedKeys(res.Layers), sortedKeys(layerNames); !sameStrings(got, want) {
			t.Errorf("%s per-layer metrics %v, units are listed for %v", w.name, got, want)
		}
		for kind, spans := range res.spans {
			if len(spans) == 0 {
				t.Errorf("%s: no %s spans", w.name, kind)
			}
			for i, s := range spans {
				root := s.Name == "round" || s.Name == "walk.round"
				if root != (s.Parent == -1) || s.Parent >= i || s.End < s.Start {
					t.Errorf("%s: %s span %d (%s) has parent %d", w.name, kind, i, s.Name, s.Parent)
				}
			}
		}
	}
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// TestCompare pins the verdicts: a median that moves by more than the
// bound is better or worse by the metric's direction, and a side whose
// own spread exceeds the bound leaves the row unresolved.
func TestCompare(t *testing.T) {
	var spec benchmarkSpec
	specPath := filepath.Join("..", "BENCHMARK.json")
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	file := func(name string, scale func(metric string) float64, spread float64) string {
		env := envelope{}
		for _, w := range spec.Workloads {
			r := &result{Workload: w.Name, E2E: make(map[string]summary)}
			for _, m := range spec.EndToEnd {
				v := 10 * scale(m.Name)
				r.E2E[m.Name] = summary{Median: v, P25: v * (1 - spread/2), P75: v * (1 + spread/2), N: 9}
			}
			env.Results = append(env.Results, r)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, &env); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := func(string) float64 { return 1 }
	base := file("base.json", same, 0.01)
	slower := file("slower.json", func(m string) float64 {
		if m == "round_s" {
			return 1.5
		}
		return 1
	}, 0.01)
	noisy := file("noisy.json", same, 0.9)

	for _, c := range []struct {
		name     string
		old, new string
		worse    bool
	}{
		{"identical files", base, base, false},
		{"round_s half again as long", base, slower, true},
		{"round_s shorter", slower, base, false},
		{"too noisy to tell", noisy, slower, false},
	} {
		worse, err := compareFiles(specPath, c.old, c.new)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v", c.name, worse, c.worse)
		}
	}
}
