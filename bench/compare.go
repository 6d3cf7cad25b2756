package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one result file's view of one metric on one workload: the
// median over its untraced runs of the per-run medians, and how far those
// medians scatter. With fewer than four runs there is no run-to-run
// scatter to take, so the spread falls back to the widest per-round
// quartile spread inside a run, which overstates how far a median moves.
func side(env *envelope, workload, metric string) (value, spread float64, ok bool) {
	var medians []float64
	for _, r := range env.Results {
		if s, has := r.E2E[metric]; has && r.Workload == workload {
			medians = append(medians, s.Median)
			if within := s.spread(); within > spread {
				spread = within
			}
		}
	}
	if len(medians) == 0 {
		return 0, 0, false
	}
	across := summarize(medians)
	if across.N >= 4 {
		spread = across.spread()
	}
	return across.Median, spread, true
}

// compareFiles prints one row per end-to-end metric and workload — both
// medians, the ratio with its base, the bound and a verdict — and reports
// whether any row is worse. A row is unresolved when either side's spread
// is wider than the bound: the runs cannot tell a change that size from
// noise.
func compareFiles(specPath, oldPath, newPath string) (worse bool, err error) {
	var spec benchmarkSpec
	var oldEnv, newEnv envelope
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(oldPath, &oldEnv); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &newEnv); err != nil {
		return false, err
	}
	fmt.Printf("%-16s %-24s %14s %14s  %-22s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	metrics := spec.EndToEnd
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].Name < metrics[j].Name })
	for _, w := range spec.Workloads {
		for _, m := range metrics {
			oldV, oldSpread, ok1 := side(&oldEnv, w.Name, m.Name)
			newV, newSpread, ok2 := side(&newEnv, w.Name, m.Name)
			if !ok1 || !ok2 {
				return false, fmt.Errorf("%s on %s is missing from a result file", m.Name, w.Name)
			}
			ratio := newV / oldV
			// change is how much worse the new side is, as a share of the old.
			change := ratio - 1
			if m.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case oldSpread > m.Bound || newSpread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-24s %14.6g %14.6g  %-22s %6.2f  %s\n", w.Name, m.Name, oldV, newV,
				fmt.Sprintf("%.4f of %.4g %s", ratio, oldV, m.Unit), m.Bound, verdict)
		}
	}
	return worse, nil
}
