// Command bench is the end-to-end round benchmark: it runs one real round
// at a time on a full fleet over loopback TCP and reports what a round
// costs end to end and, in a traced run, where that cost sits by layer.
// See README.md.
//
//	bench -workload dial-bulk -seed 1 -seconds 20 -trace 0   one run; result on the last line
//	bench -all -seed 1 -out results.json                     every workload, both kinds of run
//	bench -compare old.json new.json                         regression table between two -out files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// e2eUnits lists the end-to-end metrics an untraced run reports, with
// their units. BENCHMARK.json's end_to_end list is this list.
var e2eUnits = map[string]string{
	"setup_s": "s", "round_s": "s", "publish_s": "s", "cycle_s": "s",
	"onions_per_s": "1/s", "client_bytes_per_round": "B", "cpu_s_per_round": "s", "alloc_mb_per_round": "MB",
}

// envelope is the one shape every result file has.
type envelope struct {
	Benchmark  string    `json:"benchmark"`
	GitCommit  string    `json:"git_commit"`
	GoVersion  string    `json:"go_version"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	CPUModel   string    `json:"cpu_model"`
	Transport  string    `json:"transport"` // loopback: traffic never crosses a link
	Loop       string    `json:"loop"`      // closed: one round in flight
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Results    []*result `json:"results"`
}

func newEnvelope(seed int64, seconds float64) *envelope {
	env := &envelope{
		Benchmark: "alpenhorn-round", GitCommit: "unknown", GoVersion: runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: "unknown",
		Transport: "loopback", Loop: "closed", Seed: seed, Seconds: seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// driverLine is the last line of standard output of a single run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine() driverLine {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]driverValue)}
	for name, s := range r.E2E {
		line.Metrics[name] = driverValue{s.Median, e2eUnits[name]}
	}
	for name, v := range r.Layers {
		line.Metrics[name] = driverValue{v, layerNames[name]}
	}
	return line
}

// print lists every metric of the result by name with its unit.
func (r *result) print() {
	kind := "untraced"
	if r.Layers != nil {
		kind = "traced"
	}
	fmt.Printf("%s, seed %d, %s: %d rounds, %d attempted, %d failed\n", r.Workload, r.Seed, kind, r.Rounds, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	var names []string
	for name := range r.E2E {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.E2E[name]
		fmt.Printf("  %-26s %14.6g %-4s  p25 %.6g  p75 %.6g  n %d\n", name, s.Median, e2eUnits[name], s.P25, s.P75, s.N)
	}
	names = names[:0]
	for name := range r.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-26s %14.6g %s\n", name, r.Layers[name], layerNames[name])
	}
}

// runOne runs one workload once, traced or not.
func runOne(ctx context.Context, w workload, traced bool, cfg runConfig, spansPath string) (*result, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	if !traced {
		return runUntraced(ctx, w, cfg)
	}
	res, err := runTraced(ctx, w, cfg)
	if err == nil && spansPath != "" {
		err = writeJSON(spansPath, res.spans)
	}
	return res, err
}

func main() {
	name := flag.String("workload", "", "workload to run once: "+strings.Join(workloadNames(), ", "))
	all := flag.Bool("all", false, "run every workload, untraced and traced")
	runs := flag.Int("runs", 1, "with -all: untraced runs per workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	benchmarkJSON := flag.String("benchmark", "BENCHMARK.json", "with -compare: where the regression bounds are")
	out := flag.String("out", "", "write the results to this file")
	o := runConfig{setUps: 5, setUpSeconds: 1, probeScale: 1}
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds each run measures for")
	trace := flag.Int("trace", 0, "with -workload: 1 = traced run, per-layer metrics; 0 = untraced, end-to-end metrics")
	spansPath := flag.String("spans", "", "with a traced run: write its spans to this file")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory the CDN nodes write their segments under")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare old.json new.json")
		}
		worse, err := compareFiles(*benchmarkJSON, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(1, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	ctx := context.Background()
	var results []*result
	switch {
	case *all:
		for _, w := range workloads {
			// -runs untraced runs on consecutive seeds, then one traced
			// run on the first seed.
			for i := 0; i <= *runs; i++ {
				cfg, traced := o, i == *runs
				if !traced {
					cfg.seed += int64(i)
				}
				res, err := runOne(ctx, w, traced, cfg, *spansPath)
				if err != nil {
					fatal(1, "%s: %v", w.name, err)
				}
				results = append(results, res)
			}
		}
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(2, "unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", "))
		}
		res, err := runOne(ctx, w, *trace != 0, o, *spansPath)
		if err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
		results = append(results, res)
	default:
		flag.Usage()
		os.Exit(2)
	}

	failed := false
	for _, res := range results {
		res.print()
		failed = failed || res.Failed > 0
	}
	if *out != "" {
		env := newEnvelope(o.seed, o.seconds)
		env.Results = results
		if err := writeJSON(*out, env); err != nil {
			fatal(1, "%v", err)
		}
	}
	if !*all {
		line, err := json.Marshal(results[0].driverLine())
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
