// Command alpenhorn-bench runs three measurements of this implementation
// that CI records per change:
//
//	alpenhorn-bench -exp ibe-bench  # T1/T4 pairing throughput (decrypts, extractions, mailbox scan)
//	alpenhorn-bench -exp churn      # round availability with hot spares under daemon kills
//	alpenhorn-bench -exp cdn-load   # CDN seal throughput, fetch p50/p99, replication lag
//	alpenhorn-bench -all            # all three
//
// -json FILE writes each experiment's results as a JSON record (CI uploads
// them per PR to track the perf trajectory). -baseline FILE gates
// ibe-bench's comb speedup ratios against a committed record.
// -calibration-batch sets churn's dialing batch per round; its fleet is a
// sim.NewNetwork whose mixers run at GOMAXPROCS workers.
//
// The paper's §8 figures come from the analytic model in internal/model,
// whose tests check them against the paper's numbers; see EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"
)

func main() {
	exp := flag.String("exp", "", "named experiment: ibe-bench, churn, cdn-load")
	all := flag.Bool("all", false, "run every experiment")
	batch := flag.Int("calibration-batch", 4000, "dialing batch size per churn round")
	jsonOut := flag.String("json", "", "write machine-readable results (churn, ibe-bench, cdn-load) to this file")
	baseline := flag.String("baseline", "", "committed ibe-bench JSON record to diff speedup ratios against; exits nonzero on >30% regression")
	flag.Parse()
	jsonPath = *jsonOut
	baselinePath = *baseline

	any := false
	run := func(name string, fn func()) {
		if *all || *exp == name {
			fn()
			any = true
		}
	}
	run("ibe-bench", ibeBench)
	run("churn", func() { churnBench(*batch) })
	run("cdn-load", cdnLoad)
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

// jsonPath is the -json flag: where JSON-writing experiments record
// results. With -all, several experiments write JSON in one run; the
// first keeps the given path and later ones append their name, so no
// record silently clobbers another.
var jsonPath string

// baselinePath is the -baseline flag: a previously committed ibe-bench
// record whose speedup ratios gate the fresh run (see checkIBEBaseline).
// The baseline is read before writeJSONRecord runs, so pointing -json and
// -baseline at the same file compares against the old record, then
// replaces it.
var baselinePath string

// jsonPathUsedBy remembers which experiment wrote jsonPath verbatim.
var jsonPathUsedBy string

// writeJSONRecord writes one experiment's record to the -json path (or a
// derived "<path>.<exp>.json" when another experiment already claimed the
// path this run) and prints where it went.
func writeJSONRecord(exp string, record any) {
	if jsonPath == "" {
		return
	}
	path := jsonPath
	if jsonPathUsedBy == "" {
		jsonPathUsedBy = exp
	} else if jsonPathUsedBy != exp {
		path = jsonPath + "." + exp + ".json"
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// percentile returns the pct-th percentile of sorted (ascending) by the
// nearest-rank rule: the smallest sample with at least pct % of the
// samples at or below it. So p99 of ten rounds is the slowest round, and
// p50 of ten is the fifth. An empty slice yields 0.
func percentile(sorted []time.Duration, pct int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 · n), in integers
	return sorted[max(rank, 1)-1]
}
