// Command alpenhorn-bench regenerates the data series behind every figure
// and measured claim in the Alpenhorn paper's evaluation (§8).
//
//	alpenhorn-bench -fig 6          # add-friend bandwidth vs round duration
//	alpenhorn-bench -fig 7          # dialing bandwidth vs round duration
//	alpenhorn-bench -fig 8          # add-friend latency vs users/servers
//	alpenhorn-bench -fig 9          # dialing latency vs users/servers
//	alpenhorn-bench -fig 10         # latency under Zipf-skewed popularity
//	alpenhorn-bench -exp sizes      # message sizes vs paper
//	alpenhorn-bench -exp extraction # key-extraction latency vs #PKGs
//	alpenhorn-bench -exp ibe-sweep  # IBE cost scaling (§8.6)
//	alpenhorn-bench -exp ibe-bench  # T1/T4 pairing throughput (decrypts, extractions, mailbox scan)
//	alpenhorn-bench -exp mix-cal    # measure per-message mix cost (used by figs 8/9)
//	alpenhorn-bench -exp churn      # round availability with hot spares under daemon kills
//	alpenhorn-bench -exp cdn-load   # CDN seal throughput, fetch p50/p99, replication lag
//	alpenhorn-bench -all            # everything
//
// -json FILE writes the churn / ibe-bench / cdn-load
// results as a JSON record (CI uploads them per PR to track the perf
// trajectory).
//
// The -parallelism flag sets the mixers' decryption/noise worker count for
// the mix-cost calibration (0 = GOMAXPROCS, 1 = one worker); -exp churn
// builds its fleet with sim.NewNetwork, whose mixers run at GOMAXPROCS.
//
// Figures 6/7/10 come from the analytic model driven by this codebase's
// real message sizes (cross-validated against real rounds in the test
// suite). Figures 8/9 splice a measured per-message mix cost from a real
// in-process round into the latency model, and print both "ours" (big.Int
// pairing) and "paper-calibrated" (assembly-pairing cost constants) series
// so shape and absolute scale can be compared. See EXPERIMENTS.md.
package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/model"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

func main() {
	fig := flag.Int("fig", 0, "paper figure to regenerate (6-10)")
	exp := flag.String("exp", "", "named experiment: sizes, extraction, ibe-sweep, ibe-bench, mix-cal, churn, cdn-load")
	all := flag.Bool("all", false, "run everything")
	users := flag.Int("calibration-batch", 4000, "batch size for real-round mix calibration")
	par := flag.Int("parallelism", 0, "mixer decryption/noise workers (0 = GOMAXPROCS, 1 = sequential)")
	jsonOut := flag.String("json", "", "write machine-readable results (churn, ibe-bench, cdn-load) to this file")
	baseline := flag.String("baseline", "", "committed ibe-bench JSON record to diff speedup ratios against; exits nonzero on >30% regression")
	flag.Parse()
	parallelism = *par
	jsonPath = *jsonOut
	baselinePath = *baseline

	any := false
	run := func(n int, name string, fn func(batch int)) {
		if *all || *fig == n || (*exp != "" && *exp == name) {
			fn(*users)
			any = true
		}
	}
	run(6, "", fig6)
	run(7, "", fig7)
	run(8, "", fig8)
	run(9, "", fig9)
	run(10, "", fig10)
	run(-1, "sizes", func(int) { sizes() })
	run(-1, "extraction", func(int) { extraction() })
	run(-1, "ibe-sweep", func(int) { ibeSweep() })
	run(-1, "ibe-bench", func(int) { ibeBench() })
	run(-1, "mix-cal", func(batch int) { fmt.Printf("mix cost: %.2f µs/message/server\n", measureMixCost(batch)*1e6) })
	run(-1, "churn", churnBench)
	run(-1, "cdn-load", func(int) { cdnLoad() })
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

// parallelism is the -parallelism flag: mixer worker count for the
// mix-cost calibration.
var parallelism int

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

// fig6 prints Figure 6: add-friend client bandwidth vs round duration.
func fig6(int) {
	header("Figure 6: add-friend client bandwidth vs round duration")
	durations := []float64{0.5, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24} // hours
	fmt.Printf("%-10s %12s %12s %12s\n", "round(h)", "100K(KB/s)", "1M(KB/s)", "10M(KB/s)")
	for _, h := range durations {
		fmt.Printf("%-10.1f", h)
		for _, u := range []float64{1e5, 1e6, 1e7} {
			p := model.PaperParams(u, 3)
			fmt.Printf(" %12.3f", p.AddFriendBandwidth(h*3600)/1024)
		}
		fmt.Println()
	}
	p := model.PaperParams(1e6, 3)
	mb := p.AddFriendMailboxModel()
	fmt.Printf("\n1M users: %d mailboxes, %.0f real + %.0f noise requests each, %.1f MB/mailbox\n",
		int(mb.NumMailboxes), mb.RealRequests, mb.NoiseRequests, mb.Bytes/1e6)
	fmt.Printf("(paper: 4 mailboxes, ~12000+12000 requests, 7.4 MB at 308 B/request;\n")
	fmt.Printf(" ours uses %d B/request — uncompressed BN254 points)\n", wire.EncryptedFriendRequestSize)
}

// fig7 prints Figure 7: dialing client bandwidth vs round duration.
func fig7(int) {
	header("Figure 7: dialing client bandwidth vs round duration")
	durations := []float64{1, 2, 3, 4, 5, 8, 10} // minutes
	fmt.Printf("%-10s %12s %12s %12s\n", "round(min)", "100K(KB/s)", "1M(KB/s)", "10M(KB/s)")
	for _, m := range durations {
		fmt.Printf("%-10.0f", m)
		for _, u := range []float64{1e5, 1e6, 1e7} {
			p := model.PaperParams(u, 3)
			fmt.Printf(" %12.3f", p.DialingBandwidth(m*60)/1024)
		}
		fmt.Println()
	}
	for _, u := range []float64{1e6, 1e7} {
		mb := model.PaperParams(u, 3).DialingMailboxModel()
		fmt.Printf("\n%.0fM users: %d Bloom filters, %.0f tokens each, %.2f MB/filter",
			u/1e6, int(mb.NumMailboxes), mb.RealTokens+mb.NoiseTokens, mb.Bytes/1e6)
	}
	fmt.Printf("\n(paper: 1 filter/125K tokens/0.75 MB at 1M; 7 filters/150K/0.9 MB at 10M)\n")
}

// measureMixCost runs a real dialing batch through a 3-server in-process
// chain (mixnet.Chain: strict full-batch barriers, no transport) and
// returns seconds per message per server. The barriers are what make
// dividing by the server count meaningful — on the routed data plane the
// positions overlap and the per-server cost would be undercounted.
// -parallelism 1 reproduces the paper's single-thread calibration; the
// default measures this machine's parallel decrypt rate.
func measureMixCost(batchSize int) float64 {
	nz := noise.Laplace{Mu: 2, B: 0}
	settings := &wire.RoundSettings{Service: wire.Dialing, Round: 1, NumMailboxes: 1}
	var mixers []*mixnet.Server
	for i := 0; i < 3; i++ {
		m, err := mixnet.New(mixnet.Config{
			Name: "m", Position: i, ChainLength: 3,
			AddFriendNoise: &nz, DialingNoise: &nz,
			Parallelism: parallelism,
		})
		if err != nil {
			log.Fatal(err)
		}
		rk, err := m.NewRound(wire.Dialing, 1)
		if err != nil {
			log.Fatal(err)
		}
		mixers = append(mixers, m)
		settings.Mixers = append(settings.Mixers, rk)
	}
	for i, m := range mixers {
		var keys [][]byte
		for _, rk := range settings.Mixers[i+1:] {
			keys = append(keys, rk.OnionKey)
		}
		if err := m.SetDownstreamKeys(wire.Dialing, 1, keys); err != nil {
			log.Fatal(err)
		}
	}
	batch, err := sim.GenerateBatch(nil, settings, sim.Workload{
		Real: batchSize / 20, Cover: batchSize - batchSize/20,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if _, err := mixnet.Chain(mixers, wire.Dialing, 1, settings.NumMailboxes, batch); err != nil {
		log.Fatal(err)
	}
	return time.Since(start).Seconds() / float64(batchSize) / 3
}

// measureIBEDecrypt returns seconds per trial decryption with our pairing,
// on the scan configuration clients actually run — DecryptBatch over a
// mailbox chunk with a precomputed key ladder and shared batch inversions
// — the shape the IBEDecryptSeconds calibration extrapolates.
func measureIBEDecrypt() float64 {
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	key := ibe.Extract(priv, "bob@example.org").Precompute()
	const batch = 16
	ctxts := make([][]byte, batch)
	for i := 1; i < batch; i++ {
		c, err := ibe.RandomCiphertext(rand.Reader, wire.FriendRequestSize)
		if err != nil {
			log.Fatal(err)
		}
		ctxts[i] = c
	}
	ctxts[0], err = ibe.Encrypt(rand.Reader, pub, "bob@example.org", make([]byte, wire.FriendRequestSize))
	if err != nil {
		log.Fatal(err)
	}
	ibe.DecryptBatch(key, ctxts) // warm the scratch pool
	start := time.Now()
	const reps = 10
	for i := 0; i < reps; i++ {
		ibe.DecryptBatch(key, ctxts)
	}
	return time.Since(start).Seconds() / (reps * batch)
}

func latencyTable(title string, latency func(p model.Params, c model.CostCalibration) float64, batch int) {
	header(title)
	mixCost := measureMixCost(batch)
	ibeCost := measureIBEDecrypt()
	fmt.Printf("calibration: mix %.2f µs/msg/server (measured, batch %d); IBE decrypt %.1f ms (measured)\n\n",
		mixCost*1e6, batch, ibeCost*1e3)

	ours := model.PaperCalibration()
	ours.MixSecondsPerMessage = mixCost
	ours.IBEDecryptSeconds = ibeCost
	paper := model.PaperCalibration()

	usersList := []float64{1e4, 1e5, 1e6, 1e7}
	for _, cal := range []struct {
		name string
		c    model.CostCalibration
	}{{"ours (Montgomery-limb pairing)", ours}, {"paper-calibrated (assembly costs)", paper}} {
		fmt.Printf("%s:\n%-10s %12s %12s %12s\n", cal.name, "users", "3 srv (s)", "5 srv (s)", "10 srv (s)")
		for _, u := range usersList {
			fmt.Printf("%-10.0g", u)
			for _, s := range []float64{3, 5, 10} {
				fmt.Printf(" %12.1f", latency(model.PaperParams(u, s), cal.c))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

// fig8 prints Figure 8: add-friend round latency.
func fig8(batch int) {
	latencyTable("Figure 8: AddFriend latency vs online users",
		func(p model.Params, c model.CostCalibration) float64 { return p.AddFriendLatency(c) }, batch)
	fmt.Println("(paper measured: 152 s at 10M users, 3 servers)")
}

// fig9 prints Figure 9: dialing round latency.
func fig9(batch int) {
	latencyTable("Figure 9: Call latency vs online users",
		func(p model.Params, c model.CostCalibration) float64 { return p.DialingLatency(c, 1000, 10) }, batch)
	fmt.Println("(paper measured: 118 s at 10M users, 3 servers)")
}

// fig10 prints Figure 10: latency under Zipf-skewed recipient popularity,
// and the §8.4 mailbox-size table.
func fig10(int) {
	header("Figure 10: AddFriend latency under Zipf skew (1M users, 3 servers)")
	const users = 1000000
	requests := users / 20
	p := model.PaperParams(users, 3)
	mb := p.AddFriendMailboxModel()
	k := int(mb.NumMailboxes)
	cal := model.PaperCalibration()

	fmt.Printf("%-8s %10s %10s %10s %14s %14s %10s\n",
		"skew s", "min(s)", "median(s)", "max(s)", "minbox(MB)", "maxbox(MB)", "top10(%)")
	for _, s := range []float64{0, 0.5, 1, 1.5, 2} {
		z := model.NewZipf(users, s)
		counts, err := z.MailboxLoad(rand.Reader, requests, k)
		if err != nil {
			log.Fatal(err)
		}
		sort.Ints(counts)
		// Per-user latency varies with the size of THEIR mailbox:
		// download + scan dominate the per-user part.
		lat := func(realInBox int) float64 {
			tot := float64(realInBox) + mb.NoiseRequests
			bytes := tot * float64(wire.EncryptedFriendRequestSize)
			base := p.AddFriendLatency(cal)
			defaultBox := mb.RealRequests + mb.NoiseRequests
			delta := (tot-defaultBox)*cal.IBEDecryptSeconds/cal.ScanCores +
				(bytes-defaultBox*float64(wire.EncryptedFriendRequestSize))/cal.DownloadBytesPerSecond
			return base + delta
		}
		minBox := (float64(counts[0]) + mb.NoiseRequests) * float64(wire.EncryptedFriendRequestSize) / 1e6
		maxBox := (float64(counts[len(counts)-1]) + mb.NoiseRequests) * float64(wire.EncryptedFriendRequestSize) / 1e6
		fmt.Printf("%-8.1f %10.1f %10.1f %10.1f %14.2f %14.2f %10.1f\n",
			s, lat(counts[0]), lat(counts[len(counts)/2]), lat(counts[len(counts)-1]),
			minBox, maxBox, z.TopShare(10)*100)
	}
	fmt.Println("\n(paper: median flat; max grows, min shrinks; at s=2 largest mailbox")
	fmt.Println(" 14.95 MB / smallest 4.15 MB at 308 B/request; top-10 share 94.2%)")
}

// sizes prints the T5 message-size table.
func sizes() {
	header("Message sizes: this implementation vs paper")
	rows := []struct {
		name        string
		ours, paper int
	}{
		{"friend request plaintext", wire.FriendRequestSize, 244},
		{"IBE ciphertext overhead", ibe.Overhead, 64},
		{"encrypted friend request", wire.EncryptedFriendRequestSize, 308},
		{"dial token", keywheel.TokenSize, 32},
		{"add-friend onion (3 hops)", wire.OnionSize(wire.AddFriend, 3), -1},
		{"dialing onion (3 hops)", wire.OnionSize(wire.Dialing, 3), -1},
	}
	fmt.Printf("%-28s %10s %10s\n", "message", "ours (B)", "paper (B)")
	for _, r := range rows {
		paper := "-"
		if r.paper >= 0 {
			paper = fmt.Sprintf("%d", r.paper)
		}
		fmt.Printf("%-28s %10d %10s\n", r.name, r.ours, paper)
	}
	fmt.Println("\n(difference: the ciphertext element is an uncompressed 64 B BN254 G1 point")
	fmt.Println(" plus a 16 B AES-GCM tag, 80 B against the paper's 64 B; counts and")
	fmt.Println(" protocol structure identical)")
}

// extraction measures T3: combined key-extraction latency vs #PKGs.
func extraction() {
	header("Key extraction latency vs number of PKGs (paper T3: 4.9 ms @3, 5.2 ms @10)")
	for _, n := range []int{1, 3, 5, 10} {
		net, err := sim.NewNetwork(sim.Config{NumPKGs: n, Shards: []int{1}})
		if err != nil {
			log.Fatal(err)
		}
		h := &sim.Handler{AcceptAll: true}
		client, err := net.NewClient("bench@example.org", h)
		if err != nil {
			log.Fatal(err)
		}
		const rounds = 5
		var total time.Duration
		for r := uint32(1); r <= rounds; r++ {
			if _, err := net.Coord.OpenAddFriendRound(r); err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			if err := client.SubmitAddFriendRound(context.Background(), r); err != nil {
				log.Fatal(err)
			}
			total += time.Since(start)
		}
		fmt.Printf("%2d PKGs: %7.1f ms per round (extraction + attestation verify + submit)\n",
			n, float64(total.Milliseconds())/rounds)
	}
	fmt.Println("(ours includes BLS attestation verification with big.Int pairings;")
	fmt.Println(" the paper's 5 ms figure is network-latency dominated)")
}

// ibeSweep measures T8 (§8.6): per-operation IBE costs.
func ibeSweep() {
	header("IBE cost sweep (§8.6): per-operation costs of this substrate")
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	msg := make([]byte, wire.FriendRequestSize)

	const reps = 3
	start := time.Now()
	var ctxt []byte
	for i := 0; i < reps; i++ {
		ctxt, err = ibe.Encrypt(rand.Reader, pub, "bob@x.org", msg)
		if err != nil {
			log.Fatal(err)
		}
	}
	encT := time.Since(start) / reps

	start = time.Now()
	var key *ibe.IdentityPrivateKey
	for i := 0; i < reps; i++ {
		key = ibe.Extract(priv, "bob@x.org")
	}
	extT := time.Since(start) / reps

	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, ok := ibe.Decrypt(key, ctxt); !ok {
			log.Fatal("decrypt failed")
		}
	}
	decT := time.Since(start) / reps

	fmt.Printf("encrypt: %8.1f ms   (pairing + G2 scalar mult + G1 scalar mult)\n", float64(encT.Microseconds())/1000)
	fmt.Printf("extract: %8.1f ms   (hash-to-G1 + G1 scalar mult)\n", float64(extT.Microseconds())/1000)
	fmt.Printf("decrypt: %8.1f ms   (one pairing; paper: 1.25 ms = 800/sec/core)\n", float64(decT.Microseconds())/1000)
	fmt.Printf("\nPKG extraction throughput: %.0f/sec/core (paper: 4310/sec on 36 cores)\n",
		1/extT.Seconds())
	fmt.Println("All Alpenhorn costs scale linearly in these three numbers (§8.6).")
}
