package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"alpenhorn/internal/bn254"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/wire"
)

// ibeBenchRecord is the -json record of the ibe-bench experiment. The
// *_speedup fields are machine-independent ratios (both sides timed in
// alternation on the same box, see bestRates), which is what the committed
// BENCH_ibe.json baseline pins: CI compares a fresh run's ratios against
// the baseline's and fails on >30% regression, without being fooled by
// runner speed.
type ibeBenchRecord struct {
	Experiment          string  `json:"experiment"`
	DecryptsPerSec      float64 `json:"decrypts_per_sec"`
	BatchDecryptsPerSec float64 `json:"batch_decrypts_per_sec"`
	BatchScanSpeedup    float64 `json:"batch_scan_speedup"`
	// The v2 (optimal-ate) tier rows: batched v2 scan rate, its ratio
	// over the batched v1 scan (the acceptance target is ≥1.8x), and the
	// scalar v2 decrypt rate for reference.
	DecryptsV2PerSec      float64 `json:"decrypts_v2_per_sec"`
	BatchDecryptsV2PerSec float64 `json:"batch_decrypts_v2_per_sec"`
	AteScanSpeedup        float64 `json:"ate_scan_speedup"`
	ExtractionsPerSec     float64 `json:"extractions_per_sec"`
	G1CombPerSec          float64 `json:"g1_comb_mults_per_sec"`
	G1LadderPerSec        float64 `json:"g1_ladder_mults_per_sec"`
	G1CombSpeedup         float64 `json:"g1_comb_speedup"`
	G2CombPerSec          float64 `json:"g2_comb_mults_per_sec"`
	G2LadderPerSec        float64 `json:"g2_ladder_mults_per_sec"`
	G2CombSpeedup         float64 `json:"g2_comb_speedup"`
	Scan24kProjSec        float64 `json:"sec_per_24k_mailbox_scan_4core_proj"`
	Scan24kBatchProjSec   float64 `json:"sec_per_24k_mailbox_scan_batched_4core_proj"`
	Scan24kMeasSec        float64 `json:"sec_per_24k_mailbox_scan_measured"`
	ScanWorkers           int     `json:"scan_workers"`
}

// scanChunk mirrors core.Client.ScanAddFriendRound's DecryptBatch chunk.
const scanChunk = 32

// ibeBench is the -exp ibe-bench experiment: the paper's T1/T4 crypto
// throughput claims on this substrate's Montgomery-limb pairing. It
// reports single-core decrypts/sec for the per-ciphertext path (paper:
// 800/sec/core on BN-256 assembly) and for the batched scan pipeline
// that clients actually run, fixed-base comb vs generic-ladder
// ScalarBaseMult rates for both groups, PKG extractions/sec (paper:
// 4310/sec on 36 cores), and the time to trial-decrypt a 24,000-request
// add-friend mailbox (paper: 8 s on 4 cores) — projected unbatched,
// projected batched, and measured on a real chunked worker-pool scan.
// With -json the record is uploaded by CI as the BENCH_ibe artifact and
// diffed against the committed baseline (see -baseline).
func ibeBench() {
	header("IBE crypto throughput (T1/T4): comb tables + batched scan pipeline")

	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	msg := make([]byte, wire.FriendRequestSize)
	ctxt, err := ibe.Encrypt(rand.Reader, pub, "bob@example.org", msg)
	if err != nil {
		log.Fatal(err)
	}

	// Single-core trial decryption, scan configuration (precomputed
	// Miller ladder, as core.Client.ScanAddFriendRound uses).
	key := ibe.Extract(priv, "bob@example.org").Precompute()

	// Mailbox of noise with one planted request, for the batched paths.
	const mailboxSize = 96
	mailbox := make([]byte, 0, mailboxSize*wire.EncryptedFriendRequestSize)
	noise, err := ibe.RandomCiphertexts(rand.Reader, wire.FriendRequestSize, mailboxSize-1)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range noise {
		mailbox = append(mailbox, c...)
	}
	mailbox = append(mailbox, ctxt...)
	chunks := make([][][]byte, 0, (mailboxSize+scanChunk-1)/scanChunk)
	for lo := 0; lo < mailboxSize; lo += scanChunk {
		hi := lo + scanChunk
		if hi > mailboxSize {
			hi = mailboxSize
		}
		ctxts := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			off := i * wire.EncryptedFriendRequestSize
			ctxts = append(ctxts, mailbox[off:off+wire.EncryptedFriendRequestSize])
		}
		chunks = append(chunks, ctxts)
	}

	// One call of a batched scan: the next client-sized chunk through
	// DecryptBatch, counted in ciphertexts.
	batchScan := func(scan func(ctxts [][]byte)) func() int {
		chunkIdx := 0
		return func() int {
			ctxts := chunks[chunkIdx%len(chunks)]
			chunkIdx++
			scan(ctxts)
			return len(ctxts)
		}
	}

	// The v2 (optimal-ate) tier on the same mailbox: noise blobs are
	// tier-independent random ciphertexts, and the planted v1 request
	// simply fails v2 authentication like any foreign message — the scan
	// work per ciphertext is identical, so the rates compare directly.
	key.PrecomputeV2()
	ctxtV2, err := ibe.EncryptV2(rand.Reader, pub, "bob@example.org", msg)
	if err != nil {
		log.Fatal(err)
	}

	// The four decrypt paths, timed in alternation: each gated ratio
	// (batched over scalar v1, batched v2 over batched v1) has both its
	// sides in this one group.
	dec := bestRates(
		func() int {
			if _, ok := ibe.Decrypt(key, ctxt); !ok {
				log.Fatal("decrypt failed")
			}
			return 1
		},
		batchScan(func(ctxts [][]byte) { ibe.DecryptBatch(key, ctxts) }),
		func() int {
			if _, ok := ibe.DecryptV2(key, ctxtV2); !ok {
				log.Fatal("v2 decrypt failed")
			}
			return 1
		},
		batchScan(func(ctxts [][]byte) { ibe.DecryptBatchV2(key, ctxts) }),
	)
	decRate, batchRate, decV2Rate, batchV2Rate := dec[0], dec[1], dec[2], dec[3]

	// Server-side extraction throughput (hash-to-G1 + G1 scalar mult).
	i := 0
	extRate := bestRates(func() int {
		ibe.Extract(priv, fmt.Sprintf("user%d@example.org", i))
		i++
		return 1
	})[0]

	// Fixed-base comb tables vs the generic double-and-add ladder, again
	// in alternation.
	k, err := bn254.RandomScalar(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	var p1 bn254.G1
	var p2 bn254.G2
	mults := bestRates(
		func() int { p1.ScalarBaseMult(k); return 1 },
		func() int { p1.ScalarMult(bn254.G1Generator(), k); return 1 },
		func() int { p2.ScalarBaseMult(k); return 1 },
		func() int { p2.ScalarMult(bn254.G2Generator(), k); return 1 },
	)
	g1CombRate, g1LadderRate, g2CombRate, g2LadderRate := mults[0], mults[1], mults[2], mults[3]

	// Real parallel mailbox scan on the chunked worker pool (what
	// ScanAddFriendRound runs), measured end to end.
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int, len(chunks))
	for j := range chunks {
		next <- j
	}
	close(next)
	hitsPerChunk := make([]int, len(chunks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				_, oks := ibe.DecryptBatch(key, chunks[j])
				hitsPerChunk[j] = countTrue(oks)
			}
		}()
	}
	wg.Wait()
	parallelScan := time.Since(start).Seconds()
	hits := 0
	for _, h := range hitsPerChunk {
		hits += h
	}
	if hits != 1 {
		log.Fatalf("ibe-bench: scan found %d of 1 planted requests", hits)
	}

	rec := ibeBenchRecord{
		Experiment:            "ibe-bench",
		DecryptsPerSec:        decRate,
		BatchDecryptsPerSec:   batchRate,
		BatchScanSpeedup:      batchRate / decRate,
		DecryptsV2PerSec:      decV2Rate,
		BatchDecryptsV2PerSec: batchV2Rate,
		AteScanSpeedup:        batchV2Rate / batchRate,
		ExtractionsPerSec:     extRate,
		G1CombPerSec:          g1CombRate,
		G1LadderPerSec:        g1LadderRate,
		G1CombSpeedup:         g1CombRate / g1LadderRate,
		G2CombPerSec:          g2CombRate,
		G2LadderPerSec:        g2LadderRate,
		G2CombSpeedup:         g2CombRate / g2LadderRate,
		Scan24kProjSec:        24000 / decRate / 4,
		Scan24kBatchProjSec:   24000 / batchRate / 4,
		Scan24kMeasSec:        parallelScan / mailboxSize * 24000,
		ScanWorkers:           workers,
	}

	fmt.Printf("decrypts/sec (1 core, per-ciphertext): %8.1f   (paper: 800/sec/core)\n", rec.DecryptsPerSec)
	fmt.Printf("decrypts/sec (1 core, batched scan):   %8.1f   (%.2fx)\n", rec.BatchDecryptsPerSec, rec.BatchScanSpeedup)
	fmt.Printf("v2 decrypts/sec (1 core, scalar ate):  %8.1f\n", rec.DecryptsV2PerSec)
	fmt.Printf("v2 decrypts/sec (1 core, batched ate): %8.1f   (%.2fx over batched v1)\n", rec.BatchDecryptsV2PerSec, rec.AteScanSpeedup)
	fmt.Printf("extractions/sec (1 core):              %8.1f   (paper: 4310/sec on 36 cores)\n", rec.ExtractionsPerSec)
	fmt.Printf("G1 ScalarBaseMult/sec: comb %9.1f vs ladder %9.1f  (%.1fx)\n", rec.G1CombPerSec, rec.G1LadderPerSec, rec.G1CombSpeedup)
	fmt.Printf("G2 ScalarBaseMult/sec: comb %9.1f vs ladder %9.1f  (%.1fx)\n", rec.G2CombPerSec, rec.G2LadderPerSec, rec.G2CombSpeedup)
	fmt.Printf("24k-mailbox scan, 4-core projection: unbatched %6.1f s, batched %6.1f s  (paper: 8 s)\n",
		rec.Scan24kProjSec, rec.Scan24kBatchProjSec)
	fmt.Printf("24k-mailbox scan, measured on %d workers: %6.1f s\n", workers, rec.Scan24kMeasSec)

	checkIBEBaseline(rec)
	writeJSONRecord("ibe-bench", rec)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// checkIBEBaseline compares a fresh run's machine-independent speedup
// ratios against the committed baseline record (-baseline flag) and exits
// nonzero if any ratio regressed by more than 30%. Absolute rates are
// reported but not gated — they track the runner, not the code.
func checkIBEBaseline(fresh ibeBenchRecord) {
	if baselinePath == "" {
		return
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatalf("ibe-bench: reading baseline: %v", err)
	}
	var base ibeBenchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("ibe-bench: parsing baseline: %v", err)
	}
	fmt.Printf("\nbaseline check against %s (fail below 70%% of baseline ratio):\n", baselinePath)
	failed := false
	for _, c := range []struct {
		name        string
		fresh, base float64
	}{
		{"g1_comb_speedup", fresh.G1CombSpeedup, base.G1CombSpeedup},
		{"g2_comb_speedup", fresh.G2CombSpeedup, base.G2CombSpeedup},
		{"batch_scan_speedup", fresh.BatchScanSpeedup, base.BatchScanSpeedup},
		{"ate_scan_speedup", fresh.AteScanSpeedup, base.AteScanSpeedup},
	} {
		if c.base <= 0 {
			fmt.Printf("  %-20s baseline has no value, skipped\n", c.name)
			continue
		}
		status := "ok"
		if c.fresh < 0.7*c.base {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-20s fresh %5.2fx vs baseline %5.2fx   %s\n", c.name, c.fresh, c.base, status)
	}
	if failed {
		log.Fatal("ibe-bench: speedup ratio regressed >30% against the committed baseline")
	}
}

// bestRates times the functions in alternation — five passes, each giving
// every function one 60 ms slice — and returns each one's best rate in
// items per second, an item being whatever f counts in its return value.
// The gated ratios compare rates taken this way, the discipline the
// in-test pins use (bn254's bestInterleaved): when the machine's speed
// drifts between one second and the next, the drift lands on both sides of
// a ratio, and the best of five slices discards the slices it hit hardest.
// Timing each side once, back to back, let one unchanged binary print
// ate_scan_speedup 1.04x and 2.15x a minute apart.
func bestRates(fs ...func() int) []float64 {
	const passes, slice = 5, 60 * time.Millisecond
	for _, f := range fs {
		f() // the first call may pay one-time set-up
	}
	best := make([]float64, len(fs))
	for pass := 0; pass < passes; pass++ {
		for i, f := range fs {
			n := 0
			start := time.Now()
			for time.Since(start) < slice {
				n += f()
			}
			if r := float64(n) / time.Since(start).Seconds(); r > best[i] {
				best[i] = r
			}
		}
	}
	return best
}
