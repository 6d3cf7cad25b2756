package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"alpenhorn/internal/wire"
)

// A traced run divides its seconds between the TCP fleet and the layer
// walk; the primitive probes run fixed counts on top.
const (
	tcpShare  = 0.45
	walkShare = 0.30
)

// layerNames lists every per-layer metric a traced run reports, with its
// unit. BENCHMARK.json's per_layer list is this list.
var layerNames = map[string]string{
	"coordinator.open_ms": "ms", "coordinator.overhead_s": "s", "coordinator.finish_ms": "ms",
	"entry.submit_us": "us", "entry.tcp_submit_ms": "ms", "entry.close_ms": "ms",
	"onionbox.open_us": "us", "onionbox.wrap3_us": "us",
	"mixnet.stream_chunk_s": "s", "mixnet.stream_end_s": "s", "mixnet.build_ms": "ms",
	"mixnet.pos0.busy_s": "s", "mixnet.pos1.busy_s": "s", "mixnet.pos2.busy_s": "s",
	"mixnet.shard_skew": "ratio", "mixnet.onions_in": "count", "mixnet.noise_onions": "count",
	"noise.sample_ns":   "ns",
	"rpc.chunk_call_ms": "ms", "rpc.wire_ratio": "ratio", "rpc.allocs_per_onion": "count", "rpc.small_call_us": "us",
	"rpc.mix_bytes_per_onion": "B", "rpc.coord_bytes_per_round": "B", "rpc.coord_calls_per_round": "count",
	"cdn.disk_seal_ms": "ms", "cdn.replicate_ms": "ms", "cdn.fetch_us": "us", "cdn.fetches": "count", "cdn.bytes_served": "B",
	"pkgserver.new_round_ms": "ms", "pkgserver.extract_us": "us", "pkgserver.extractions": "count",
	"bls.verify_ms":        "ms",
	"ibe.decrypt_batch_us": "us", "ibe.encrypt_ms": "ms",
	"bn254.ate_pair_us":       "us",
	"bloom.build_us_per_elem": "us", "bloom.test_ns": "ns",
	"keywheel.dial_token_us":   "us",
	"core.submit_addfriend_ms": "ms", "core.submit_dial_ms": "ms", "core.scan_addfriend_s": "s", "core.scan_dial_ms": "ms",
	"sim.generate_s":     "s",
	"bench.round_spread": "ratio", "trace.overhead_share": "ratio", "walk.unattributed_share": "ratio", "walk.over_round": "ratio",
}

// spanMedians returns, per span name, the median duration in seconds.
func spanMedians(spans []span) map[string]float64 {
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e9)
	}
	out := make(map[string]float64)
	for name, durs := range byName {
		out[name] = median(durs)
	}
	return out
}

// runTraced measures the per-layer metrics. (a) It runs the workload on
// the TCP fleet, alternating traced and untraced rounds so that the cost
// of the spans themselves shows as trace.overhead_share, and reads the
// layers' counters around each round. (b) It walks the round over
// in-process servers. (c) It times the primitive layers directly. The
// numbers never mix with an untraced run's end-to-end metrics.
func runTraced(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	maxPairs := max(2, w.maxRounds/2)
	b, err := setUp(ctx, w, cfg, 1+2*maxPairs)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	if _, err := b.round(ctx); err != nil { // warm-up
		return nil, err
	}
	tr := newTracer()
	var traced, untraced []*sample
	start := time.Now()
	for n := 0; n < 2 || (time.Since(start).Seconds() < cfg.seconds*tcpShare && n < maxPairs); n++ {
		for _, on := range []bool{true, false} {
			b.d.tr = nil
			if on {
				b.d.tr = tr
			}
			s, err := b.round(ctx)
			if err != nil {
				return nil, err
			}
			if on {
				traced = append(traced, s)
			} else {
				untraced = append(untraced, s)
			}
		}
	}
	// One small round of the service the workload does not run, so that
	// the client and coordinator calls of both services are measured on
	// every workload.
	b.d.tr = tr
	other, err := b.d.measureRound(ctx, b.sc, w.other(), 1, false, b.sc.coverPlan())
	if err != nil {
		return nil, err
	}
	b.checkReplicas()
	all := append(append([]*sample(nil), traced...), untraced...)
	med := func(samples []*sample, get func(*sample) float64) float64 { return median(column(samples, get)) }
	roundS := med(untraced, func(s *sample) float64 { return s.round })

	dir := ""
	if cfg.tmp != "" {
		if dir, err = os.MkdirTemp(cfg.tmp, "walk-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	walked, err := walk(ctx, w, cfg.seed, cfg.seconds*walkShare, dir)
	if err != nil {
		return nil, err
	}
	if walked.unattributed > 0.10 {
		walked.sc.fail("walk: %.1f%% of a walked round is covered by no span, more than 10%%", 100*walked.unattributed)
	}
	layers, err := primitiveProbes(w, cfg.probeScale)
	if err != nil {
		return nil, err
	}

	spans := spanMedians(tr.snapshot())
	layers["coordinator.open_ms"] = 1e3 * spans["coordinator.open"]
	layers["coordinator.finish_ms"] = 1e3 * spans["coordinator.finish"]
	layers["entry.tcp_submit_ms"] = 1e3 * spans["entry.tcp_submit"]
	layers["core.submit_addfriend_ms"] = 1e3 * spans["core.submit_addfriend"]
	layers["core.submit_dial_ms"] = 1e3 * spans["core.submit_dial"]
	layers["core.scan_addfriend_s"] = spans["core.scan_addfriend"]
	layers["core.scan_dial_ms"] = 1e3 * spans["core.scan_dial"]
	layers["sim.generate_s"] = spans["sim.generate"]

	layers["coordinator.overhead_s"] = med(all, func(s *sample) float64 { return s.publish - s.slowestDaemon })
	for pos := 0; pos < numPositions; pos++ {
		pos := pos
		layers[fmt.Sprintf("mixnet.pos%d.busy_s", pos)] = med(all, func(s *sample) float64 { return s.busy[pos] })
	}
	layers["mixnet.shard_skew"] = med(all, func(s *sample) float64 { return s.skew })
	layers["mixnet.onions_in"] = med(all, func(s *sample) float64 { return s.onionsIn })
	layers["mixnet.noise_onions"] = med(all, func(s *sample) float64 { return s.noiseOnions })
	layers["rpc.mix_bytes_per_onion"] = med(all, func(s *sample) float64 { return s.mixBytesOut / (s.onionsIn + s.noiseOnions) })
	layers["rpc.coord_bytes_per_round"] = med(all, func(s *sample) float64 { return s.coordBytes })
	layers["rpc.coord_calls_per_round"] = med(all, func(s *sample) float64 { return s.coordCalls })
	layers["cdn.fetches"] = med(all, func(s *sample) float64 { return s.cdnFetches })
	layers["cdn.bytes_served"] = med(all, func(s *sample) float64 { return s.cdnBytes })
	layers["cdn.replicate_ms"] = 1e3 * med(traced, func(s *sample) float64 { return s.replicate })
	layers["pkgserver.extractions"] = med(all, func(s *sample) float64 { return s.extractions })
	if w.service == wire.Dialing {
		// Only add-friend rounds extract; the complement round is one.
		layers["pkgserver.extractions"] = other.extractions
	}

	layers["entry.submit_us"] = 1e6 * walked.submitPerOnion
	layers["entry.close_ms"] = 1e3 * walked.layers["entry.close"]
	layers["mixnet.stream_chunk_s"] = walked.layers["mixnet.stream_chunk"]
	layers["mixnet.stream_end_s"] = walked.layers["mixnet.stream_end"]
	layers["mixnet.build_ms"] = 1e3 * walked.layers["mixnet.build"]
	layers["cdn.disk_seal_ms"] = 1e3 * walked.layers["cdn.disk_seal"]
	layers["cdn.fetch_us"] = 1e6 * walked.layers["cdn.fetch"]

	layers["bench.round_spread"] = summarize(column(untraced, func(s *sample) float64 { return s.round })).spread()
	layers["trace.overhead_share"] = med(traced, func(s *sample) float64 { return s.round })/roundS - 1
	layers["walk.unattributed_share"] = walked.unattributed
	layers["walk.over_round"] = walked.total / roundS

	res := &result{
		Workload: w.name, Seed: cfg.seed, Rounds: len(all),
		Attempted: b.sc.attempted + walked.sc.attempted,
		Failed:    b.sc.failed + walked.sc.failed,
		Problems:  append(b.sc.problems, walked.sc.problems...),
		Layers:    layers,
		spans:     map[string][]span{"tcp": tr.snapshot(), "walk": walked.spans},
	}
	return res, nil
}
