package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"alpenhorn/internal/wire"
)

// runConfig is what a run is given besides its workload.
type runConfig struct {
	seed    int64
	seconds float64
	// tmp is the directory the CDN nodes write their segments under; ""
	// selects the memory backend, which only the smoke test may use.
	tmp string
	// An untraced run sets the deployment up at least setUps times, and
	// goes on doing so (a set-up takes 10 to 150 ms) until setUpSeconds
	// have passed: setup_s is the median and the last one is measured on.
	setUps       int
	setUpSeconds float64
	// probeScale scales the primitive probes' loop counts.
	probeScale float64
}

// bench is one deployment of a workload, set up and ready for rounds.
type bench struct {
	w   workload
	d   *tcpDriver
	sc  *scenario
	dir string
}

// setUp starts the fleet under a fresh directory of tmp, registers the
// workload's clients and runs their befriending rounds: everything before
// the first warm-up round. rounds bounds how many rounds will be run on it.
func setUp(ctx context.Context, w workload, cfg runConfig, rounds int) (*bench, error) {
	b := &bench{w: w}
	if cfg.tmp != "" {
		dir, err := os.MkdirTemp(cfg.tmp, "fleet-")
		if err != nil {
			return nil, err
		}
		b.dir = dir
	}
	f, err := startFleet(w.fleetConfig(b.dir))
	if err != nil {
		os.RemoveAll(b.dir)
		return nil, err
	}
	b.d = &tcpDriver{f: f}
	if b.sc, err = newScenario(ctx, b.d, w, cfg.seed, rounds); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) close() {
	b.d.f.close()
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// round runs one round of the workload.
func (b *bench) round(ctx context.Context) (*sample, error) {
	synth := b.w.synthReal+b.w.synthCover > 0
	return b.d.measureRound(ctx, b.sc, b.w.service, b.w.mailboxes, synth, b.sc.plan(b.w.mailboxes))
}

// checkReplicas verifies, once the rounds are over, that both CDN nodes
// hold byte-identical copies of every round.
func (b *bench) checkReplicas() {
	a, peer := b.d.f.cdns[0].store, b.d.f.cdns[1].store
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		for _, ri := range a.Rounds(service) {
			b.sc.attempted++
			deadline := time.Now().Add(5 * time.Second)
			for !peer.Published(service, ri.Round) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			sum, ok := peer.Checksum(service, ri.Round)
			if !ok || sum != ri.Checksum {
				b.sc.fail("%s round %d: the CDN nodes do not hold identical rounds", serviceTag(service), ri.Round)
			}
		}
	}
}

// timed runs warm-up rounds, then measured rounds until seconds have
// passed, within the workload's round bounds.
func (b *bench) timed(ctx context.Context, seconds float64) ([]*sample, error) {
	for i := 0; i < b.w.warmup; i++ {
		if _, err := b.round(ctx); err != nil {
			return nil, err
		}
	}
	var samples []*sample
	start := time.Now()
	for len(samples) < b.w.maxRounds && (len(samples) < b.w.minRounds || time.Since(start).Seconds() < seconds) {
		s, err := b.round(ctx)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// result is what one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Rounds    int                `json:"rounds_timed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	E2E       map[string]summary `json:"e2e,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	// spans holds a traced run's spans: the TCP driver's and the walk's,
	// each indexed on its own.
	spans map[string][]span
}

func column(samples []*sample, get func(*sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = get(s)
	}
	return out
}

// maxSetUps bounds the set-ups of one run.
const maxSetUps = 40

// runUntraced measures the end-to-end metrics: it sets the deployment up
// several times, then runs rounds on the last one for cfg.seconds.
func runUntraced(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	var setups []float64
	var b *bench
	begin := time.Now()
	for len(setups) < cfg.setUps || (time.Since(begin).Seconds() < cfg.setUpSeconds && len(setups) < maxSetUps) {
		if b != nil {
			b.close()
			runtime.GC() // the torn-down fleet is not the next set-up's to collect
		}
		start := time.Now()
		var err error
		if b, err = setUp(ctx, w, cfg, w.warmup+w.maxRounds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	samples, err := b.timed(ctx, cfg.seconds)
	if err != nil {
		return nil, err
	}
	b.checkReplicas()

	res := &result{
		Workload: w.name, Seed: cfg.seed, Rounds: len(samples),
		Attempted: b.sc.attempted, Failed: b.sc.failed, Problems: b.sc.problems,
	}
	res.E2E = map[string]summary{
		"setup_s":   summarize(setups),
		"round_s":   summarize(column(samples, func(s *sample) float64 { return s.round })),
		"cycle_s":   summarize(column(samples, func(s *sample) float64 { return s.cycle })),
		"publish_s": summarize(column(samples, func(s *sample) float64 { return s.publish })),
		"onions_per_s": summarize(column(samples, func(s *sample) float64 {
			return (s.onionsIn + s.noiseOnions) / s.publish
		})),
		"client_bytes_per_round": summarize(column(samples, func(s *sample) float64 { return s.clientBytes })),
		"cpu_s_per_round":        summarize(column(samples, func(s *sample) float64 { return s.cpu })),
		"alloc_mb_per_round":     summarize(column(samples, func(s *sample) float64 { return s.allocMB })),
	}
	return res, nil
}
