package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"runtime"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/core"
	"alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// The layer walk runs a workload's round once more over in-process
// servers, one call after another, with the benchmark itself doing what
// CloseRound does. Nothing overlaps, so each call's span is that layer's
// cost, and the total says how much overlap the TCP fleet gets.
//
// mixnet.Server.StreamChunk returns before the chunk is peeled and
// StreamBegin starts noise generation in the background, so one server
// fed a stream would peel and wrap at once. To keep them apart the walk
// gives each position the fleet's two-member shard group but divides the
// work by kind: the peel member takes every onion and makes no noise, the
// noise member takes no onions and makes the whole position's noise, and
// the noise member's MergeShuffle permutes the two outputs together.
type walkPosition struct {
	noise, peel *mixnet.Server
}

// walkNet is the walk's deployment: the same kinds of servers as the
// fleet, called directly.
type walkNet struct {
	provider  *email.InMemoryProvider
	pkgs      []*pkgserver.Server
	positions []walkPosition
	entry     *entry.Server
	store     *cdn.Store
	cfg       fleetConfig
	tr        *tracer

	mixerKeys  []ed25519.PublicKey
	pkgKeys    []ed25519.PublicKey
	pkgBLSKeys []*bls.PublicKey

	// windows are the ids of each walked round's close→scan span.
	windows []int
}

func newWalkNet(cfg fleetConfig, tr *tracer) (*walkNet, error) {
	wn := &walkNet{provider: email.NewInMemoryProvider(), entry: entry.New(), cfg: cfg, tr: tr}
	for i := 0; i < numPKGs; i++ {
		pkg, err := pkgserver.New(pkgserver.Config{Name: fmt.Sprintf("pkg%d", i), Provider: wn.provider})
		if err != nil {
			return nil, err
		}
		wn.pkgs = append(wn.pkgs, pkg)
		wn.pkgKeys = append(wn.pkgKeys, pkg.SigningKey())
		wn.pkgBLSKeys = append(wn.pkgBLSKeys, pkg.BLSKey())
	}
	// A member of an N-shard group draws ceil(mu/N) per mailbox, so the
	// noise member is configured with N times what the fleet's whole
	// position emits.
	whole := func(mu float64) *noise.Laplace {
		return &noise.Laplace{Mu: float64(shardsPerPos * noisePerMailbox(mu) / numPositions)}
	}
	none := &noise.Laplace{}
	for pos := 0; pos < numPositions; pos++ {
		var p walkPosition
		var err error
		p.noise, err = mixnet.New(mixnet.Config{
			Name: fmt.Sprintf("noise%d", pos), Position: pos, ChainLength: numPositions,
			AddFriendNoise: whole(cfg.addFriendMu), DialingNoise: whole(cfg.dialingMu),
			ShardIndex: 0, ShardCount: shardsPerPos,
		})
		if err != nil {
			return nil, err
		}
		p.peel, err = mixnet.New(mixnet.Config{
			Name: fmt.Sprintf("peel%d", pos), Position: pos, ChainLength: numPositions,
			AddFriendNoise: none, DialingNoise: none,
			ShardIndex: 1, ShardCount: shardsPerPos,
		})
		if err != nil {
			return nil, err
		}
		wn.positions = append(wn.positions, p)
		wn.mixerKeys = append(wn.mixerKeys, p.noise.SigningKey())
	}
	var err error
	if cfg.dir == "" {
		wn.store = cdn.NewStore(0)
	} else if wn.store, err = cdn.OpenDiskStore(cfg.dir, 0); err != nil {
		return nil, err
	}
	return wn, nil
}

func (wn *walkNet) close() { wn.store.Close() }

func (wn *walkNet) newProbe(ctx context.Context, i int) (*probe, error) {
	p := &probe{email: fmt.Sprintf("probe%d@bench.example", i), events: &recorder{}}
	p.entry = &spanEntry{EntryServer: sim.EntryAdapter{E: wn.entry}, parent: -1}
	pkgs := make([]core.PKG, len(wn.pkgs))
	for j, pkg := range wn.pkgs {
		pkgs[j] = sim.PKGAdapter{P: pkg}
	}
	client, err := core.NewClient(core.Config{
		Email:      p.email,
		PKGs:       pkgs,
		Entry:      p.entry,
		Mailboxes:  sim.CDNAdapter{S: wn.store},
		MixerKeys:  wn.mixerKeys,
		PKGKeys:    wn.pkgKeys,
		PKGBLSKeys: wn.pkgBLSKeys,
		NumIntents: numIntents,
		Handler:    p.events,
	})
	if err != nil {
		return nil, err
	}
	p.client = client
	if err := client.Register(ctx); err != nil {
		return nil, err
	}
	return p, confirmAll(ctx, wn.provider, wn.pkgs, client)
}

// open does what Coordinator.Open*Round does for this deployment: PKG
// round keys, one onion key per position shared by its two members, shard
// layout, downstream keys, and the announcement on the entry server.
func (wn *walkNet) open(service wire.Service, round uint32, k uint32) (*wire.RoundSettings, error) {
	settings := &wire.RoundSettings{Service: service, Round: round, NumMailboxes: k}
	if service == wire.AddFriend {
		settings.PairingVersion = 2
		for _, pkg := range wn.pkgs {
			rk, err := pkg.NewRoundV2(round)
			if err != nil {
				return nil, err
			}
			settings.PKGs = append(settings.PKGs, rk)
		}
	}
	var keys [][]byte
	for _, p := range wn.positions {
		rk, err := p.noise.NewRound(service, round)
		if err != nil {
			return nil, err
		}
		priv, err := p.noise.ExportRoundKey(service, round)
		if err != nil {
			return nil, err
		}
		if err := p.peel.ImportRoundKey(service, round, priv); err != nil {
			return nil, err
		}
		for s, m := range []*mixnet.Server{p.noise, p.peel} {
			if err := m.SetRoundShard(service, round, s, shardsPerPos); err != nil {
				return nil, err
			}
		}
		settings.Mixers = append(settings.Mixers, rk)
		keys = append(keys, rk.OnionKey)
	}
	for i, p := range wn.positions {
		for _, m := range []*mixnet.Server{p.noise, p.peel} {
			if err := m.SetDownstreamKeys(service, round, keys[i+1:]); err != nil {
				return nil, err
			}
		}
	}
	return settings, wn.entry.OpenRound(settings)
}

// runRound walks one round. Only the stretch from closing intake to the
// last scan is attributed; what comes before it is set-up for the walk.
func (wn *walkNet) runRound(ctx context.Context, sc *scenario, service wire.Service, k uint32, synth bool, plan roundPlan) error {
	tr := wn.tr
	round := sc.nextRound(service)
	root := tr.begin("walk.round", -1, round)
	defer tr.end(root)

	settings, err := wn.open(service, round, k)
	if err != nil {
		return fmt.Errorf("walk: opening round: %w", err)
	}
	batch := &synthBatch{}
	if synth {
		if batch, err = sc.w.generate(settings, sc.seed<<20+int64(round)); err != nil {
			return err
		}
		id := tr.begin("entry.submit", root, round)
		for _, onions := range batch.onions {
			for _, onion := range onions {
				if err == nil {
					err = wn.entry.Submit(service, round, onion)
				}
			}
		}
		tr.end(id)
		if err != nil {
			return fmt.Errorf("walk: submitting synthetic onions: %w", err)
		}
	}
	sc.submitAll(ctx, tr, root, service, round, plan.submit)

	window := tr.begin("walk.window", root, round)
	step := func(name string, parent int, fn func() error) error {
		id := tr.begin(name, parent, round)
		defer tr.end(id)
		return fn()
	}
	var onions [][]byte
	err = step("entry.close", window, func() (err error) {
		onions, err = wn.entry.CloseRound(service, round)
		return err
	})
	if err != nil {
		return err
	}
	if service == wire.AddFriend {
		// Intake is closed, so the PKG master keys die now, as they do
		// inside Coordinator.CloseRound.
		step("pkgserver.close_round", window, func() error {
			for _, pkg := range wn.pkgs {
				pkg.CloseRound(round)
			}
			return nil
		})
	}
	for i, p := range wn.positions {
		hop := tr.begin(fmt.Sprintf("mixnet.hop%d", i), window, round)
		var peeled, noiseMsgs [][]byte
		err = step("mixnet.stream_chunk", hop, func() (err error) {
			if err = p.peel.StreamBegin(service, round, k); err != nil {
				return err
			}
			for lo := 0; lo < len(onions); lo += mixnet.DefaultStreamChunk {
				hi := lo + mixnet.DefaultStreamChunk
				if hi > len(onions) {
					hi = len(onions)
				}
				if err = p.peel.StreamChunk(service, round, onions[lo:hi]); err != nil {
					return err
				}
			}
			peeled, err = p.peel.StreamEndShard(service, round)
			return err
		})
		if err == nil {
			err = step("mixnet.stream_end", hop, func() (err error) {
				if err = p.noise.StreamBegin(service, round, k); err != nil {
					return err
				}
				if noiseMsgs, err = p.noise.StreamEndShard(service, round); err != nil {
					return err
				}
				onions, err = p.noise.MergeShuffle(service, round, [][][]byte{noiseMsgs, peeled})
				return err
			})
		}
		tr.end(hop)
		if err != nil {
			return fmt.Errorf("walk: position %d: %w", i, err)
		}
		if want := noisePerMailbox(wn.cfg.mu(service)) * int(k) / numPositions; len(noiseMsgs) != want {
			sc.fail("walk %s round %d: position %d made %d noise onions, want %d", serviceTag(service), round, i, len(noiseMsgs), want)
		}
	}
	var boxes map[uint32][]byte
	err = step("mixnet.build", window, func() (err error) {
		boxes, err = mixnet.BuildMailboxesParallel(service, k, onions, runtime.GOMAXPROCS(0))
		return err
	})
	if err == nil {
		err = step("cdn.disk_seal", window, func() error { return wn.store.PublishOwned(service, round, boxes) })
	}
	if err != nil {
		return fmt.Errorf("walk: publishing: %w", err)
	}
	step("mixnet.close_round", window, func() error {
		for _, p := range wn.positions {
			p.noise.CloseRound(service, round)
			p.peel.CloseRound(service, round)
		}
		return nil
	})
	wn.entry.AnnouncePublished(service, round)
	if len(plan.inClock) > 0 {
		mb := wire.MailboxID(plan.inClock[0].email, k)
		if err := step("cdn.fetch", window, func() error { _, err := wn.store.Fetch(service, round, mb); return err }); err != nil {
			sc.fail("walk %s round %d: fetching mailbox %d: %v", serviceTag(service), round, mb, err)
		}
	}
	sc.scanAll(ctx, tr, window, service, round, plan.inClock)
	tr.end(window)
	wn.windows = append(wn.windows, window)

	sc.scanAll(ctx, tr, root, service, round, plan.after)
	sc.checkDelivery(service, round, k, wn.store, batch, plan)
	return nil
}

// walkResult is what the walked rounds say about the layers.
type walkResult struct {
	// layers maps a span name to the median, over walked rounds, of the
	// summed self time of that name's spans inside the window, in seconds.
	layers map[string]float64
	// total is the median window length; unattributed is the largest
	// share of a window that no span covers.
	total, unattributed float64
	// submitPerOnion is entry.Submit's cost per synthetic onion, seconds.
	submitPerOnion float64
	// sc is the walked scenario, with what it attempted and got wrong;
	// spans are the walk's own.
	sc    *scenario
	spans []span
}

// analyse turns the walk's spans into per-layer self times. skip is how
// many leading windows (set-up and warm-up rounds) to leave out.
func (wn *walkNet) analyse(skip, onionsPerRound int) walkResult {
	spans := wn.tr.snapshot()
	self := selfTimes(spans)
	res := walkResult{layers: make(map[string]float64)}
	perName := make(map[string][]float64)
	var totals, submits []float64
	for _, w := range wn.windows[skip:] {
		var children [][2]int64
		sums := make(map[string]float64)
		for i, s := range spans {
			// A span is inside the window if its chain of parents
			// reaches it; the walk nests two levels deep at most.
			if s.Parent == w || (s.Parent >= 0 && spans[s.Parent].Parent == w) {
				sums[s.Name] += float64(self[i]) / 1e9
			}
			if s.Parent == w {
				children = append(children, [2]int64{s.Start, s.End})
			}
			if s.Name == "entry.submit" && s.Round == spans[w].Round && onionsPerRound > 0 {
				submits = append(submits, float64(s.End-s.Start)/1e9/float64(onionsPerRound))
			}
		}
		for name, v := range sums {
			perName[name] = append(perName[name], v)
		}
		length := spans[w].End - spans[w].Start
		totals = append(totals, float64(length)/1e9)
		if share := 1 - float64(covered(spans[w].Start, spans[w].End, children))/float64(length); share > res.unattributed {
			res.unattributed = share
		}
	}
	for name, v := range perName {
		res.layers[name] = median(v)
	}
	res.total = median(totals)
	res.submitPerOnion = median(submits)
	return res
}

// walkMaxRounds bounds the walked rounds of one traced run.
const walkMaxRounds = 8

// walk runs the workload's round on in-process servers for about the
// given seconds (one warm-up round, then at least two) and attributes it.
func walk(ctx context.Context, w workload, seed int64, seconds float64, dir string) (walkResult, error) {
	wn, err := newWalkNet(w.fleetConfig(dir), newTracer())
	if err != nil {
		return walkResult{}, err
	}
	defer wn.close()
	sc, err := newScenario(ctx, wn, w, seed, walkMaxRounds)
	if err != nil {
		return walkResult{}, err
	}
	skip := len(wn.windows) + 1 // befriending rounds, then one warm-up
	synth := w.synthReal+w.synthCover > 0
	start := time.Now()
	for n := 0; n < 3 || (time.Since(start).Seconds() < seconds && n < walkMaxRounds); n++ {
		if err := wn.runRound(ctx, sc, w.service, w.mailboxes, synth, sc.plan(w.mailboxes)); err != nil {
			return walkResult{}, err
		}
	}
	res := wn.analyse(skip, w.synthReal+w.synthCover)
	res.sc, res.spans = sc, wn.tr.snapshot()
	return res, nil
}
