package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/wire"
)

// tcpDriver runs rounds on the TCP fleet, one round in flight: the next
// opens when the previous scan has returned (closed loop).
type tcpDriver struct {
	f  *fleet
	tr *tracer // nil while rounds run untraced
}

func (d *tcpDriver) newProbe(ctx context.Context, i int) (*probe, error) {
	return d.f.newProbe(ctx, i)
}

// sample is everything measured in one round. Times are seconds; counters
// are deltas over the round.
type sample struct {
	cycle, round, publish float64
	cpu, allocMB          float64
	clientBytes           float64

	onionsIn, noiseOnions  float64
	mixBytesOut            float64
	coordBytes, coordCalls float64
	cdnFetches, cdnBytes   float64
	extractions            float64
	replicate              float64 // close returned → peer node sealed; traced rounds only
	busy                   [numPositions]float64
	skew, slowestDaemon    float64
}

// eachProbe runs fn over the probes on at most nproc goroutines, the
// benchmark's bound on generator and client concurrency, and returns the
// per-probe errors in order.
func eachProbe(probes []*probe, fn func(p *probe) error) []error {
	errs := make([]error, len(probes))
	workers := runtime.NumCPU()
	if workers > len(probes) {
		workers = len(probes)
	}
	next := make(chan int, len(probes))
	for i := range probes {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(probes[i])
			}
		}()
	}
	wg.Wait()
	return errs
}

// submitAll and scanAll run the clients' round phases with a span around
// each, and count every call as attempted and every error as failed.
func (sc *scenario) submitAll(ctx context.Context, tr *tracer, root int, service wire.Service, round uint32, probes []*probe) {
	tag := serviceTag(service)
	errs := eachProbe(probes, func(p *probe) error {
		sp := tr.begin("core.submit_"+tag, root, round)
		defer tr.end(sp)
		p.entry.tr, p.entry.parent = tr, sp
		if service == wire.AddFriend {
			return p.client.SubmitAddFriendRound(ctx, round)
		}
		return p.client.SubmitDialRound(ctx, round)
	})
	sc.attempted += len(probes)
	for i, err := range errs {
		if err != nil {
			sc.fail("%s round %d: %s submit: %v", tag, round, probes[i].email, err)
		}
	}
}

func (sc *scenario) scanAll(ctx context.Context, tr *tracer, root int, service wire.Service, round uint32, probes []*probe) {
	tag := serviceTag(service)
	errs := eachProbe(probes, func(p *probe) error {
		sp := tr.begin("core.scan_"+tag, root, round)
		defer tr.end(sp)
		if service == wire.AddFriend {
			return p.client.ScanAddFriendRound(ctx, round)
		}
		return p.client.ScanDialRound(ctx, round)
	})
	sc.attempted += len(probes)
	for i, err := range errs {
		if err != nil {
			sc.fail("%s round %d: %s scan: %v", tag, round, probes[i].email, err)
		}
	}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// counters is a snapshot of the accessors the layers already export.
type counters struct {
	intake, noise          uint64 // position 0 intake; noise of all positions
	coordBytes, coordCalls uint64
	cdnFetches, cdnBytes   uint64
	extractions            uint64
}

func (f *fleet) counters() counters {
	var c counters
	for pos, group := range f.mixers {
		for _, m := range group {
			processed, noise := m.Stats()
			if pos == 0 {
				c.intake += processed
			}
			c.noise += noise
		}
	}
	for _, group := range f.mixerClients {
		for _, mc := range group {
			st := mc.TransportStats()
			c.coordBytes += st.BytesSent + st.BytesReceived
			c.coordCalls += st.Calls
		}
	}
	for _, n := range f.cdns {
		c.cdnFetches += n.store.Fetches()
		c.cdnBytes += n.store.BytesServed()
	}
	for _, p := range f.pkgs {
		c.extractions += p.Extractions()
	}
	return c
}

func (d *tcpDriver) runRound(ctx context.Context, sc *scenario, service wire.Service, k uint32, synth bool, plan roundPlan) error {
	_, err := d.measureRound(ctx, sc, service, k, synth, plan)
	return err
}

// measureRound drives one round: open, generate and submit, close, scan.
// The clock every per-round end-to-end metric shares starts when
// CloseRound is called and stops when the last in-clock scan returns;
// cycle alone starts at open.
func (d *tcpDriver) measureRound(ctx context.Context, sc *scenario, service wire.Service, k uint32, synth bool, plan roundPlan) (*sample, error) {
	f, tr := d.f, d.tr
	round := sc.nextRound(service)
	tag := serviceTag(service)
	s := &sample{}

	f.pinMailboxes(service, k)
	before := f.counters()
	bytesAtOpen := make([]uint64, len(plan.inClock))
	for i, p := range plan.inClock {
		bytesAtOpen[i] = p.transportBytes()
	}
	root := tr.begin("round", -1, round)
	defer tr.end(root)

	sc.attempted++
	tOpen := time.Now()
	id := tr.begin("coordinator.open", root, round)
	var settings *wire.RoundSettings
	var err error
	if service == wire.AddFriend {
		settings, err = f.coord.OpenAddFriendRound(round)
	} else {
		settings, err = f.coord.OpenDialingRound(round)
	}
	tr.end(id)
	if err != nil {
		sc.fail("%s round %d open: %v", tag, round, err)
		return nil, err
	}
	if settings.NumMailboxes != k {
		sc.fail("%s round %d opened with %d mailboxes, the workload states %d", tag, round, settings.NumMailboxes, k)
	}
	pkgBytesAtOpen := f.pkgBytes.Load()

	batch := &synthBatch{}
	if synth {
		id = tr.begin("sim.generate", root, round)
		batch, err = sc.w.generate(settings, sc.seed<<20+int64(round))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		// The synthetic batch enters each frontend's intake by a function
		// call; only the real clients submit over TCP.
		id = tr.begin("entry.submit", root, round)
		for g, onions := range batch.onions {
			for _, onion := range onions {
				if err == nil {
					err = f.entries[g].Submit(service, round, onion)
				}
			}
		}
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("submitting synthetic onions: %w", err)
		}
	}
	sc.submitAll(ctx, tr, root, service, round, plan.submit)
	// Between open and close only the clients talk to the PKGs, so what
	// the PKG listeners moved over that stretch is extraction traffic.
	pkgBytesPerClient := 0.0
	if len(plan.submit) > 0 {
		pkgBytesPerClient = float64(f.pkgBytes.Load()-pkgBytesAtOpen) / float64(len(plan.submit))
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()

	sc.attempted++
	tClose := time.Now()
	id = tr.begin("coordinator.close", root, round)
	_, err = f.coord.CloseRound(service, round)
	tr.end(id)
	tPublished := time.Now()
	s.publish = tPublished.Sub(tClose).Seconds()
	if err != nil {
		sc.fail("%s round %d close: %v", tag, round, err)
		return nil, err
	}
	replicated := make(chan float64, 1)
	if tr != nil {
		go func() {
			peer := f.cdns[1].store
			for !peer.Published(service, round) && time.Since(tPublished) < 5*time.Second {
				time.Sleep(100 * time.Microsecond)
			}
			replicated <- time.Since(tPublished).Seconds()
		}()
	}

	sc.scanAll(ctx, tr, root, service, round, plan.inClock)
	tScanned := time.Now()
	s.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	s.round = tScanned.Sub(tClose).Seconds()
	s.cycle = tScanned.Sub(tOpen).Seconds()
	s.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	if n := len(plan.inClock); n > 0 {
		total := 0.0
		for i, p := range plan.inClock {
			total += float64(p.transportBytes() - bytesAtOpen[i])
		}
		s.clientBytes = total/float64(n) + pkgBytesPerClient
	}

	sc.scanAll(ctx, tr, root, service, round, plan.after)
	if service == wire.AddFriend {
		id = tr.begin("coordinator.finish", root, round)
		f.coord.FinishAddFriendRound(round)
		tr.end(id)
	}
	if tr != nil {
		s.replicate = <-replicated
	}

	after := f.counters()
	s.onionsIn = float64(after.intake - before.intake)
	s.noiseOnions = float64(after.noise - before.noise)
	s.coordBytes = float64(after.coordBytes - before.coordBytes)
	s.coordCalls = float64(after.coordCalls - before.coordCalls)
	s.cdnFetches = float64(after.cdnFetches - before.cdnFetches)
	s.cdnBytes = float64(after.cdnBytes - before.cdnBytes)
	s.extractions = float64(after.extractions - before.extractions)

	// The fleet must have run as wired: every onion through position 0,
	// the stated noise, six daemons reporting, the round sealed from the
	// last group's two publish streams.
	if want := len(plan.submit) + batch.size(); int(s.onionsIn) != want {
		sc.fail("%s round %d: position 0 took in %d onions, want %d", tag, round, int(s.onionsIn), want)
	}
	if want := noisePerMailbox(f.coord.Mixers[0].NoiseMu(service)) * int(k); int(s.noiseOnions) != want {
		sc.fail("%s round %d: %d noise onions, want %d", tag, round, int(s.noiseOnions), want)
	}
	if got := f.cdns[0].daemon.LastSealStreams(); got != shardsPerPos {
		sc.fail("%s round %d sealed from %d publish streams, want %d", tag, round, got, shardsPerPos)
	}
	d.readHealth(sc, s, service, round)
	sc.checkDelivery(service, round, k, f.cdns[0].store, batch, plan)
	return s, nil
}

// readHealth folds the coordinator's record of the round — each daemon's
// self-reported duration and bytes — into the sample.
func (d *tcpDriver) readHealth(sc *scenario, s *sample, service wire.Service, round uint32) {
	var h *coordinator.RoundHealth
	status := d.f.coord.Status()
	for i := len(status) - 1; i >= 0 && h == nil; i-- {
		if status[i].Service == service && status[i].Round == round {
			h = &status[i]
		}
	}
	if h == nil || len(h.Daemons) != numPositions*shardsPerPos {
		sc.fail("%s round %d: no health record with %d daemons", serviceTag(service), round, numPositions*shardsPerPos)
		return
	}
	var lo, hi [numPositions]float64
	for _, dm := range h.Daemons {
		dur := dm.Stats.Duration.Seconds()
		s.mixBytesOut += float64(dm.Stats.BytesOut)
		if dur > s.slowestDaemon {
			s.slowestDaemon = dur
		}
		pos := dm.Position
		if dur > hi[pos] {
			hi[pos] = dur
		}
		if lo[pos] == 0 || dur < lo[pos] {
			lo[pos] = dur
		}
	}
	for pos := range hi {
		s.busy[pos] = hi[pos]
		if lo[pos] > 0 && hi[pos]/lo[pos] > s.skew {
			s.skew = hi[pos] / lo[pos]
		}
	}
}
