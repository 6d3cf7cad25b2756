package rpc_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mathrand "math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// submitSplitTokens wraps the SAME onions, in the SAME order, with the
// SAME seeded randomness as submitTokens — but deals them across the
// frontends, first half to the first, second half to the second. The
// concatenation of the frontends' sub-batches is therefore byte-for-byte
// the single-frontend batch.
func submitSplitTokens(t *testing.T, frontends []*entry.Server, settings *wire.RoundSettings, tokens [][]byte, rnd *mathrand.Rand) {
	t.Helper()
	hops := make([]*onionbox.PublicKey, len(settings.Mixers))
	for i, rk := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = pk
	}
	src := &seededReader{rng: rnd}
	half := (len(tokens) + 1) / 2
	for i, tok := range tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(src, hops, payload)
		if err != nil {
			t.Fatal(err)
		}
		target := frontends[0]
		if i >= half {
			target = frontends[1]
		}
		if err := target.Submit(settings.Service, settings.Round, onion); err != nil {
			t.Fatal(err)
		}
	}
}

// runSeededForwardRound runs one fully seeded chain-forward dialing round
// with the given number of entry frontends (1 or 2; the second joins over
// the TCP entry.replicate surface) and returns the published mailboxes.
func runSeededForwardRound(t *testing.T, numFrontends int) (*wire.RoundSettings, map[uint32][]byte) {
	t.Helper()
	nz := noise.Laplace{Mu: 2, B: 0}
	const numTokens = 90
	tokens := makeTestTokens(numTokens)

	f := startFleet(t, 3, nz, func(pos int) mathrand.Source {
		return mathrand.NewSource(int64(1000 + pos))
	})
	store, cdnAddr := startCDN(t)
	e := entry.New()
	coord := forwardCoordinator(f, e, cdnAddr)
	coord.TargetRequestsPerMailbox = 40
	coord.ChunkSize = 16
	coord.SetExpectedVolume(wire.Dialing, numTokens)

	var extra *entry.Server
	if numFrontends == 2 {
		extra = entry.New()
		repSrv := rpc.NewServer()
		rpc.RegisterEntryReplica(repSrv, extra)
		repAddr, err := repSrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(repSrv.Close)
		coord.Frontends = []coordinator.Frontend{rpc.DialEntryReplica(repAddr)}
	}

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if extra != nil {
		// The replicated announcement log opened the round on the extra
		// frontend too (same settings, same cursor namespace).
		repSettings, err := extra.Settings(wire.Dialing, 1)
		if err != nil {
			t.Fatalf("extra frontend missed the open announcement: %v", err)
		}
		if !bytes.Equal(repSettings.Marshal(), settings.Marshal()) {
			t.Fatal("extra frontend holds different settings than the coordinator announced")
		}
	}

	rnd := mathrand.New(mathrand.NewSource(4242))
	if extra == nil {
		submitTokens(t, e, settings, tokens, rnd)
	} else {
		submitSplitTokens(t, []*entry.Server{e, extra}, settings, tokens, rnd)
		if got := extra.BatchSize(wire.Dialing, 1); got != numTokens/2 {
			t.Fatalf("extra frontend admitted %d onions, want %d", got, numTokens/2)
		}
	}

	if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if !store.Published(wire.Dialing, 1) {
		t.Fatal("round not published")
	}
	if extra != nil {
		if st := extra.Status(wire.Dialing); st.LatestPublished != 1 {
			t.Fatalf("extra frontend's log missed the published announcement (latest=%d)", st.LatestPublished)
		}
	}

	boxes := make(map[uint32][]byte)
	for mb := uint32(0); mb < settings.NumMailboxes; mb++ {
		data, err := store.Fetch(wire.Dialing, 1, mb)
		if err != nil {
			t.Fatalf("mailbox %d: %v", mb, err)
		}
		boxes[mb] = data
	}
	return settings, boxes
}

// TestTwoFrontendIntakeByteIdentical is the N-way-intake acceptance pin: a
// round whose batch is admitted by TWO frontends — the second feeding its
// sub-batch through entry.replicate into position 0's counted
// NumUpstream=2 fan-in — publishes mailboxes byte-identical to the
// single-frontend round under the same seed. Scaling the entry tier out
// changes WHO admits an onion, never what the mixnet outputs.
func TestTwoFrontendIntakeByteIdentical(t *testing.T) {
	base, baseBoxes := runSeededForwardRound(t, 1)
	if base.NumMailboxes < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", base.NumMailboxes)
	}
	two, twoBoxes := runSeededForwardRound(t, 2)
	if two.NumMailboxes != base.NumMailboxes {
		t.Fatalf("two-frontend K=%d, single-frontend K=%d", two.NumMailboxes, base.NumMailboxes)
	}
	for mb := uint32(0); mb < base.NumMailboxes; mb++ {
		if !bytes.Equal(baseBoxes[mb], twoBoxes[mb]) {
			t.Errorf("mailbox %d differs between single- and two-frontend intake", mb)
		}
	}
}

// newTwoFrontendNetwork builds a deployment with two TCP frontends that
// share one announcement-log cursor namespace: the coordinator replays
// every open/publish to both entry servers.
func newTwoFrontendNetwork(t *testing.T) (*sim.Network, []*rpc.Server, []string) {
	t.Helper()
	network, err := sim.NewNetwork(sim.Config{NumPKGs: 1, NumMixers: 1, NumFrontends: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(network.Close)
	entries := []*entry.Server{network.Entry, network.Frontends[0]}
	var srvs []*rpc.Server
	var addrs []string
	for _, e := range entries {
		srv := rpc.NewServer()
		rpc.RegisterFrontend(srv, e, network.CDN, rpc.Directory{NumMixers: 1})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, addr)
	}
	return network, srvs, addrs
}

// TestRunFailsOverToSurvivingFrontend kills one of two frontends mid-round
// under Client.Run over TCP: the client resumes on the survivor FROM ITS
// CURSOR (the frontends share one announcement log, so no snapshot
// rebuild), never double-submits a round, never falls back to per-round
// settings fetches, and drains its goroutines on shutdown.
func TestRunFailsOverToSurvivingFrontend(t *testing.T) {
	network, srvs, addrs := newTwoFrontendNetwork(t)
	defer srvs[1].Close()
	baseline := runtime.NumGoroutine()

	pool := rpc.DialFrontendPool(addrs...)
	h := &sim.Handler{AcceptAll: true}
	cfg := network.ClientConfig("failover@tcp.example", h)
	cfg.Entry = pool
	cfg.Mailboxes = pool
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := network.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handle, err := client.ConnectDialing(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// One submission per round, wherever it lands: with a pool the onion
	// goes to whichever frontend the client currently uses, so the
	// double-submit budget sums both intake batches.
	batchTotal := func(r uint32) int {
		return network.Entry.BatchSize(wire.Dialing, r) + network.Frontends[0].BatchSize(wire.Dialing, r)
	}
	driveRounds := func(from, to uint32, window time.Duration) {
		t.Helper()
		for r := from; r <= to; r++ {
			if _, err := network.Coord.OpenDialingRound(r); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(window)
			for time.Now().Before(deadline) && batchTotal(r) < 1 {
				time.Sleep(2 * time.Millisecond)
			}
			if got := batchTotal(r); got > 1 {
				t.Fatalf("dialing round %d carries %d submissions across the tier, want at most 1 — the client double-submitted during failover", r, got)
			}
			if _, err := network.Coord.CloseRound(wire.Dialing, r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: rounds flow through frontend A (the pool's first member).
	driveRounds(1, 3, 5*time.Second)
	waitUntil(t, 10*time.Second, "pre-failover rounds to be scanned", func() bool {
		return client.DialRound() >= 4
	})

	// Phase 2: frontend A dies mid-deployment. Rounds keep happening; the
	// client's event stream breaks, the pool rotates to the survivor, and
	// the SAME cursor resumes there — the coordinator replayed every
	// announcement to both logs in the same order.
	srvs[0].Close()
	driveRounds(4, 6, 10*time.Second)
	waitUntil(t, 15*time.Second, "post-failover rounds to be scanned on the survivor", func() bool {
		return client.DialRound() >= 7 && client.DialBacklog() == 0
	})

	// Settings rode the open events on both frontends: failing over does
	// not resurrect the per-round settings fetch.
	if n := pool.CallCount("entry.settings"); n != 0 {
		t.Fatalf("client issued %d entry.settings fetches, want 0 (settings ride open events)", n)
	}

	// Shutdown drains every loop goroutine.
	start := time.Now()
	cancel()
	handle.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v, want well under one network timeout", elapsed)
	}
	if err := handle.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("handle.Err() = %v, want context.Canceled", err)
	}
	pool.Close()
	srvs[1].Close()
	network.Close() // its daemons' connection handlers are not the client's
	waitUntil(t, 5*time.Second, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestEventSettingsEliminateFetch pins the request the open events save: a
// client following the stream completes rounds with ZERO entry.settings
// fetches, because every round-open event carries the round's settings.
func TestEventSettingsEliminateFetch(t *testing.T) {
	network, srv, addr := newRunNetwork(t)
	defer srv.Close()
	fe := rpc.DialFrontend(addr)
	defer fe.Close()
	client, _ := newTCPRunClient(t, network, fe, "settings@tcp.example")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handle, err := client.ConnectDialing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()

	const rounds = 3
	driveDialRounds(t, network, 1, rounds, 1, 10*time.Second)
	waitUntil(t, 15*time.Second, "the client to scan all rounds", func() bool {
		return client.DialRound() >= rounds+1
	})
	if n := fe.CallCount("entry.settings"); n != 0 {
		t.Fatalf("client fetched settings %d times over %d tracked rounds, want 0 (settings ride open events)", n, rounds)
	}
}

// TestBadEventSettingsFallBackToFetch runs a client against a frontend
// that truncates the settings blob in every open event: the client must
// drop the bad copy and fall back to entry.settings — one extra RPC per
// round, every round still submitted and scanned.
func TestBadEventSettingsFallBackToFetch(t *testing.T) {
	network, srv, addr := newRunNetwork(t)
	defer srv.Close()
	type event struct {
		Cursor   uint64       `json:"cursor"`
		Service  wire.Service `json:"service"`
		Round    uint32       `json:"round"`
		Kind     int          `json:"kind"`
		Settings []byte       `json:"settings,omitempty"`
	}
	rpc.HandleFunc(srv, "entry.events", func(a struct {
		Cursor uint64 `json:"cursor"`
	}) (any, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		anns, next, _ := network.Entry.WaitEvents(ctx, a.Cursor, 0)
		events := make([]event, len(anns))
		for i, ann := range anns {
			events[i] = event{Cursor: ann.Cursor, Service: ann.Service, Round: ann.Round, Kind: int(ann.Kind)}
			if ann.Settings != nil {
				blob := ann.Settings.Marshal()
				events[i].Settings = blob[:len(blob)/2]
			}
		}
		return map[string]any{"events": events, "next": next}, nil
	})

	fe := rpc.DialFrontend(addr)
	defer fe.Close()
	client, _ := newTCPRunClient(t, network, fe, "fallback@tcp.example")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handle, err := client.ConnectDialing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()

	const rounds = 3
	driveDialRounds(t, network, 1, rounds, 1, 10*time.Second)
	waitUntil(t, 15*time.Second, "the client to scan all rounds", func() bool {
		return client.DialRound() >= rounds+1
	})
	if n := fe.CallCount("entry.settings"); n != rounds {
		t.Fatalf("%d entry.settings fetches over %d rounds with corrupt pushed settings, want one per round", n, rounds)
	}
}

// TestDirectoryProtocolMismatch pins the one version check of the client
// plane: a frontend whose directory carries no ProtocolVersion (0, as any
// frontend predating the field would send) is refused with
// ErrProtocolMismatch — by a single client and by a pool, which must NOT
// rotate away, since the frontend answered — while a current frontend's
// directory carries the constant RegisterFrontend stamped.
func TestDirectoryProtocolMismatch(t *testing.T) {
	_, srv, addr := newRunNetwork(t)
	defer srv.Close()
	ctx := context.Background()

	fe := rpc.DialFrontend(addr)
	defer fe.Close()
	dir, err := fe.Directory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dir.ProtocolVersion != rpc.ProtocolVersion {
		t.Fatalf("current frontend advertises protocol version %d, want %d", dir.ProtocolVersion, rpc.ProtocolVersion)
	}

	// Version 0 predates the field; version 2 is the JSON-only data plane.
	for _, version := range []int{0, 2} {
		version := version
		old := rpc.NewServer()
		rpc.HandleFunc(old, "frontend.directory", func(struct{}) (any, error) {
			return rpc.Directory{NumMixers: 1, ProtocolVersion: version}, nil
		})
		oldAddr, err := old.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close()
		oldFE := rpc.DialFrontend(oldAddr)
		defer oldFE.Close()
		pool := rpc.DialFrontendPool(oldAddr, addr)
		defer pool.Close()
		for name, fetch := range map[string]func(context.Context) (*rpc.Directory, error){
			"client": oldFE.Directory,
			"pool":   pool.Directory,
		} {
			dir, err := fetch(ctx)
			if !errors.Is(err, rpc.ErrProtocolMismatch) {
				t.Fatalf("%s: version-%d directory returned (%v, %v), want ErrProtocolMismatch", name, version, dir, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%s serves version %d", oldAddr, version)) {
				t.Fatalf("%s: mismatch error %q does not name the frontend and its version", name, err)
			}
		}
		if pool.Addr() != oldAddr {
			t.Fatal("pool rotated away from a frontend that answered (a version mismatch is not a transport failure)")
		}
	}
}

// TestMixerProtocolMismatch is the same check on the server plane: a mixer
// whose mix.info carries no ProtocolVersion (0, as every daemon built
// before the data plane had one generation would send) is refused by
// DialMixer with ErrProtocolMismatch, naming the daemon and its version —
// there is no older plane to degrade to — while a current daemon
// advertises the constant RegisterMixer stamped.
func TestMixerProtocolMismatch(t *testing.T) {
	f := startFleet(t, 1, noise.Laplace{}, nil)
	if got := f.clients[0].Info().ProtocolVersion; got != rpc.ProtocolVersion {
		t.Fatalf("current mixer advertises protocol version %d, want %d", got, rpc.ProtocolVersion)
	}
	old := rpc.NewServer()
	rpc.HandleFunc(old, "mix.info", func(struct{}) (any, error) {
		return struct {
			Name          string `json:"name"`
			StreamVersion int    `json:"stream_version"`
		}{"old", 4}, nil
	})
	oldAddr := listenTCP(t, old)
	mc, err := rpc.DialMixer(oldAddr)
	if !errors.Is(err, rpc.ErrProtocolMismatch) {
		t.Fatalf("version-0 mixer returned (%v, %v), want ErrProtocolMismatch", mc, err)
	}
	if !strings.Contains(err.Error(), oldAddr+" serves version 0") {
		t.Fatalf("mismatch error %q does not name the mixer and its version", err)
	}

	// A version-2 mixer speaks the JSON-only data plane.
	v2 := rpc.NewServer()
	rpc.HandleFunc(v2, "mix.info", func(struct{}) (any, error) {
		return rpc.MixerInfo{Name: "v2", ProtocolVersion: 2}, nil
	})
	v2Addr := listenTCP(t, v2)
	mc, err = rpc.DialMixer(v2Addr)
	if !errors.Is(err, rpc.ErrProtocolMismatch) || !strings.Contains(err.Error(), v2Addr+" serves version 2") {
		t.Fatalf("version-2 mixer returned (%v, %v), want ErrProtocolMismatch naming it and its version", mc, err)
	}
}

// TestPKGProtocolMismatch is the same check on the PKG surface: a PKG whose
// pkg.info carries no ProtocolVersion (0, as every daemon built before the
// one-pairing generation would send — and would then sign its round keys
// under a tag no client accepts) is refused by PKGClient.Info with
// ErrProtocolMismatch, naming the daemon and both versions, while a current
// daemon advertises the constant RegisterPKG stamped.
func TestPKGProtocolMismatch(t *testing.T) {
	pkg, err := pkgserver.New(pkgserver.Config{Name: "pkg", Provider: email.NewInMemoryProvider()})
	if err != nil {
		t.Fatal(err)
	}
	cur := rpc.NewServer()
	rpc.RegisterPKG(cur, pkg)
	info, err := rpc.DialPKG(listenTCP(t, cur)).Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.ProtocolVersion != rpc.ProtocolVersion {
		t.Fatalf("current PKG advertises protocol version %d, want %d", info.ProtocolVersion, rpc.ProtocolVersion)
	}

	old := rpc.NewServer()
	rpc.HandleFunc(old, "pkg.info", func(struct{}) (any, error) {
		return struct {
			Name       string `json:"name"`
			SigningKey []byte `json:"signing_key"`
		}{"old", pkg.SigningKey()}, nil
	})
	oldAddr := listenTCP(t, old)
	info, err = rpc.DialPKG(oldAddr).Info()
	if !errors.Is(err, rpc.ErrProtocolMismatch) {
		t.Fatalf("version-0 PKG returned (%v, %v), want ErrProtocolMismatch", info, err)
	}
	want := fmt.Sprintf("PKG %s serves version 0, this coordinator speaks %d", oldAddr, rpc.ProtocolVersion)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("mismatch error %q does not name the PKG and both versions", err)
	}

	// A version-2 PKG speaks the JSON-only data plane.
	v2 := rpc.NewServer()
	rpc.HandleFunc(v2, "pkg.info", func(struct{}) (any, error) {
		return rpc.PKGInfo{Name: "v2", SigningKey: pkg.SigningKey(), ProtocolVersion: 2}, nil
	})
	v2Addr := listenTCP(t, v2)
	info, err = rpc.DialPKG(v2Addr).Info()
	want = fmt.Sprintf("PKG %s serves version 2, this coordinator speaks %d", v2Addr, rpc.ProtocolVersion)
	if !errors.Is(err, rpc.ErrProtocolMismatch) || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-2 PKG returned (%v, %v), want ErrProtocolMismatch naming it and both versions", info, err)
	}
}
