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
// frontends in contiguous runs, the first share to the first, the next to
// the second, and so on. The concatenation of the frontends' sub-batches
// is therefore byte-for-byte the single-frontend batch.
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
	share := (len(tokens) + len(frontends) - 1) / len(frontends)
	for i, tok := range tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(src, hops, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := frontends[i/share].Submit(settings.Service, settings.Round, onion); err != nil {
			t.Fatal(err)
		}
	}
}

// runSeededForwardRound runs one fully seeded round of service on the
// network cfg describes — its transport, entry frontends (every one after
// the first joins over the entry.replicate surface), shards and noise —
// and returns the published mailboxes. An add-friend round's requests are
// dial tokens padded to a sealed request's size.
func runSeededForwardRound(t *testing.T, cfg sim.Config, service wire.Service) (*wire.RoundSettings, map[uint32][]byte) {
	t.Helper()
	const numTokens = 90
	tokens := makeTestTokens(numTokens)
	numFrontends := max(cfg.NumFrontends, 1)
	cfg.NumPKGs, cfg.TargetRequestsPerMailbox, cfg.Seed = 1, 40, 1000
	rpc.SetStreamChunk(t, 16)
	n := newNetwork(t, cfg)
	n.Coord.SetExpectedVolume(service, numTokens)
	openRound := n.Coord.OpenDialingRound
	if service == wire.AddFriend {
		openRound = n.Coord.OpenAddFriendRound
		for i, tok := range tokens {
			tokens[i] = append(tok, make([]byte, wire.EncryptedFriendRequestSize-len(tok))...)
		}
	}

	settings, err := openRound(1)
	if err != nil {
		t.Fatal(err)
	}
	rnd := mathrand.New(mathrand.NewSource(4242))
	if numFrontends == 1 {
		submitTokens(t, n.Entry, settings, tokens, rnd)
	} else {
		// The replicated announcement log opened the round on the extra
		// frontends too (same settings, same cursor namespace).
		for i, extra := range n.Frontends {
			repSettings, err := extra.Settings(service, 1)
			if err != nil {
				t.Fatalf("extra frontend %d missed the open announcement: %v", i+1, err)
			}
			if !bytes.Equal(repSettings.Marshal(), settings.Marshal()) {
				t.Fatalf("extra frontend %d holds different settings than the coordinator announced", i+1)
			}
		}
		submitSplitTokens(t, append([]*entry.Server{n.Entry}, n.Frontends...), settings, tokens, rnd)
		for i, extra := range n.Frontends {
			if got := extra.BatchSize(service, 1); got != numTokens/numFrontends {
				t.Fatalf("extra frontend %d admitted %d onions, want %d", i+1, got, numTokens/numFrontends)
			}
		}
	}

	if _, err := n.Coord.CloseRound(service, 1); err != nil {
		t.Fatal(err)
	}
	if !n.CDN.Published(service, 1) {
		t.Fatal("round not published")
	}
	for _, extra := range n.Frontends {
		if events, _, _ := extra.EventsSince(0, 0); !loggedPublished(events, service, 1) {
			t.Fatalf("extra frontend's log missed the published announcement: %+v", events)
		}
	}
	return settings, fetchAll(t, n.CDN, service, 1, settings.NumMailboxes)
}

// loggedPublished reports whether events hold service's round-published
// announcement for round.
func loggedPublished(events []entry.Announcement, service wire.Service, round uint32) bool {
	for _, ann := range events {
		if ann.Service == service && ann.Round == round && ann.Kind == entry.RoundPublished {
			return true
		}
	}
	return false
}

// TestTwoFrontendIntakeByteIdentical is the N-way-intake acceptance pin: a
// round whose batch is admitted by several frontends — each feeding its
// sub-batch into position 0's counted NumUpstream fan-in, the
// coordinator's own through the same intake as the others — publishes
// mailboxes byte-identical to the single-frontend round under the same
// seed, with two frontends, three, and two feeding a sharded position 0.
// Scaling the entry tier out changes WHO admits an onion, never what the
// mixnet outputs.
//
// The sharded case runs without noise, and so does the single-frontend
// round it is held to: a shard draws its share of the position's noise
// from its own seed (TestShardDeterminismAcrossShardCounts).
func TestTwoFrontendIntakeByteIdentical(t *testing.T) {
	quiet := &noise.Laplace{}
	onTransports(t, func(t *testing.T, listen string) {
		for _, tc := range []sim.Config{
			{NumFrontends: 2},
			{NumFrontends: 3},
			{NumFrontends: 2, Shards: []int{2, 1, 1}, AddFriendNoise: quiet, DialingNoise: quiet},
		} {
			tc.Listen = listen
			base, baseBoxes := runSeededForwardRound(t, sim.Config{Listen: listen, AddFriendNoise: tc.AddFriendNoise, DialingNoise: tc.DialingNoise}, wire.Dialing)
			if base.NumMailboxes < 2 {
				t.Fatalf("want a multi-mailbox round, got K=%d", base.NumMailboxes)
			}
			got, gotBoxes := runSeededForwardRound(t, tc, wire.Dialing)
			if got.NumMailboxes != base.NumMailboxes {
				t.Fatalf("%d frontends, shards %v: K=%d, single-frontend K=%d", tc.NumFrontends, tc.Shards, got.NumMailboxes, base.NumMailboxes)
			}
			for mb := uint32(0); mb < base.NumMailboxes; mb++ {
				if !bytes.Equal(baseBoxes[mb], gotBoxes[mb]) {
					t.Errorf("%d frontends, shards %v: mailbox %d differs from single-frontend intake", tc.NumFrontends, tc.Shards, mb)
				}
			}
		}
	})
}

// TestTwoFrontendIntakeAddFriendByteIdentical is the same pin for an
// add-friend round, whose mailboxes concatenate their requests in the
// order the last position's shuffle leaves them, so a frontend's onions
// mixed in another place than the single-frontend round puts them would
// change the bytes; a dialing round's Bloom filters would not show it. Two
// frontends feed position 0 at once, unsharded.
func TestTwoFrontendIntakeAddFriendByteIdentical(t *testing.T) {
	onTransports(t, func(t *testing.T, listen string) {
		base, baseBoxes := runSeededForwardRound(t, sim.Config{Listen: listen}, wire.AddFriend)
		if base.NumMailboxes < 2 {
			t.Fatalf("want a multi-mailbox round, got K=%d", base.NumMailboxes)
		}
		got, gotBoxes := runSeededForwardRound(t, sim.Config{Listen: listen, NumFrontends: 2}, wire.AddFriend)
		if got.NumMailboxes != base.NumMailboxes {
			t.Fatalf("two frontends: K=%d, single-frontend K=%d", got.NumMailboxes, base.NumMailboxes)
		}
		for mb := uint32(0); mb < base.NumMailboxes; mb++ {
			if len(baseBoxes[mb]) == 0 || !bytes.Equal(baseBoxes[mb], gotBoxes[mb]) {
				t.Errorf("mailbox %d (%d B) differs from single-frontend intake (%d B)", mb, len(gotBoxes[mb]), len(baseBoxes[mb]))
			}
		}
	})
}

// TestFeedSurvivesPositionZeroRestart: a position-0 daemon that restarts
// between rounds leaves every frontend's cached connection to it stale.
// Each frontend's feed opens its stream with the retrying begin every
// shard-set push uses, so the next round still publishes, on either
// transport.
func TestFeedSurvivesPositionZeroRestart(t *testing.T) {
	onTransports(t, func(t *testing.T, listen string) {
		n := newNetwork(t, sim.Config{NumPKGs: 1, NumFrontends: 2, TargetRequestsPerMailbox: 40, Listen: listen})
		for r := uint32(1); r <= 2; r++ {
			if r == 2 {
				addr := n.Mixers[0][0].Addr
				n.Kill(addr)
				if err := n.Restart(addr); err != nil {
					t.Fatal(err)
				}
			}
			settings, err := n.Coord.OpenDialingRound(r)
			if err != nil {
				t.Fatal(err)
			}
			tokens := makeTestTokens(40)
			submitSplitTokens(t, []*entry.Server{n.Entry, n.Frontends[0]}, settings, tokens, mathrand.New(mathrand.NewSource(int64(r))))
			if _, err := n.Coord.CloseRound(wire.Dialing, r); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			assertTokensDelivered(t, n.CDN, r, settings, tokens)
		}
	})
}

// TestCloseAfterFrontendRestart: a frontend restarted between a round's
// open and its close (keeping its entry state) leaves the coordinator's
// cached connection to it stale. The close goes out with the one re-send
// Call makes after a transport failure, so the round still closes at both
// frontends, deals both sub-batches and publishes, on either transport.
func TestCloseAfterFrontendRestart(t *testing.T) {
	onTransports(t, func(t *testing.T, listen string) {
		n := newNetwork(t, sim.Config{NumPKGs: 1, NumFrontends: 2, TargetRequestsPerMailbox: 40, Listen: listen})
		addr := n.Coord.Frontends[0].(*rpc.EntryReplicaClient).Addr()
		for r := uint32(1); r <= 2; r++ {
			settings, err := n.Coord.OpenDialingRound(r)
			if err != nil {
				t.Fatal(err)
			}
			tokens := makeTestTokens(2)
			submitSplitTokens(t, []*entry.Server{n.Entry, n.Frontends[0]}, settings, tokens, mathrand.New(mathrand.NewSource(int64(r))))
			if r == 2 {
				n.Kill(addr)
				if err := n.Restart(addr); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := n.Coord.CloseRound(wire.Dialing, r); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			assertTokensDelivered(t, n.CDN, r, settings, tokens)
		}
	})
}

// TestRunFailsOverToSurvivingFrontend kills one of two frontends mid-round
// under Client.Run: the client resumes on the survivor FROM ITS CURSOR
// (the frontends share one announcement log, so no snapshot rebuild),
// never double-submits a round, never falls back to per-round settings
// fetches, and drains its goroutines on shutdown.
func TestRunFailsOverToSurvivingFrontend(t *testing.T) {
	onTransports(t, func(t *testing.T, listen string) {
		network := newNetwork(t, sim.Config{NumPKGs: 1, Shards: []int{1}, NumFrontends: 2, Listen: listen})
		baseline := runtime.NumGoroutine()

		client, pool := newRunClient(t, network, "failover@tcp.example")

		stop := startRun(t, client)

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
		network.Kill(network.FrontendAddrs[0])
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
		err := stop()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("shutdown took %v, want well under one network timeout", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		network.Close() // the client's transport, then the daemons
		waitUntil(t, 5*time.Second, "goroutines to drain", func() bool {
			return runtime.NumGoroutine() <= baseline
		})
	})
}

// TestEventSettingsEliminateFetch pins the request the open events save: a
// client following the stream completes rounds with ZERO entry.settings
// fetches, because every round-open event carries the round's settings.
func TestEventSettingsEliminateFetch(t *testing.T) {
	network := newNetwork(t, oneMixerOverTCP)
	client, fe := newRunClient(t, network, "settings@tcp.example")

	startRun(t, client)

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
	network := newNetwork(t, oneMixerOverTCP)
	addr := network.FrontendAddrs[0]
	type event struct {
		Cursor   uint64       `json:"cursor"`
		Service  wire.Service `json:"service"`
		Round    uint32       `json:"round"`
		Kind     int          `json:"kind"`
		Settings []byte       `json:"settings,omitempty"`
	}
	rpc.HandleFunc(network.Server(addr), "entry.events", func(a struct {
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

	client, fe := newRunClient(t, network, "fallback@tcp.example")
	startRun(t, client)

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
	addr := newNetwork(t, oneMixerOverTCP).FrontendAddrs[0]
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

	// Version 0 predates the field; version 2 is the JSON-only data plane;
	// version 3 seals add-friend requests with U in G2; version 5 sends G1
	// points uncompressed.
	for _, version := range []int{0, 2, 3, 5} {
		version := version
		old := rpc.NewServer()
		rpc.HandleFunc(old, "frontend.directory", func(struct{}) (any, error) {
			return rpc.Directory{ProtocolVersion: version}, nil
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
	n := newNetwork(t, sim.Config{NumPKGs: 1, Shards: []int{1}})
	if got := n.Mixers[0][0].Client.Info().ProtocolVersion; got != rpc.ProtocolVersion {
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

	// A version-2 mixer speaks the JSON-only data plane; a version-3 mixer
	// carries add-friend onions sized for U in G2; a version-4 mixer opens
	// its rounds over five calls, not mix.round.open; a version-5 mixer
	// carries add-friend onions sized for uncompressed G1 points.
	for _, version := range []int{2, 3, 4, 5} {
		version := version
		prev := rpc.NewServer()
		rpc.HandleFunc(prev, "mix.info", func(struct{}) (any, error) {
			return rpc.MixerInfo{Name: fmt.Sprintf("v%d", version), ProtocolVersion: version}, nil
		})
		prevAddr := listenTCP(t, prev)
		mc, err = rpc.DialMixer(prevAddr)
		if !errors.Is(err, rpc.ErrProtocolMismatch) || !strings.Contains(err.Error(), fmt.Sprintf("%s serves version %d", prevAddr, version)) {
			t.Fatalf("version-%d mixer returned (%v, %v), want ErrProtocolMismatch naming it and its version", version, mc, err)
		}
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

	// A version-2 PKG speaks the JSON-only data plane; a version-3 PKG
	// issues G1 identity keys against G2 master keys; a version-5 PKG
	// signs and attests with uncompressed G1 points.
	for _, version := range []int{2, 3, 5} {
		version := version
		prev := rpc.NewServer()
		rpc.HandleFunc(prev, "pkg.info", func(struct{}) (any, error) {
			return rpc.PKGInfo{Name: fmt.Sprintf("v%d", version), SigningKey: pkg.SigningKey(), ProtocolVersion: version}, nil
		})
		prevAddr := listenTCP(t, prev)
		info, err = rpc.DialPKG(prevAddr).Info()
		want = fmt.Sprintf("PKG %s serves version %d, this coordinator speaks %d", prevAddr, version, rpc.ProtocolVersion)
		if !errors.Is(err, rpc.ErrProtocolMismatch) || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d PKG returned (%v, %v), want ErrProtocolMismatch naming it and both versions", version, info, err)
		}
	}
}
