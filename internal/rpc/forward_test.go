package rpc_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	mathrand "math/rand"
	"sync/atomic"
	"testing"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// mixerFleet is a chain of mixer daemons listening on localhost TCP, plus
// the coordinator-side clients for them.
type mixerFleet struct {
	servers []*mixnet.Server
	daemons []*rpc.MixerDaemon
	rpcSrvs []*rpc.Server
	addrs   []string
	clients []*rpc.MixerClient
}

// listenTCP serves srv on a loopback port for the test's duration.
func listenTCP(t *testing.T, srv *rpc.Server) string {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// listenMem serves srv on an in-memory address, as internal/sim does.
func listenMem(t *testing.T, srv *rpc.Server) string {
	t.Helper()
	t.Cleanup(srv.Close)
	return srv.ListenMem()
}

// startFleet launches n mixer daemons over TCP. rand may be nil
// (crypto/rand) or a per-position deterministic source factory.
func startFleet(t *testing.T, n int, nz noise.Laplace, randFor func(pos int) mathrand.Source) *mixerFleet {
	t.Helper()
	return startFleetOn(t, listenTCP, n, nz, randFor)
}

// seededMixer builds position pos of an n-long chain; a non-nil src makes
// it deterministic (one worker, so the rand read order is fixed).
func seededMixer(t *testing.T, pos, n int, nz noise.Laplace, src mathrand.Source) *mixnet.Server {
	t.Helper()
	cfg := mixnet.Config{
		Name: "m", Position: pos, ChainLength: n,
		AddFriendNoise: &nz, DialingNoise: &nz,
	}
	if src != nil {
		cfg.Rand = &seededReader{rng: mathrand.New(src)}
		cfg.Parallelism = 1
	}
	m, err := mixnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func startFleetOn(t *testing.T, listen func(*testing.T, *rpc.Server) string, n int, nz noise.Laplace, randFor func(pos int) mathrand.Source) *mixerFleet {
	t.Helper()
	f := &mixerFleet{}
	for i := 0; i < n; i++ {
		var src mathrand.Source
		if randFor != nil {
			src = randFor(i)
		}
		m := seededMixer(t, i, n, nz, src)
		srv := rpc.NewServer()
		d := rpc.RegisterMixer(srv, m)
		addr := listen(t, srv)
		mc, err := rpc.DialMixer(addr)
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, m)
		f.daemons = append(f.daemons, d)
		f.rpcSrvs = append(f.rpcSrvs, srv)
		f.addrs = append(f.addrs, addr)
		f.clients = append(f.clients, mc)
	}
	return f
}

// seededReader is a deterministic, non-thread-safe randomness source (the
// mixnet server wraps it in its serializing reader).
type seededReader struct{ rng *mathrand.Rand }

func (r *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

// startCDN serves cdn.publish + a store on localhost TCP.
func startCDN(t *testing.T) (*cdn.Store, string) {
	t.Helper()
	store, addr, _ := startCDNDaemon(t)
	return store, addr
}

// startCDNDaemon is startCDN exposing the daemon for seal/staging stats.
func startCDNDaemon(t *testing.T) (*cdn.Store, string, *rpc.CDNDaemon) {
	t.Helper()
	store := cdn.NewStore(0)
	srv := rpc.NewServer()
	d := rpc.RegisterCDN(srv, store)
	return store, listenTCP(t, srv), d
}

// forwardCoordinator assembles a coordinator over a fleet.
func forwardCoordinator(f *mixerFleet, e *entry.Server, cdnAddr string) *coordinator.Coordinator {
	coord := &coordinator.Coordinator{
		Entry:                    e,
		TargetRequestsPerMailbox: 40,
		CDNAddr:                  cdnAddr,
	}
	for _, mc := range f.clients {
		coord.Mixers = append(coord.Mixers, mc)
	}
	return coord
}

// submitTokens wraps one dial onion per token (round-robin mailboxes,
// using rnd for the onion encryption) and submits them.
func submitTokens(t *testing.T, e *entry.Server, settings *wire.RoundSettings, tokens [][]byte, rnd *mathrand.Rand) int {
	t.Helper()
	hops := make([]*onionbox.PublicKey, len(settings.Mixers))
	for i, rk := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = pk
	}
	var src = rand.Reader
	if rnd != nil {
		src = &seededReader{rng: rnd}
	}
	total := 0
	for i, tok := range tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(src, hops, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(settings.Service, settings.Round, onion); err != nil {
			t.Fatal(err)
		}
		total += len(onion)
	}
	return total
}

func makeTestTokens(n int) [][]byte {
	tokens := make([][]byte, n)
	for i := range tokens {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1], tok[2] = byte(i), byte(i>>8), 0xEF
		tokens[i] = tok
	}
	return tokens
}

func assertTokensDelivered(t *testing.T, store *cdn.Store, round uint32, settings *wire.RoundSettings, tokens [][]byte) {
	t.Helper()
	for i, tok := range tokens {
		mb := uint32(i) % settings.NumMailboxes
		box, err := store.Fetch(wire.Dialing, round, mb)
		if err != nil {
			t.Fatal(err)
		}
		f, err := bloom.Unmarshal(box)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Test(tok) {
			t.Fatalf("token %d missing from mailbox %d", i, mb)
		}
	}
}

// TestChainForwardOverTCP is the acceptance test for the control-plane /
// data-plane split: a round over real TCP daemons completes with the
// coordinator exchanging only control messages — the batch reaches the
// first mixer once, nothing is relayed downstream or pulled back, and the
// mailboxes appear in the CDN via the last daemon's cdn.publish. The
// transport byte-counters on the coordinator's connections are the proof.
func TestChainForwardOverTCP(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	f := startFleet(t, 3, nz, nil)
	store, cdnAddr := startCDN(t)
	e := entry.New()
	coord := forwardCoordinator(f, e, cdnAddr)
	coord.ChunkSize = 64
	coord.SetExpectedVolume(wire.Dialing, 300)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if settings.NumMailboxes < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", settings.NumMailboxes)
	}
	tokens := makeTestTokens(300)
	batchBytes := submitTokens(t, e, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if !store.Published(wire.Dialing, 1) {
		t.Fatal("last daemon did not publish to the CDN")
	}
	assertTokensDelivered(t, store, 1, settings, tokens)

	// The coordinator moved control messages only: no batch chunks to
	// anyone but the first mixer.
	for i, mc := range f.clients {
		if i > 0 {
			if n := mc.CallCount("mix.stream.chunk"); n != 0 {
				t.Errorf("mixer %d: coordinator pushed %d batch chunks to a non-first mixer", i, n)
			}
		}
	}
	// Byte accounting: the entry batch flows to mixer 0 once; every other
	// coordinator connection carries a few KB of keys and control calls.
	const controlBudget = 32 << 10
	st0 := f.clients[0].TransportStats()
	if st0.BytesSent < uint64(batchBytes) {
		t.Errorf("mixer 0: coordinator sent %d bytes, want >= batch (%d)", st0.BytesSent, batchBytes)
	}
	for i, mc := range f.clients {
		st := mc.TransportStats()
		if st.BytesReceived > controlBudget {
			t.Errorf("mixer %d: coordinator received %d bytes, want control-only (< %d)", i, st.BytesReceived, controlBudget)
		}
		if i > 0 && st.BytesSent > controlBudget {
			t.Errorf("mixer %d: coordinator sent %d bytes, want control-only (< %d)", i, st.BytesSent, controlBudget)
		}
	}
	// No leaked round state on the daemons.
	for i, d := range f.daemons {
		if n := d.PendingRoutes(); n != 0 {
			t.Errorf("daemon %d: %d routes leak after the round", i, n)
		}
		if f.servers[i].RoundOpen(wire.Dialing, 1) {
			t.Errorf("daemon %d: round key survives close", i)
		}
	}
}

// TestChainForwardAbortMidChain kills the middle daemon while the batch is
// streaming through it and checks the failure is clean: StreamAbort
// propagates (down the chain and back to the coordinator), the round
// fails without publishing, no round state leaks on the survivors, and —
// after the daemon comes back — the next round succeeds.
func TestChainForwardAbortMidChain(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	f := startFleet(t, 3, nz, nil)
	store, cdnAddr := startCDN(t)
	e := entry.New()
	coord := forwardCoordinator(f, e, cdnAddr)
	coord.ChunkSize = 8 // many chunks per hop, so the kill lands mid-stream
	coord.SetExpectedVolume(wire.Dialing, 120)

	// Sabotage the middle daemon: after two forwarded chunks arrive, it
	// starts failing and its server goes down — a crash mid-stream.
	var chunks atomic.Int32
	rpc.HandleFunc(f.rpcSrvs[1], "mix.stream.chunk", func(a rpc.ChunkArgs) (any, error) {
		if chunks.Add(1) > 2 {
			go f.rpcSrvs[1].Close()
			return nil, errors.New("mixer 1 crashed mid-stream")
		}
		return nil, f.servers[1].StreamChunk(a.Service, a.Round, a.Batch())
	})

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	tokens := makeTestTokens(120)
	submitTokens(t, e, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err == nil {
		t.Fatal("round with a dead mid-chain daemon succeeded")
	}
	if chunks.Load() < 3 {
		t.Fatalf("daemon died after %d chunks; the kill was not mid-stream", chunks.Load())
	}
	if store.Published(wire.Dialing, 1) {
		t.Fatal("aborted round was published")
	}
	for _, i := range []int{0, 2} {
		if f.servers[i].RoundOpen(wire.Dialing, 1) {
			t.Errorf("daemon %d: round key survives aborted round", i)
		}
		if n := f.daemons[i].PendingRoutes(); n != 0 {
			t.Errorf("daemon %d: %d routes leak after abort", i, n)
		}
	}

	// The daemon comes back on the same address (fresh RPC server, same
	// mixer); every cached connection redials lazily.
	restarted := rpc.NewServer()
	f.daemons[1] = rpc.RegisterMixer(restarted, f.servers[1])
	if _, err := restarted.Listen(f.addrs[1]); err != nil {
		t.Fatalf("restarting daemon 1 on %s: %v", f.addrs[1], err)
	}
	t.Cleanup(restarted.Close)

	settings2, err := coord.OpenDialingRound(2)
	if err != nil {
		t.Fatal(err)
	}
	tokens2 := makeTestTokens(90)
	submitTokens(t, e, settings2, tokens2, nil)
	if _, err := coord.CloseRound(wire.Dialing, 2); err != nil {
		t.Fatalf("round after daemon restart failed: %v", err)
	}
	if !store.Published(wire.Dialing, 2) {
		t.Fatal("recovered round not published")
	}
	assertTokensDelivered(t, store, 2, settings2, tokens2)
}

// TestDataPlaneMatchesReference pins the one data plane to the in-process
// reference: mixnet.Chain — full-batch Mix on seeded one-worker servers,
// then BuildMailboxes — against the routed plane at one shard per position
// under the same seeds, with noise on. The plane runs twice, over loopback
// TCP and over the in-memory listener internal/sim serves its daemons on
// (sim itself takes no seeds), and both must publish mailboxes
// byte-identical to the reference: a group of one that deposits with
// itself, merges one part and publishes one slice changes WHERE bytes
// travel, never what comes out.
func TestDataPlaneMatchesReference(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	const numTokens = 90
	tokens := makeTestTokens(numTokens)
	seed := func(pos int) mathrand.Source { return mathrand.NewSource(int64(1000 + pos)) }
	onionRand := func() *mathrand.Rand { return mathrand.New(mathrand.NewSource(4242)) }

	runPlane := func(name string, listen func(*testing.T, *rpc.Server) string) (uint32, map[uint32][]byte) {
		f := startFleetOn(t, listen, 3, nz, seed)
		store := cdn.NewStore(0)
		cdnSrv := rpc.NewServer()
		daemon := rpc.RegisterCDN(cdnSrv, store)
		e := entry.New()
		coord := forwardCoordinator(f, e, listen(t, cdnSrv))
		coord.ChunkSize = 16
		coord.SetExpectedVolume(wire.Dialing, numTokens)
		settings, err := coord.OpenDialingRound(1)
		if err != nil {
			t.Fatal(err)
		}
		submitTokens(t, e, settings, tokens, onionRand())
		if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := daemon.LastSealStreams(); got != 1 {
			t.Fatalf("%s: round sealed from %d publish streams, want 1", name, got)
		}
		boxes := make(map[uint32][]byte)
		for mb := uint32(0); mb < settings.NumMailboxes; mb++ {
			data, err := store.Fetch(wire.Dialing, 1, mb)
			if err != nil {
				t.Fatalf("%s: mailbox %d: %v", name, mb, err)
			}
			boxes[mb] = data
		}
		return settings.NumMailboxes, boxes
	}

	k, overTCP := runPlane("tcp", listenTCP)
	if k < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", k)
	}

	// The reference: the same seeded servers, driven in process.
	servers := make([]*mixnet.Server, 3)
	settings := &wire.RoundSettings{Service: wire.Dialing, Round: 1, NumMailboxes: k}
	for i := range servers {
		servers[i] = seededMixer(t, i, 3, nz, seed(i))
		rk, err := servers[i].NewRound(wire.Dialing, 1)
		if err != nil {
			t.Fatal(err)
		}
		settings.Mixers = append(settings.Mixers, rk)
	}
	for i, m := range servers {
		var keys [][]byte
		for _, rk := range settings.Mixers[i+1:] {
			keys = append(keys, rk.OnionKey)
		}
		if err := m.SetDownstreamKeys(wire.Dialing, 1, keys); err != nil {
			t.Fatal(err)
		}
	}
	e := entry.New()
	if err := e.OpenRound(settings); err != nil {
		t.Fatal(err)
	}
	submitTokens(t, e, settings, tokens, onionRand())
	batch, err := e.CloseRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mixnet.Chain(servers, wire.Dialing, 1, k, batch)
	if err != nil {
		t.Fatal(err)
	}

	kMem, overMem := runPlane("mem", listenMem)
	if kMem != k {
		t.Fatalf("mem: K=%d, tcp K=%d", kMem, k)
	}
	for name, got := range map[string]map[uint32][]byte{"tcp": overTCP, "mem": overMem} {
		for mb := uint32(0); mb < k; mb++ {
			if !bytes.Equal(want[mb], got[mb]) {
				t.Errorf("%s: mailbox %d differs from mixnet.Chain", name, mb)
			}
		}
	}
}

// TestFrontendSubmitMapsRoundFull: the entry server's admission signal
// survives the RPC hop as a typed error clients can errors.Is on.
func TestFrontendSubmitMapsRoundFull(t *testing.T) {
	e := entry.New()
	e.MaxBatch = 1
	f := startFleet(t, 1, noise.Laplace{}, nil)
	store, cdnAddr := startCDN(t)
	coord := forwardCoordinator(f, e, cdnAddr)

	srv := rpc.NewServer()
	rpc.RegisterFrontend(srv, e, store, rpc.Directory{NumMixers: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	frontend := rpc.DialFrontend(addr)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := onionbox.UnmarshalPublicKey(settings.Mixers[0].OnionKey)
	if err != nil {
		t.Fatal(err)
	}
	makeOnion := func(b byte) []byte {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = b
		payload := (&wire.MixPayload{Mailbox: 0, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(rand.Reader, []*onionbox.PublicKey{pk}, payload)
		if err != nil {
			t.Fatal(err)
		}
		return onion
	}
	if err := frontend.Submit(context.Background(), wire.Dialing, 1, makeOnion(1)); err != nil {
		t.Fatal(err)
	}
	err = frontend.Submit(context.Background(), wire.Dialing, 1, makeOnion(2))
	if !errors.Is(err, entry.ErrRoundFull) {
		t.Fatalf("full round over RPC: got %v, want entry.ErrRoundFull", err)
	}
}
