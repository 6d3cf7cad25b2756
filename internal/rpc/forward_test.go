package rpc_test

import (
	"context"
	"crypto/rand"
	"errors"
	mathrand "math/rand"
	"sync/atomic"
	"testing"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// loopback is the listen address of a sim network over TCP; "mem:" is
// the in-memory one.
const loopback = "127.0.0.1:0"

// onTransports runs test once per transport sim serves a network on, as
// the subtests mem and tcp.
func onTransports(t *testing.T, test func(t *testing.T, listen string)) {
	for _, tr := range []struct{ name, listen string }{{"mem", "mem:"}, {"tcp", loopback}} {
		listen := tr.listen
		t.Run(tr.name, func(t *testing.T) { test(t, listen) })
	}
}

// newNetwork builds a sim network for the test's duration.
func newNetwork(t *testing.T, cfg sim.Config) *sim.Network {
	t.Helper()
	n, err := sim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// listenTCP serves srv on a loopback port for the test's duration.
func listenTCP(t *testing.T, srv *rpc.Server) string {
	t.Helper()
	addr, err := srv.Listen(loopback)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// seededReader is a deterministic, non-thread-safe randomness source for
// wrapping onions.
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
	store := cdn.NewStore(0)
	srv := rpc.NewServer()
	rpc.RegisterCDN(srv, store)
	return store, listenTCP(t, srv)
}

// assertFleetClean checks that no mixer daemon of the network holds round
// state after the round resolved: no route, no round key. A daemon's one
// map of rounds holds every key it has, and closing a round erases them.
func assertFleetClean(t *testing.T, n *sim.Network, round uint32, skip func(pos, shard int) bool) {
	t.Helper()
	for i, group := range n.Mixers {
		for s, m := range group {
			if skip != nil && skip(i, s) {
				continue
			}
			if k := m.Daemon.PendingRounds(); k != 0 {
				t.Errorf("daemon %d/%d: %d rounds leak after round %d", i, s, k, round)
			}
		}
	}
}

// fetchAll pulls every mailbox of a round of service.
func fetchAll(t *testing.T, store *cdn.Store, service wire.Service, round uint32, k uint32) map[uint32][]byte {
	t.Helper()
	out := make(map[uint32][]byte, k)
	for mb := uint32(0); mb < k; mb++ {
		data, err := store.Fetch(service, round, mb)
		if err != nil {
			t.Fatalf("round %d mailbox %d: %v", round, mb, err)
		}
		out[mb] = data
	}
	return out
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
// first mixer once, from the entry's intake and not from the coordinator,
// nothing is relayed downstream or pulled back, and the
// mailboxes appear in the CDN via the last daemon's cdn.publish. The
// transport byte-counters on the coordinator's connections are the proof.
func TestChainForwardOverTCP(t *testing.T) {
	rpc.SetStreamChunk(t, 64)
	n := newNetwork(t, sim.Config{NumPKGs: 1, TargetRequestsPerMailbox: 40, Listen: loopback})
	coord := n.Coord
	coord.SetExpectedVolume(wire.Dialing, 300)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if settings.NumMailboxes < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", settings.NumMailboxes)
	}
	tokens := makeTestTokens(300)
	batchBytes := submitTokens(t, n.Entry, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if !n.CDN.Published(wire.Dialing, 1) {
		t.Fatal("last daemon did not publish to the CDN")
	}
	assertTokensDelivered(t, n.CDN, 1, settings, tokens)

	// The coordinator moved control messages only: no batch chunk to any
	// mixer, the first included — the entry server's batch (batchBytes)
	// goes to mixer 0 from its own intake. Every coordinator connection
	// carries a few KB of keys and control calls.
	const controlBudget = 32 << 10
	if batchBytes <= controlBudget {
		t.Fatalf("batch of %d bytes fits the control budget; the check below would prove nothing", batchBytes)
	}
	for i, group := range n.Mixers {
		mc := group[0].Client
		if c := mc.CallCount("mix.stream.chunk"); c != 0 {
			t.Errorf("mixer %d: coordinator pushed %d batch chunks", i, c)
		}
		st := mc.TransportStats()
		if st.BytesReceived > controlBudget {
			t.Errorf("mixer %d: coordinator received %d bytes, want control-only (< %d)", i, st.BytesReceived, controlBudget)
		}
		if st.BytesSent > controlBudget {
			t.Errorf("mixer %d: coordinator sent %d bytes, want control-only (< %d)", i, st.BytesSent, controlBudget)
		}
	}
	assertFleetClean(t, n, 1, nil)
}

// TestChainForwardAbortMidChain kills the middle daemon while the batch is
// streaming through it and checks the failure is clean: the abort
// propagates (down the chain and back to the coordinator), the round
// fails without publishing, no round state leaks on the survivors, and —
// after the daemon comes back — the next round succeeds.
func TestChainForwardAbortMidChain(t *testing.T) {
	rpc.SetStreamChunk(t, 8) // many chunks per hop, so the kill lands mid-stream
	n := newNetwork(t, sim.Config{NumPKGs: 1, TargetRequestsPerMailbox: 40, Listen: loopback})
	coord := n.Coord
	coord.SetExpectedVolume(wire.Dialing, 120)
	mid := n.Mixers[1][0]
	chunks := crashMidStream(n, mid)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	tokens := makeTestTokens(120)
	submitTokens(t, n.Entry, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err == nil {
		t.Fatal("round with a dead mid-chain daemon succeeded")
	}
	if chunks.Load() < 3 {
		t.Fatalf("daemon died after %d chunks; the kill was not mid-stream", chunks.Load())
	}
	if n.CDN.Published(wire.Dialing, 1) {
		t.Fatal("aborted round was published")
	}
	assertFleetClean(t, n, 1, func(pos, _ int) bool { return pos == 1 })

	// The daemon comes back on the same address (fresh RPC server, same
	// mixer); every cached connection redials lazily.
	if err := n.Restart(mid.Addr); err != nil {
		t.Fatal(err)
	}
	assertRoundRecovers(t, n, 2)
}

// crashMidStream sabotages daemon m: after two forwarded chunks arrive it
// starts failing and its server goes down — a crash mid-stream. It returns
// the count of chunks that reached the daemon.
func crashMidStream(n *sim.Network, m *sim.Mixer) *atomic.Int32 {
	var chunks atomic.Int32
	srv := n.Server(m.Addr)
	rpc.HandleFunc(srv, "mix.stream.chunk", func(a rpc.StreamArgs) (any, error) {
		if chunks.Add(1) > 2 {
			go srv.Close()
			return nil, errors.New("daemon crashed mid-stream")
		}
		return nil, m.Daemon.Stream("mix.stream.chunk", a)
	})
	return &chunks
}

// assertRoundRecovers runs dialing round r on the network and checks it
// publishes every token.
func assertRoundRecovers(t *testing.T, n *sim.Network, r uint32) {
	t.Helper()
	settings, err := n.Coord.OpenDialingRound(r)
	if err != nil {
		t.Fatal(err)
	}
	tokens := makeTestTokens(90)
	submitTokens(t, n.Entry, settings, tokens, nil)
	if _, err := n.Coord.CloseRound(wire.Dialing, r); err != nil {
		t.Fatalf("round after restart failed: %v", err)
	}
	if !n.CDN.Published(wire.Dialing, r) {
		t.Fatal("recovered round not published")
	}
	assertTokensDelivered(t, n.CDN, r, settings, tokens)
}

// TestFrontendSubmitMapsRoundFull: the entry server's admission signal
// survives the RPC hop as a typed error clients can errors.Is on.
func TestFrontendSubmitMapsRoundFull(t *testing.T) {
	n := newNetwork(t, sim.Config{NumPKGs: 1, Shards: []int{1}})
	n.Entry.MaxBatch = 1
	frontend := rpc.DialFrontend(n.FrontendAddrs[0])
	defer frontend.Close()

	settings, err := n.Coord.OpenDialingRound(1)
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
