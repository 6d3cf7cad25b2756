package rpc_test

import (
	"bytes"
	"crypto/rand"
	mathrand "math/rand"
	"testing"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// TestShardedRoundOverTCP is the shard-group acceptance test: a round
// over real TCP daemons with the middle position sharded across two
// processes completes end to end — both shards peel with the position's
// one announced key, the merge shard performs the position's shuffle, the
// mailboxes land in the CDN, the coordinator still only moves control
// bytes plus the entry batch, and per-daemon health comes back through
// mix.round.wait.
func TestShardedRoundOverTCP(t *testing.T) {
	n := newNetwork(t, sim.Config{NumPKGs: 1, Shards: []int{1, 2, 1}, TargetRequestsPerMailbox: 40, Listen: loopback})
	coord := n.Coord
	coord.ChunkSize = 32
	coord.SetExpectedVolume(wire.Dialing, 300)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if settings.NumMailboxes < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", settings.NumMailboxes)
	}
	if len(settings.Mixers) != 3 {
		t.Fatalf("clients must see one key per POSITION, got %d", len(settings.Mixers))
	}
	tokens := makeTestTokens(300)
	batchBytes := submitTokens(t, n.Entry, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if !n.CDN.Published(wire.Dialing, 1) {
		t.Fatal("round not published")
	}
	assertTokensDelivered(t, n.CDN, 1, settings, tokens)

	// Control-plane discipline holds with shards: the coordinator ships
	// batch data only to position 0.
	const controlBudget = 32 << 10
	for i, group := range n.Mixers {
		for s, m := range group {
			st := m.Client.TransportStats()
			if i > 0 && st.BytesSent > controlBudget {
				t.Errorf("mixer %d/%d: coordinator sent %d bytes, want control-only", i, s, st.BytesSent)
			}
		}
	}
	if st := n.Mixers[0][0].Client.TransportStats(); st.BytesSent < uint64(batchBytes) {
		t.Errorf("mixer 0/0: coordinator sent %d bytes, want >= batch (%d)", st.BytesSent, batchBytes)
	}
	assertFleetClean(t, n, 1, nil)

	// Round health: one record, with per-daemon stats for all four
	// daemons; every daemon moved batch bytes in AND out.
	health := coord.Status()
	if len(health) != 1 {
		t.Fatalf("Status(): %d records, want 1", len(health))
	}
	h := health[0]
	if h.Service != wire.Dialing || h.Round != 1 || h.Err != "" {
		t.Fatalf("health record: %+v", h)
	}
	if h.Batch != 300 || h.Duration <= 0 {
		t.Fatalf("health batch/duration: %+v", h)
	}
	if len(h.Daemons) != 4 {
		t.Fatalf("health daemons: %d, want 4", len(h.Daemons))
	}
	for _, d := range h.Daemons {
		if d.Err != "" {
			t.Errorf("daemon %d/%d health error: %s", d.Position, d.Shard, d.Err)
		}
		if d.Stats.BytesIn == 0 || d.Stats.BytesOut == 0 {
			t.Errorf("daemon %d/%d reported no batch traffic: %+v", d.Position, d.Shard, d.Stats)
		}
		if d.Addr == "" {
			t.Errorf("daemon %d/%d health has no address", d.Position, d.Shard)
		}
	}
}

// TestShardDeterminismAcrossShardCounts pins the core sharding
// guarantee: under a fixed seed, an unsharded (group-of-one) round, a
// 2-shard-per-position round, and a 3-shard-per-position round
// publish byte-identical mailboxes. Splitting a position across machines
// changes WHERE work happens — the deal, the peel, the merge — but never
// what comes out.
//
// Noise is zero here on purpose: noise BODIES are fresh randomness per
// server, so distributing their generation across different machines
// necessarily draws different fake tokens (the distribution, not the
// bytes, is the invariant — TestShardNoiseDivision pins that). With
// noise silenced, every remaining byte must match exactly.
func TestShardDeterminismAcrossShardCounts(t *testing.T) {
	nz := noise.Laplace{Mu: 0, B: 0}
	const numTokens = 120
	tokens := makeTestTokens(numTokens)

	onTransports(t, func(t *testing.T, listen string) {
		runMode := func(shardsPerPos int) (*wire.RoundSettings, map[uint32][]byte) {
			n := newNetwork(t, sim.Config{
				NumPKGs: 1, Shards: []int{shardsPerPos, shardsPerPos, shardsPerPos},
				AddFriendNoise: &nz, DialingNoise: &nz, TargetRequestsPerMailbox: 40,
				Seed: 1000, Listen: listen,
			})
			n.Coord.ChunkSize = 16
			n.Coord.SetExpectedVolume(wire.Dialing, numTokens)

			settings, err := n.Coord.OpenDialingRound(1)
			if err != nil {
				t.Fatal(err)
			}
			submitTokens(t, n.Entry, settings, tokens, mathrand.New(mathrand.NewSource(4242)))
			if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
				t.Fatalf("%d shards/position: %v", shardsPerPos, err)
			}
			// The seal's stream count pins that the sharded build really ran:
			// N shards mean N publish streams — one for a group of one — and
			// the merge server never funnels the round's final mailbox bytes.
			if got := n.CDNDaemon.LastSealStreams(); got != shardsPerPos {
				t.Fatalf("%d shards/position: round sealed from %d publish streams", shardsPerPos, got)
			}
			return settings, fetchAll(t, n.CDN, 1, settings.NumMailboxes)
		}

		baseSettings, base := runMode(1)
		if baseSettings.NumMailboxes < 2 {
			t.Fatalf("want a multi-mailbox round, got K=%d", baseSettings.NumMailboxes)
		}
		for _, shardsPerPos := range []int{2, 3} {
			settings, got := runMode(shardsPerPos)
			if settings.NumMailboxes != baseSettings.NumMailboxes {
				t.Fatalf("%d shards: K=%d, unsharded K=%d", shardsPerPos, settings.NumMailboxes, baseSettings.NumMailboxes)
			}
			for mb := uint32(0); mb < baseSettings.NumMailboxes; mb++ {
				if !bytes.Equal(base[mb], got[mb]) {
					t.Errorf("%d shards/position: mailbox %d differs from unsharded", shardsPerPos, mb)
				}
			}
		}
	})
}

// TestShardAbortMidRound kills one shard of the middle position while the
// batch is streaming through it: the abort must reach every shard of
// every position and the coordinator, nothing may leak (routes, round
// keys, staged merges), and the round after the shard restarts must
// succeed.
func TestShardAbortMidRound(t *testing.T) {
	n := newNetwork(t, sim.Config{NumPKGs: 1, Shards: []int{1, 2, 1}, TargetRequestsPerMailbox: 40})
	coord := n.Coord
	coord.ChunkSize = 8 // many chunks per hop, so the kill lands mid-stream
	coord.SetExpectedVolume(wire.Dialing, 120)

	// Sabotage the middle position's NON-merge shard.
	victim := n.Mixers[1][1]
	chunks := crashMidStream(n, victim)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	tokens := makeTestTokens(120)
	submitTokens(t, n.Entry, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err == nil {
		t.Fatal("round with a dead mid-chain shard succeeded")
	}
	if chunks.Load() < 3 {
		t.Fatalf("shard died after %d chunks; the kill was not mid-stream", chunks.Load())
	}
	if n.CDN.Published(wire.Dialing, 1) {
		t.Fatal("aborted round was published")
	}
	// Every SURVIVING daemon is clean (the dead daemon's RPC server is
	// down; its in-memory state dies with the process in a real
	// deployment).
	assertFleetClean(t, n, 1, func(pos, shard int) bool { return pos == 1 && shard == 1 })
	// The abort was recorded in the round's health.
	health := coord.Status()
	if len(health) != 1 || health[0].Err == "" {
		t.Fatalf("aborted round missing from health: %+v", health)
	}

	// The shard comes back on the same address (fresh RPC server, same
	// mixer); every cached connection redials lazily.
	if err := n.Restart(victim.Addr); err != nil {
		t.Fatal(err)
	}
	assertRoundRecovers(t, n, 2)
}

// routedDaemon is one mixer daemon serving a whole one-position chain,
// with round 1 open and — when numUpstream > 0 — routed to publish to its
// own CDN as a group of one fed by numUpstream writers.
type routedDaemon struct {
	m      *mixnet.Server
	daemon *rpc.MixerDaemon
	mc     *rpc.MixerClient
	addr   string
	store  *cdn.Store
	tokens [][]byte
	onions [][]byte // tokens[i] wrapped for mailbox i % routedMailboxes
}

const routedMailboxes = 2

func startRoutedDaemon(t *testing.T, numUpstream int) *routedDaemon {
	t.Helper()
	nz := noise.Laplace{Mu: 0, B: 0}
	m, err := mixnet.New(mixnet.Config{
		Name: "m", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	rd := &routedDaemon{m: m, daemon: rpc.RegisterMixer(srv, m), tokens: makeTestTokens(10)}
	rd.addr = listenTCP(t, srv)
	var cdnAddr string
	rd.store, cdnAddr = startCDN(t)

	if rd.mc, err = rpc.DialMixer(rd.addr); err != nil {
		t.Fatal(err)
	}
	rk, err := rd.mc.NewRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.mc.SetDownstreamKeys(wire.Dialing, 1, nil); err != nil {
		t.Fatal(err)
	}
	if numUpstream > 0 {
		if err := rd.mc.OpenRoute(wire.Dialing, 1, wire.RouteSpec{
			NumMailboxes: routedMailboxes, CDNAddr: cdnAddr, NumUpstream: numUpstream,
			ShardCount: 1, BuildShards: []string{rd.addr},
		}); err != nil {
			t.Fatal(err)
		}
	}
	pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
	if err != nil {
		t.Fatal(err)
	}
	for i, tok := range rd.tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % routedMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(rand.Reader, []*onionbox.PublicKey{pk}, payload)
		if err != nil {
			t.Fatal(err)
		}
		rd.onions = append(rd.onions, onion)
	}
	return rd
}

// assertPublished waits out the daemon's role and checks every token
// landed in its mailbox.
func (rd *routedDaemon) assertPublished(t *testing.T) {
	t.Helper()
	if _, err := rd.mc.WaitRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if !rd.store.Published(wire.Dialing, 1) {
		t.Fatal("round not published")
	}
	settings := &wire.RoundSettings{Service: wire.Dialing, NumMailboxes: routedMailboxes}
	assertTokensDelivered(t, rd.store, 1, settings, rd.tokens)
	rd.mc.CloseRound(wire.Dialing, 1)
	if n := rd.daemon.PendingRoutes(); n != 0 {
		t.Fatalf("%d routes leak after close", n)
	}
}

// TestStreamFanInTwoUpstreams drives the counted fan-in directly: a
// daemon routed with NumUpstream=2 (the entry scale-out hook — several
// frontends feeding one mixer) must keep its intake open until BOTH
// upstreams have sent mix.stream.end, then run its role once over the
// union of the two streams.
func TestStreamFanInTwoUpstreams(t *testing.T) {
	rd := startRoutedDaemon(t, 2)
	store := rd.store

	// Two independent upstream connections, interleaved.
	second, err := rpc.DialMixer(rd.addr)
	if err != nil {
		t.Fatal(err)
	}
	up := []*rpc.MixerClient{rd.mc, second}
	for _, u := range up {
		if err := u.StreamBegin(wire.Dialing, 1, routedMailboxes); err != nil {
			t.Fatal(err)
		}
	}
	for i, onion := range rd.onions {
		if err := up[i%2].StreamChunk(wire.Dialing, 1, [][]byte{onion}); err != nil {
			t.Fatal(err)
		}
	}
	// First end: the intake must stay open (publishing now would drop
	// half the batch).
	if err := up[0].StreamEnd(wire.Dialing, 1, 0); err != nil {
		t.Fatal(err)
	}
	if store.Published(wire.Dialing, 1) {
		t.Fatal("daemon closed its intake after the FIRST upstream end")
	}
	// A duplicated end from the SAME upstream (restarted frontend
	// re-sending) must not stand in for the one still streaming.
	if err := up[0].StreamEnd(wire.Dialing, 1, 0); err != nil {
		t.Fatal(err)
	}
	if store.Published(wire.Dialing, 1) {
		t.Fatal("daemon closed its intake on a duplicated end from one upstream")
	}
	if err := up[1].StreamEnd(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	rd.assertPublished(t)
}

// TestStreamEndClosesIntakeOnce: one upstream is a fan-in of one. On a
// live one-upstream route a second begin and a second end — the transport
// is unauthenticated, and a reply can be lost — are acknowledged and
// change nothing: the intake closed once, one forward ran, and the round
// still publishes. (A second forward would find no stream in progress and
// fail the healthy round.)
func TestStreamEndClosesIntakeOnce(t *testing.T) {
	rd := startRoutedDaemon(t, 1)
	for i := 0; i < 2; i++ {
		if err := rd.mc.StreamBegin(wire.Dialing, 1, routedMailboxes); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
	}
	if err := rd.mc.StreamChunk(wire.Dialing, 1, rd.onions); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := rd.mc.StreamEnd(wire.Dialing, 1, 0); err != nil {
			t.Fatalf("end %d: %v", i, err)
		}
	}
	// An end naming an upstream the route does not have is an error, not
	// a vote.
	if err := rd.mc.StreamEnd(wire.Dialing, 1, 1); err == nil {
		t.Fatal("end from upstream 1 of a one-upstream route accepted")
	}
	rd.assertPublished(t)
}

// TestUnroutedStreamRefused: a stream call for an open round that has no
// route has nowhere to put its output, so it is refused and parks nothing
// — no route entry on the daemon, no stream on the server.
func TestUnroutedStreamRefused(t *testing.T) {
	rd := startRoutedDaemon(t, 0)
	if err := rd.mc.StreamBegin(wire.Dialing, 1, routedMailboxes); err == nil {
		t.Fatal("mix.stream.begin on an unrouted round accepted")
	}
	if err := rd.mc.StreamChunk(wire.Dialing, 1, rd.onions); err == nil {
		t.Fatal("mix.stream.chunk on an unrouted round accepted")
	}
	if err := rd.mc.StreamEnd(wire.Dialing, 1, 0); err == nil {
		t.Fatal("mix.stream.end on an unrouted round accepted")
	}
	if n := rd.daemon.PendingRoutes(); n != 0 {
		t.Fatalf("refused stream calls left %d routes", n)
	}
	if _, err := rd.m.StreamEndShard(wire.Dialing, 1); err == nil {
		t.Fatal("a refused begin left a stream open on the server")
	}
	rd.mc.CloseRound(wire.Dialing, 1)
}
