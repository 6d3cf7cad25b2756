package rpc_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	mathrand "math/rand"
	"sync/atomic"
	"testing"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// shardFleet is a chain of mixer daemons over localhost TCP where each
// position may be served by several shard daemons.
type shardFleet struct {
	counts  []int
	servers [][]*mixnet.Server
	daemons [][]*rpc.MixerDaemon
	rpcSrvs [][]*rpc.Server
	addrs   [][]string
	clients [][]*rpc.MixerClient
}

// startShardFleet launches counts[i] daemons for position i. randFor may
// be nil (crypto/rand) or a per-(position, shard) deterministic source
// factory.
func startShardFleet(t *testing.T, counts []int, nz noise.Laplace, randFor func(pos, shard int) mathrand.Source) *shardFleet {
	t.Helper()
	f := &shardFleet{counts: counts}
	for i, n := range counts {
		var servers []*mixnet.Server
		var daemons []*rpc.MixerDaemon
		var rpcSrvs []*rpc.Server
		var addrs []string
		var clients []*rpc.MixerClient
		for s := 0; s < n; s++ {
			cfg := mixnet.Config{
				Name: "m", Position: i, ChainLength: len(counts),
				AddFriendNoise: &nz, DialingNoise: &nz,
			}
			if n > 1 {
				cfg.ShardIndex, cfg.ShardCount = s, n
			}
			if randFor != nil {
				cfg.Rand = &seededReader{rng: mathrand.New(randFor(i, s))}
				cfg.Parallelism = 1 // deterministic rand read order
			}
			m, err := mixnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := rpc.NewServer()
			d := rpc.RegisterMixer(srv, m)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			mc, err := rpc.DialMixer(addr)
			if err != nil {
				t.Fatal(err)
			}
			servers = append(servers, m)
			daemons = append(daemons, d)
			rpcSrvs = append(rpcSrvs, srv)
			addrs = append(addrs, addr)
			clients = append(clients, mc)
		}
		f.servers = append(f.servers, servers)
		f.daemons = append(f.daemons, daemons)
		f.rpcSrvs = append(f.rpcSrvs, rpcSrvs)
		f.addrs = append(f.addrs, addrs)
		f.clients = append(f.clients, clients)
	}
	return f
}

// shardCoordinator assembles a coordinator over a shard fleet: position
// leads in Mixers, the rest of each group in Shards.
func shardCoordinator(f *shardFleet, e *entry.Server, cdnAddr string) *coordinator.Coordinator {
	coord := &coordinator.Coordinator{
		Entry:                    e,
		TargetRequestsPerMailbox: 40,
		CDNAddr:                  cdnAddr,
		Shards:                   make([][]coordinator.Mixer, len(f.counts)),
	}
	for i, group := range f.clients {
		coord.Mixers = append(coord.Mixers, group[0])
		for _, mc := range group[1:] {
			coord.Shards[i] = append(coord.Shards[i], mc)
		}
	}
	return coord
}

// assertNoLeaks checks that a daemon holds no round state after a round
// resolved: no routes, no live round key.
func assertShardFleetClean(t *testing.T, f *shardFleet, round uint32, skip func(pos, shard int) bool) {
	t.Helper()
	for i, group := range f.daemons {
		for s, d := range group {
			if skip != nil && skip(i, s) {
				continue
			}
			if n := d.PendingRoutes(); n != 0 {
				t.Errorf("daemon %d/%d: %d routes leak", i, s, n)
			}
			if f.servers[i][s].RoundOpen(wire.Dialing, round) {
				t.Errorf("daemon %d/%d: round key survives", i, s)
			}
		}
	}
}

// TestShardedRoundOverTCP is the shard-group acceptance test: a round
// over real TCP daemons with the middle position sharded across two
// processes completes end to end — both shards peel with the position's
// one announced key, the merge shard performs the position's shuffle, the
// mailboxes land in the CDN, the coordinator still only moves control
// bytes plus the entry batch, and per-daemon health comes back through
// mix.round.wait.
func TestShardedRoundOverTCP(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	f := startShardFleet(t, []int{1, 2, 1}, nz, nil)
	store, cdnAddr := startCDN(t)
	e := entry.New()
	coord := shardCoordinator(f, e, cdnAddr)
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
	batchBytes := submitTokens(t, e, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if !store.Published(wire.Dialing, 1) {
		t.Fatal("round not published")
	}
	assertTokensDelivered(t, store, 1, settings, tokens)

	// Control-plane discipline holds with shards: the coordinator ships
	// batch data only to position 0.
	const controlBudget = 32 << 10
	for i, group := range f.clients {
		for s, mc := range group {
			st := mc.TransportStats()
			if i > 0 && st.BytesSent > controlBudget {
				t.Errorf("mixer %d/%d: coordinator sent %d bytes, want control-only", i, s, st.BytesSent)
			}
		}
	}
	if st := f.clients[0][0].TransportStats(); st.BytesSent < uint64(batchBytes) {
		t.Errorf("mixer 0/0: coordinator sent %d bytes, want >= batch (%d)", st.BytesSent, batchBytes)
	}
	assertShardFleetClean(t, f, 1, nil)

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

	runMode := func(shardsPerPos int) (*wire.RoundSettings, map[uint32][]byte) {
		counts := []int{shardsPerPos, shardsPerPos, shardsPerPos}
		f := startShardFleet(t, counts, nz, func(pos, shard int) mathrand.Source {
			if shard == 0 {
				// Leads draw the position's round key (and the merge
				// shuffle); identical seeds per position across modes.
				return mathrand.NewSource(int64(1000 + pos))
			}
			return mathrand.NewSource(int64(5000 + 100*pos + shard))
		})
		store, cdnAddr, daemon := startCDNDaemon(t)
		e := entry.New()
		coord := shardCoordinator(f, e, cdnAddr)
		coord.ChunkSize = 16
		coord.SetExpectedVolume(wire.Dialing, numTokens)

		settings, err := coord.OpenDialingRound(1)
		if err != nil {
			t.Fatal(err)
		}
		submitTokens(t, e, settings, tokens, mathrand.New(mathrand.NewSource(4242)))
		if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
			t.Fatalf("%d shards/position: %v", shardsPerPos, err)
		}
		// The seal's stream count pins that the sharded build really ran:
		// N shards mean N publish streams — one for a group of one — and
		// the merge server never funnels the round's final mailbox bytes.
		if got := daemon.LastSealStreams(); got != shardsPerPos {
			t.Fatalf("%d shards/position: round sealed from %d publish streams", shardsPerPos, got)
		}
		boxes := make(map[uint32][]byte)
		for mb := uint32(0); mb < settings.NumMailboxes; mb++ {
			data, err := store.Fetch(wire.Dialing, 1, mb)
			if err != nil {
				t.Fatalf("%d shards/position: mailbox %d: %v", shardsPerPos, mb, err)
			}
			boxes[mb] = data
		}
		return settings, boxes
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
}

// TestShardAbortMidRound kills one shard of the middle position while the
// batch is streaming through it: the abort must reach every shard of
// every position and the coordinator, nothing may leak (routes, round
// keys, staged merges), and the round after the shard restarts must
// succeed.
func TestShardAbortMidRound(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	f := startShardFleet(t, []int{1, 2, 1}, nz, nil)
	store, cdnAddr := startCDN(t)
	e := entry.New()
	coord := shardCoordinator(f, e, cdnAddr)
	coord.ChunkSize = 8 // many chunks per hop, so the kill lands mid-stream
	coord.SetExpectedVolume(wire.Dialing, 120)

	// Sabotage the middle position's NON-merge shard: after two dealt
	// chunks arrive, it starts failing and its server goes down.
	var chunks atomic.Int32
	rpc.HandleFunc(f.rpcSrvs[1][1], "mix.stream.chunk", func(a rpc.ChunkArgs) (any, error) {
		if chunks.Add(1) > 2 {
			go f.rpcSrvs[1][1].Close()
			return nil, errors.New("shard 1/1 crashed mid-stream")
		}
		return nil, f.servers[1][1].StreamChunk(a.Service, a.Round, a.Batch())
	})

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	tokens := makeTestTokens(120)
	submitTokens(t, e, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err == nil {
		t.Fatal("round with a dead mid-chain shard succeeded")
	}
	if chunks.Load() < 3 {
		t.Fatalf("shard died after %d chunks; the kill was not mid-stream", chunks.Load())
	}
	if store.Published(wire.Dialing, 1) {
		t.Fatal("aborted round was published")
	}
	// Every SURVIVING daemon is clean (the dead daemon's RPC server is
	// down; its in-memory state dies with the process in a real
	// deployment).
	assertShardFleetClean(t, f, 1, func(pos, shard int) bool { return pos == 1 && shard == 1 })
	// The abort was recorded in the round's health.
	health := coord.Status()
	if len(health) != 1 || health[0].Err == "" {
		t.Fatalf("aborted round missing from health: %+v", health)
	}

	// The shard comes back on the same address (fresh RPC server, same
	// mixer); every cached connection redials lazily.
	restarted := rpc.NewServer()
	f.daemons[1][1] = rpc.RegisterMixer(restarted, f.servers[1][1])
	if _, err := restarted.Listen(f.addrs[1][1]); err != nil {
		t.Fatalf("restarting shard on %s: %v", f.addrs[1][1], err)
	}
	t.Cleanup(restarted.Close)

	settings2, err := coord.OpenDialingRound(2)
	if err != nil {
		t.Fatal(err)
	}
	tokens2 := makeTestTokens(90)
	submitTokens(t, e, settings2, tokens2, nil)
	if _, err := coord.CloseRound(wire.Dialing, 2); err != nil {
		t.Fatalf("round after shard restart failed: %v", err)
	}
	if !store.Published(wire.Dialing, 2) {
		t.Fatal("recovered round not published")
	}
	assertTokensDelivered(t, store, 2, settings2, tokens2)
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
