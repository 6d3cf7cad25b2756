package mixnet_test

import (
	"bytes"
	mathrand "math/rand"
	"testing"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// seededReader is a deterministic, non-thread-safe randomness source for
// wrapping onions.
type seededReader struct{ rng *mathrand.Rand }

func (r *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

// submitSeeded wraps one onion per body, round-robin over the round's
// mailboxes, from a fresh seeded source, and submits them: two calls on
// the same settings submit the same bytes.
func submitSeeded(t *testing.T, e *entry.Server, settings *wire.RoundSettings, bodies [][]byte) {
	t.Helper()
	hops := make([]*onionbox.PublicKey, len(settings.Mixers))
	for i, rk := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = pk
	}
	src := &seededReader{rng: mathrand.New(mathrand.NewSource(4242))}
	for i, body := range bodies {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: body}).Marshal()
		onion, err := onionbox.WrapOnion(src, hops, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(settings.Service, settings.Round, onion); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDataPlaneMatchesReference pins the one data plane to the in-process
// reference: Chain — full-batch Mix on seeded servers' Rounds, then the
// mailbox build — against the routed plane (internal/rpc) at one shard per
// position under the same seed, with noise on. The plane runs on each
// transport sim serves, in memory and over TCP, and the reference runs on
// the mixers of a second network built with the same Seed; the plane must
// publish mailboxes byte-identical to it: a group of one that deposits
// with itself, merges one part and publishes one slice changes WHERE bytes
// travel, never what comes out. Both services run: a dialing mailbox is a
// Bloom filter, blind to the order of its tokens, while an add-friend
// mailbox concatenates its requests in batch order, so only the add-friend
// round also pins the order the plane delivers. It is an external test of
// this package because Chain is test code, and because sim and rpc import
// mixnet.
func TestDataPlaneMatchesReference(t *testing.T) {
	const numBodies, seed = 90, 1000
	newNetwork := func(t *testing.T, cfg sim.Config) *sim.Network {
		n, err := sim.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	services := []struct {
		name     string
		service  wire.Service
		bodySize int
	}{
		{"dialing", wire.Dialing, keywheel.TokenSize},
		{"addfriend", wire.AddFriend, wire.EncryptedFriendRequestSize},
	}
	for _, tr := range []struct{ name, listen string }{{"mem", "mem:"}, {"tcp", "127.0.0.1:0"}} {
		t.Run(tr.name, func(t *testing.T) {
			for _, sv := range services {
				t.Run(sv.name, func(t *testing.T) {
					bodies := make([][]byte, numBodies)
					for i := range bodies {
						body := make([]byte, sv.bodySize)
						body[0], body[1], body[2] = byte(i), byte(i>>8), 0xEF
						bodies[i] = body
					}
					cfg := sim.Config{NumPKGs: 1, TargetRequestsPerMailbox: 40, Seed: seed, Listen: tr.listen}
					testDataPlaneMatchesReference(t, newNetwork(t, cfg), newNetwork(t, cfg), sv.service, bodies)
				})
			}
		})
	}
}

// testDataPlaneMatchesReference runs one round of service through the
// routed plane of n and through Chain on the mixers of ref, a second
// network built with the same Config, and compares the mailboxes.
func testDataPlaneMatchesReference(t *testing.T, n, refNet *sim.Network, service wire.Service, bodies [][]byte) {
	n.Coord.SetExpectedVolume(service, len(bodies))
	open := n.Coord.OpenDialingRound
	if service == wire.AddFriend {
		open = n.Coord.OpenAddFriendRound
	}
	settings, err := open(1)
	if err != nil {
		t.Fatal(err)
	}
	k := settings.NumMailboxes
	if k < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", k)
	}
	submitSeeded(t, n.Entry, settings, bodies)
	if _, err := n.Coord.CloseRound(service, 1); err != nil {
		t.Fatal(err)
	}
	if got := n.CDNDaemon.LastSealStreams(); got != 1 {
		t.Fatalf("round sealed from %d publish streams, want 1", got)
	}

	// The reference: the same seeded servers, driven in process.
	var servers []*mixnet.Server
	for _, group := range refNet.Mixers {
		servers = append(servers, group[0].Server)
	}
	ref := &wire.RoundSettings{Service: service, Round: 1, NumMailboxes: k}
	var privs []*onionbox.PrivateKey
	for _, m := range servers {
		priv, rk, err := m.Announce(service, 1)
		if err != nil {
			t.Fatal(err)
		}
		privs = append(privs, priv)
		ref.Mixers = append(ref.Mixers, rk)
	}
	rounds := make([]*mixnet.Round, len(servers))
	for i, m := range servers {
		var keys [][]byte
		for _, rk := range ref.Mixers[i+1:] {
			keys = append(keys, rk.OnionKey)
		}
		if rounds[i], err = m.Open(mixnet.RoundSpec{
			Service: service, Round: 1, ShardCount: 1, Downstream: keys, NumMailboxes: k, Key: privs[i],
		}); err != nil {
			t.Fatal(err)
		}
	}
	e := entry.New()
	if err := e.OpenRound(ref); err != nil {
		t.Fatal(err)
	}
	submitSeeded(t, e, ref, bodies)
	batch, err := e.CloseRound(service, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mixnet.Chain(rounds, k, batch)
	if err != nil {
		t.Fatal(err)
	}
	for mb := uint32(0); mb < k; mb++ {
		got, err := n.CDN.Fetch(service, 1, mb)
		if err != nil {
			t.Fatalf("mailbox %d: %v", mb, err)
		}
		if len(got) == 0 {
			t.Errorf("mailbox %d is empty", mb)
		}
		if !bytes.Equal(want[mb], got) {
			t.Errorf("mailbox %d differs from Chain", mb)
		}
	}
}
