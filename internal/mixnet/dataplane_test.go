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

// submitSeeded wraps one dial onion per token, round-robin over the
// round's mailboxes, from a fresh seeded source, and submits them: two
// calls on the same settings submit the same bytes.
func submitSeeded(t *testing.T, e *entry.Server, settings *wire.RoundSettings, tokens [][]byte) {
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
	for i, tok := range tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: tok}).Marshal()
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
// reference: Chain — full-batch Mix on seeded one-worker servers, then
// BuildMailboxes — against the routed plane (internal/rpc) at one shard per
// position under the same seed, with noise on. The plane runs on each
// transport sim serves, in memory and over TCP, and the reference runs on
// the mixers of a second network built with the same Seed; the plane must
// publish mailboxes byte-identical to it: a group of one that deposits
// with itself, merges one part and publishes one slice changes WHERE bytes
// travel, never what comes out. It is an external test of this package
// because Chain is test code, and because sim and rpc import mixnet.
func TestDataPlaneMatchesReference(t *testing.T) {
	const numTokens, seed = 90, 1000
	tokens := make([][]byte, numTokens)
	for i := range tokens {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1], tok[2] = byte(i), byte(i>>8), 0xEF
		tokens[i] = tok
	}
	newNetwork := func(t *testing.T, cfg sim.Config) *sim.Network {
		n, err := sim.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	for _, tr := range []struct{ name, listen string }{{"mem", "mem:"}, {"tcp", "127.0.0.1:0"}} {
		t.Run(tr.name, func(t *testing.T) {
			cfg := sim.Config{NumPKGs: 1, TargetRequestsPerMailbox: 40, Seed: seed, Listen: tr.listen}
			n := newNetwork(t, cfg)
			n.Coord.ChunkSize = 16
			n.Coord.SetExpectedVolume(wire.Dialing, numTokens)
			settings, err := n.Coord.OpenDialingRound(1)
			if err != nil {
				t.Fatal(err)
			}
			k := settings.NumMailboxes
			if k < 2 {
				t.Fatalf("want a multi-mailbox round, got K=%d", k)
			}
			submitSeeded(t, n.Entry, settings, tokens)
			if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
				t.Fatal(err)
			}
			if got := n.CDNDaemon.LastSealStreams(); got != 1 {
				t.Fatalf("round sealed from %d publish streams, want 1", got)
			}

			// The reference: the same seeded servers, driven in process.
			var servers []*mixnet.Server
			for _, group := range newNetwork(t, cfg).Mixers {
				servers = append(servers, group[0].Server)
			}
			ref := &wire.RoundSettings{Service: wire.Dialing, Round: 1, NumMailboxes: k}
			for _, m := range servers {
				rk, err := m.NewRound(wire.Dialing, 1)
				if err != nil {
					t.Fatal(err)
				}
				ref.Mixers = append(ref.Mixers, rk)
			}
			for i, m := range servers {
				var keys [][]byte
				for _, rk := range ref.Mixers[i+1:] {
					keys = append(keys, rk.OnionKey)
				}
				if err := m.SetDownstreamKeys(wire.Dialing, 1, keys); err != nil {
					t.Fatal(err)
				}
			}
			e := entry.New()
			if err := e.OpenRound(ref); err != nil {
				t.Fatal(err)
			}
			submitSeeded(t, e, ref, tokens)
			batch, err := e.CloseRound(wire.Dialing, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mixnet.Chain(servers, wire.Dialing, 1, k, batch)
			if err != nil {
				t.Fatal(err)
			}
			for mb := uint32(0); mb < k; mb++ {
				got, err := n.CDN.Fetch(wire.Dialing, 1, mb)
				if err != nil {
					t.Fatalf("mailbox %d: %v", mb, err)
				}
				if !bytes.Equal(want[mb], got) {
					t.Errorf("mailbox %d differs from Chain", mb)
				}
			}
		})
	}
}
