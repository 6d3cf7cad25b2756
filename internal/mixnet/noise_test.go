package mixnet

import (
	"bytes"
	"fmt"
	"math"
	mathrand "math/rand"
	"testing"

	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// generateNoiseLadder is generateNoise as it stood before noise was sealed
// through onionbox.Sealer tables: one onionbox.WrapOnion call — two
// crypto/ecdh ladders a layer — per body, mailbox after mailbox. It is the
// oracle the table path must match byte for byte.
func (s *Server) generateNoiseLadder(service wire.Service, numMailboxes uint32, downstream []*onionbox.PublicKey, shards int) ([][]byte, error) {
	dist := s.AddFriendNoise
	if service == wire.Dialing {
		dist = s.DialingNoise
	}
	if shards > 1 {
		dist.Mu = math.Ceil(dist.Mu / float64(shards))
	}
	var msgs [][]byte
	for mb := uint32(0); mb < numMailboxes; mb++ {
		n, err := dist.Sample(s.randSrc)
		if err != nil {
			return nil, err
		}
		bodies, err := s.noiseBodies(service, n)
		if err != nil {
			return nil, err
		}
		for _, body := range bodies {
			payload := (&wire.MixPayload{Mailbox: mb, Body: body}).Marshal()
			wrapped, err := onionbox.WrapOnion(s.randSrc, downstream, payload)
			if err != nil {
				return nil, err
			}
			msgs = append(msgs, wrapped)
		}
	}
	return msgs, nil
}

// TestNoiseMatchesLadderOracle is the byte-identity gate for the
// fixed-base noise path: with a seeded Config.Rand and Parallelism 1,
// generateNoise returns exactly the onions the per-body ladder loop
// returns, for both services, at every chain position (2, 1 and 0
// downstream hops), sharded and not, above and below the Sealer's
// break-even, and with a downstream key on the twist, which no table can
// hold and which must take the ladder fallback without anyone noticing.
func TestNoiseMatchesLadderOracle(t *testing.T) {
	keyRng := &seededReader{rng: mathrand.New(mathrand.NewSource(99))}
	var pubs []*onionbox.PublicKey
	var privs []*onionbox.PrivateKey
	for i := 0; i < 2; i++ {
		pub, priv, err := onionbox.GenerateKey(keyRng)
		if err != nil {
			t.Fatal(err)
		}
		pubs, privs = append(pubs, pub), append(privs, priv)
	}
	twist, err := onionbox.UnmarshalPublicKey(append([]byte{2}, make([]byte, 31)...))
	if err != nil {
		t.Fatal(err)
	}

	newServer := func(nz noise.Laplace, seed int64) *Server {
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 3,
			AddFriendNoise: &nz, DialingNoise: &nz,
			Rand:        &seededReader{rng: mathrand.New(mathrand.NewSource(seed))},
			Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	const numMailboxes = 3
	seed := int64(0)
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		for _, nz := range []noise.Laplace{{Mu: 12, B: 3}, {Mu: 1, B: 0}} {
			for _, shards := range []int{1, 2} {
				for name, downstream := range map[string][]*onionbox.PublicKey{
					"2 hops": pubs, "1 hop": pubs[1:], "0 hops": {},
					"twist": {pubs[0], twist},
				} {
					seed++
					label := fmt.Sprintf("%v mu=%v shards=%d %s", service, nz.Mu, shards, name)
					want, err := newServer(nz, seed).generateNoiseLadder(service, numMailboxes, downstream, shards)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					got, err := newServer(nz, seed).generateNoise(service, numMailboxes, downstream, shards)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(got) != len(want) || len(want) == 0 {
						t.Fatalf("%s: %d noise onions, the oracle made %d", label, len(got), len(want))
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("%s: noise onion %d of %d differs from the ladder's", label, i, len(want))
						}
					}
					if name == "twist" {
						continue
					}
					// And they are onions: every layer peels, down to a
					// payload addressed to a real mailbox.
					for i, onion := range got {
						for hop := len(pubs) - len(downstream); hop < len(pubs); hop++ {
							if onion, err = onionbox.Open(privs[hop], onion); err != nil {
								t.Fatalf("%s: onion %d, hop %d: %v", label, i, hop, err)
							}
						}
						p, err := wire.UnmarshalMixPayload(service, onion)
						if err != nil || p.Mailbox >= numMailboxes {
							t.Fatalf("%s: onion %d peels to %+v, %v", label, i, p, err)
						}
					}
				}
			}
		}
	}
}
