package mixnet

import (
	"bytes"
	"fmt"
	"math"
	mathrand "math/rand"
	"runtime"
	"testing"

	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// generateNoiseLadder is generateNoise as it stood before noise was sealed
// through onionbox.Sealer tables and made by a worker pool: one
// onionbox.WrapOnion call — two crypto/ecdh ladders a layer — per body,
// mailbox after mailbox, each mailbox reading its own keyed stream of the
// seed. It is the oracle the table path must match byte for byte.
func (s *Server) generateNoiseLadder(seed *[32]byte, service wire.Service, round, numMailboxes uint32, downstream []*onionbox.PublicKey, shards int) ([][]byte, error) {
	dist := s.AddFriendNoise
	if service == wire.Dialing {
		dist = s.DialingNoise
	}
	if shards > 1 {
		dist.Mu = math.Ceil(dist.Mu / float64(shards))
	}
	var msgs [][]byte
	for mb := uint32(0); mb < numMailboxes; mb++ {
		rnd := keyedStream(noiseLabel, seed[:], service, round, mb)
		n, err := dist.Sample(rnd)
		if err != nil {
			return nil, err
		}
		bodies, err := noiseBodies(rnd, service, n)
		if err != nil {
			return nil, err
		}
		for _, body := range bodies {
			payload := (&wire.MixPayload{Mailbox: mb, Body: body}).Marshal()
			wrapped, err := onionbox.WrapOnion(rnd, downstream, payload)
			if err != nil {
				return nil, err
			}
			msgs = append(msgs, wrapped)
		}
	}
	return msgs, nil
}

// TestNoiseMatchesLadderOracle is the byte-identity gate for the
// fixed-base noise path: on one noise seed, generateNoise (at GOMAXPROCS
// workers) returns exactly the onions the per-body ladder loop returns
// from the same per-mailbox streams, for both services, at every chain
// position (2, 1 and 0 downstream hops), sharded and not, above and below
// the Sealer's break-even, and with a downstream key on the twist, which
// no table can hold and which must take the ladder fallback without
// anyone noticing.
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

	newServer := func(nz noise.Laplace) *Server {
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 3,
			AddFriendNoise: &nz, DialingNoise: &nz,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	const numMailboxes = 3
	seed := 0
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		for _, nz := range []noise.Laplace{{Mu: 12, B: 3}, {Mu: 1, B: 0}} {
			for _, shards := range []int{1, 2} {
				for name, downstream := range map[string][]*onionbox.PublicKey{
					"2 hops": pubs, "1 hop": pubs[1:], "0 hops": {},
					"twist": {pubs[0], twist},
				} {
					seed++
					label := fmt.Sprintf("%v mu=%v shards=%d %s", service, nz.Mu, shards, name)
					noiseSeed := [32]byte{byte(seed)}
					want, err := newServer(nz).generateNoiseLadder(&noiseSeed, service, 7, numMailboxes, downstream, shards)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					got, err := newServer(nz).generateNoise(&noiseSeed, service, 7, numMailboxes, downstream, shards)
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

// TestNoiseIndependentOfGOMAXPROCS: a seeded server's noise for 12
// mailboxes, on a Laplace scale b > 0, leaves Round.EndShard as the same
// bytes at GOMAXPROCS 1, 2 and 4, for both services, at the first of three
// positions (two downstream hops) and as a last position (none). Each
// mailbox reads only its own keyed stream, so which worker makes it, and
// when, cannot show in the output.
func TestNoiseIndependentOfGOMAXPROCS(t *testing.T) {
	nz := noise.Laplace{Mu: 3, B: 2}
	const numMailboxes = 12
	noiseOf := func(t *testing.T, service wire.Service, chain int) [][]byte {
		servers := make([]*Server, chain)
		for i := range servers {
			s, err := New(Config{
				Name: "m", Position: i, ChainLength: chain,
				AddFriendNoise: &nz, DialingNoise: &nz,
				Rand: &seededReader{rng: mathrand.New(mathrand.NewSource(int64(100 + i)))},
			})
			if err != nil {
				t.Fatal(err)
			}
			servers[i] = s
		}
		rounds, _ := openRound(t, servers, service, 1, numMailboxes)
		out, err := rounds[0].EndShard()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		for _, chain := range []int{3, 1} {
			t.Run(fmt.Sprintf("%v/hops=%d", service, chain-1), func(t *testing.T) {
				var want [][]byte
				atGOMAXPROCS(t, []int{1, 2, 4}, func(t *testing.T) {
					got := noiseOf(t, service, chain)
					if want == nil {
						if len(got) == 0 {
							t.Fatal("no noise")
						}
						want = got
						return
					}
					if len(got) != len(want) {
						t.Fatalf("%d noise onions, %d at GOMAXPROCS 1", len(got), len(want))
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("noise onion %d of %d differs from GOMAXPROCS 1's", i, len(want))
						}
					}
				})
			})
		}
	}
}

// TestNoiseSeedErased: a round's noise seed reads zero after Round.Close,
// whether its intake ended or was aborted first, as the round key does in
// TestForwardSecrecyRoundKeyErased; and the copy the noise goroutine
// hands generateNoise reads zero once it returns.
func TestNoiseSeedErased(t *testing.T) {
	copied := [32]byte{1, 2, 3}
	if _, err := newChain(t, 1, noise.Laplace{Mu: 2})[0].generateNoise(&copied, wire.Dialing, 1, 3, nil, 1); err != nil {
		t.Fatal(err)
	}
	if copied != [32]byte{} {
		t.Fatalf("generateNoise left its seed copy as %x", copied)
	}
	for _, abort := range []bool{false, true} {
		rounds, _ := openRound(t, newChain(t, 1, noise.Laplace{Mu: 2, B: 1}), wire.Dialing, 1, 4)
		r := rounds[0]
		if r.noiseSeed == [32]byte{} {
			t.Fatal("Open drew no noise seed")
		}
		if abort {
			r.Abort()
		} else if _, err := r.EndShard(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if r.noiseSeed != [32]byte{} {
			t.Fatalf("abort=%v: the noise seed reads %x after Close", abort, r.noiseSeed)
		}
	}
}

// laplaceCountCDF is P(n ≤ k) for n = l.Sample(·) = max(0, round(X)),
// X ~ Laplace(l.Mu, l.B), l.B > 0.
func laplaceCountCDF(l noise.Laplace, k int) float64 {
	if k < 0 {
		return 0
	}
	x := float64(k) + 0.5
	if x < l.Mu {
		return 0.5 * math.Exp((x-l.Mu)/l.B)
	}
	return 1 - 0.5*math.Exp(-(x-l.Mu)/l.B)
}

// chiSquare returns Pearson's statistic for the observed counts (value →
// times seen, out of total) against l, over bins of consecutive values
// that each expect at least five, the last one taking the upper tail, and
// its degrees of freedom.
func chiSquare(seen map[int]int, total int, l noise.Laplace) (float64, int) {
	n := float64(total)
	stat, bins := 0.0, 0
	for lo, below := 0, 0.0; ; {
		hi := lo
		for n*(laplaceCountCDF(l, hi)-below) < 5 {
			hi++
		}
		last := n*(1-laplaceCountCDF(l, hi)) < 5
		want := n * (laplaceCountCDF(l, hi) - below)
		if last {
			want = n * (1 - below)
		}
		got := 0
		for v, c := range seen {
			if v >= lo && (v <= hi || last) {
				got += c
			}
		}
		stat += (float64(got) - want) * (float64(got) - want) / want
		bins++
		if last {
			return stat, bins - 1
		}
		below, lo = laplaceCountCDF(l, hi), hi+1
	}
}

// chiSquareCritical is the χ² value with df degrees of freedom that a
// sample from the right distribution exceeds with probability 0.001
// (Wilson–Hilferty).
func chiSquareCritical(df int) float64 {
	const z = 3.090 // the standard normal's 0.999 quantile
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// TestNoiseCountsFollowLaplace is the noise-conformance gate: the number
// of noise messages shard i of N puts in each mailbox follows
// Laplace(⌈µ/N⌉, b), truncated at zero and rounded, at N = 1, 2 and 3,
// by a χ² test over 1500 mailboxes. The noise is made by the one path,
// generateNoise's worker pool, at GOMAXPROCS 4, on a fixed seed, so the
// statistic is one fixed number and cannot flake. For power, the same
// counts must reject the distribution at half the scale, the ε erosion
// that dividing sampled counts among shards would bring. The benchmark's
// noise runs at b = 0, exactly µ a mailbox, so no benchmark metric can see
// any of this; it is the gate ahead of the compromised-friend attack of
// "What's a Little Leakage Between Friends?", whose adversary reads
// mailbox counts.
func TestNoiseCountsFollowLaplace(t *testing.T) {
	const mu, b, numMailboxes = 12, 3, 1500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for shards := 1; shards <= 3; shards++ {
		nz := noise.Laplace{Mu: mu, B: b}
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 1,
			AddFriendNoise: &nz, DialingNoise: &nz,
			Rand: &seededReader{rng: mathrand.New(mathrand.NewSource(int64(shards)))},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := openOne(t, s, RoundSpec{ShardIndex: shards - 1, ShardCount: shards, NumMailboxes: numMailboxes})
		out, err := r.EndShard()
		if err != nil {
			t.Fatal(err)
		}
		perMailbox := make([]int, numMailboxes)
		for _, msg := range out {
			p, err := wire.UnmarshalMixPayload(wire.Dialing, msg)
			if err != nil || p.Mailbox >= numMailboxes {
				t.Fatalf("noise message %+v, %v", p, err)
			}
			perMailbox[p.Mailbox]++
		}
		seen := make(map[int]int)
		for _, c := range perMailbox {
			seen[c]++
		}
		want := noise.Laplace{Mu: math.Ceil(float64(mu) / float64(shards)), B: b}
		stat, df := chiSquare(seen, numMailboxes, want)
		t.Logf("%d shards: χ² = %.1f over %d df against Laplace(%v, %v); the 0.001 line is %.1f", shards, stat, df, want.Mu, want.B, chiSquareCritical(df))
		if crit := chiSquareCritical(df); stat > crit {
			t.Errorf("%d shards: χ² = %.1f over %d df against Laplace(%v, %v), past %.1f", shards, stat, df, want.Mu, want.B, crit)
		}
		half := noise.Laplace{Mu: want.Mu, B: b / 2}
		if stat, df := chiSquare(seen, numMailboxes, half); stat <= chiSquareCritical(df) {
			t.Errorf("%d shards: the counts pass for Laplace(%v, %v) too (χ² = %.1f over %d df): the test cannot see the scale", shards, half.Mu, half.B, stat, df)
		}
	}
}
