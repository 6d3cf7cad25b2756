// Package mixnet implements Alpenhorn's anytrust mix network (§6), which
// follows the Vuvuzela mixnet design.
//
// A small, fixed chain of servers processes each round's batch of
// fixed-size client onions. Every server peels one encryption layer,
// shuffles the batch with a cryptographically random permutation, and adds
// Laplace-distributed noise requests addressed to every mailbox. As long as
// one server keeps its round key and permutation secret, an adversary
// cannot link an incoming request to an outgoing one — and the noise makes
// mailbox-size observations differentially private.
//
// The LAST server in the chain builds the round's mailboxes: for the
// add-friend protocol, a mailbox is the concatenation of the encrypted
// friend requests routed to it; for the dialing protocol, the server
// encodes each mailbox's dial tokens into a Bloom filter (§5.2).
//
// A server's part in a round is one object. Announce draws the round's
// onion key; Open takes the whole round at once (the shard layout, the
// downstream keys, the mailbox count and the key) and starts generating
// the round's noise in the background, so it is ready by the time the
// batch has arrived; the Round it returns peels the batch in chunks as
// they arrive (Chunk), so a server starts peeling while the upstream
// server is still emitting, ends the intake with its noise appended
// (EndShard), shuffles (Merge) and erases the key (Close). Onion
// decryption fans out over a worker pool. The shuffle remains a strict
// per-server barrier: output order is only decided once the whole batch is
// present, which is what the anytrust unlinkability argument needs.
//
// # Shard groups
//
// One CHAIN POSITION may be served by several Server instances on
// separate machines — a shard group, one logical mixer split for
// throughput. The group's contract keeps sharding invisible to both
// clients and the anytrust argument:
//
//   - One key per position. The ANNOUNCER (shard 0 — the member whose
//     long-term signing key clients pin) generates the round onion key
//     and announces it; the other shards open the round with the same key
//     (ExportKey, RoundSpec.Import — group-internal traffic only, gated
//     per round to a coordinator-distributed peer allowlist).
//     Clients wrap exactly one onion layer for the position, sharded or
//     not. Hot-spare daemons (Config.Spare) are drafted into a benched
//     member's slot the same way: they import the round key and take the
//     slot's shard index for exactly that round.
//
//   - Divided noise, preserved scale. Each shard draws per-mailbox
//     noise from Laplace(ceil(µ/N), b) — the position's MEAN divided,
//     its scale b intact (Open takes N with the rest of the round, so
//     no noise exists before it). Ceil rounding means the group's union
//     can only meet or exceed the unsharded µ, and full-scale draws keep
//     §6's ε = s/b analysis unchanged; dividing sampled counts instead
//     would shrink the effective scale and erode the guarantee.
//
//   - One full-batch shuffle, at the merge. Shards peel their slices
//     WITHOUT shuffling (Round.EndShard) and hand them to the member
//     hosting the group's MERGE ROLE this round, where the slice that
//     arrives last completes the merge: Round.Merge concatenates the
//     slices in shard-index order and applies a single permutation over
//     the whole position's batch. The position's mixing contribution is
//     therefore identical to an unsharded server's — never N smaller
//     shuffles an observer could partition.
//
//   - A role, not a machine. The merge/build-lead role is assigned by
//     the coordinator per round (round-robin by default), because the
//     merge member is the position's bandwidth funnel: it receives every
//     other shard's slice and re-deals the full batch. To make the role
//     freely movable, the permutation is DERIVED from the round private
//     key (permutationReader) rather than drawn from the merge member's
//     local randomness — every member holds the same key, so every
//     member computes the same permutation, and a round's published
//     mailboxes are byte-identical no matter who merged. The permutation
//     stays secret exactly as long as the round key does, which is the
//     secrecy the anytrust argument already demanded, and both die
//     together at Round.Close.
//
// A shard group is one trust domain (it shares the round private key);
// peeled-but-unshuffled slices travel only inside it. A position with a
// single shard is a group of one: no key leaves it and no slice travels.
//
// # Randomness
//
// A server reads Config.Rand for three things only: its long-term signing
// key (New), each round's onion key (Announce) and each round's 32-byte
// NOISE SEED (Open). Every other random byte a round uses comes from a
// keyed stream (keyedStream): the permutation's is keyed by the round
// onion key, and mailbox j's noise — its Laplace count, then its bodies,
// then its onions' ephemeral scalars — by the seed and j. Mailbox j's
// noise is therefore a function of (seed, j) alone, whichever worker makes
// it, and a server on a seeded source runs the production program at any
// GOMAXPROCS.
//
// The seed is secret. Other servers must not predict a mixer's noise
// counts, bodies or ephemeral scalars: the counts are what makes mailbox
// sizes differentially private, and a known scalar would let a downstream
// server recognise the noise onion it seals. To anyone without the seed,
// an AES-256-CTR stream under a key hashed from 32 bytes of crypto/rand
// is indistinguishable from random, and no two streams share a key and a
// counter block. The seed is drawn from the source, not derived from the
// round onion key: every shard of a group and a drafted spare hold the
// same key, so a key-derived seed would give each member identical noise
// onions for mailbox j. Round.Close zeroes the seed, after a completed
// round and after an abort alike.
//
// This package is transport-agnostic: the chunked surface is driven by
// daemons forwarding chunks directly to their successors (internal/rpc's
// data plane, which also routes the shard-group deal/merge). The tests
// hold it to a full-batch reference mixer that lives in this package's
// _test.go files. Because the writers' slots, then each slot's chunk
// arrival order, define pre-shuffle order, and a round's randomness is a
// function of the server's draws from Config.Rand, the routed plane at one
// shard per position and that reference produce byte-identical mailboxes
// under a fixed seed, however many writers feed the first position at
// once. Across shard COUNTS the guarantee is set-level, not order-level —
// the deal legitimately reorders the pre-shuffle batch and every member
// draws its own noise seed — so byte-identity across 1/2/3-shard chains
// holds for order-independent mailbox encodings (dialing's Bloom filters)
// with noise silenced, which is exactly what the cross-shard-count
// determinism test pins; add-friend mailboxes (order-sensitive
// concatenations) keep only the set guarantee.
package mixnet

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// Server is one mixnet server. It is safe for concurrent use. Position in
// the chain is fixed at construction.
type Server struct {
	// Name identifies the server in logs.
	Name string
	// Position is this server's index in the chain (0 = first).
	Position int
	// ChainLength is the total number of servers in the chain.
	ChainLength int

	signingPub  ed25519.PublicKey
	signingPriv ed25519.PrivateKey

	// AddFriendNoise and DialingNoise are the per-mailbox noise
	// distributions (µ per server per mailbox, §8.1).
	AddFriendNoise noise.Laplace
	DialingNoise   noise.Laplace

	randSrc io.Reader

	// Static shard identity (Config.ShardIndex/ShardCount); 0 count
	// means unpinned.
	shardIndex int
	shardCount int
	// spare marks a hot-spare daemon (Config.Spare): unpinned, but
	// draftable into any shard slot of its position per round, which
	// requires serving the group-internal key import/export surface.
	spare bool

	// mu serializes reads of randSrc and guards the stats.
	mu        sync.Mutex
	processed uint64
	noiseSent uint64

	// The rounds the deprecated step methods drive (deprecated.go).
	legacyMu sync.Mutex
	rounds   map[roundKey]*legacyRound
}

// Config configures a mixnet server.
type Config struct {
	Name        string
	Position    int
	ChainLength int
	// Noise overrides; zero values fall back to the paper's parameters.
	AddFriendNoise *noise.Laplace
	DialingNoise   *noise.Laplace
	// Rand is the server's randomness source; nil means crypto/rand.
	// The server reads it only in New and under its own mutex (each
	// round's onion key and noise seed), so any source need only be
	// safe for serialized reads. Everything else a round draws comes from
	// keyed streams (package doc, "Randomness").
	Rand io.Reader
	// ShardIndex/ShardCount pin this daemon's place in its position's
	// shard group (cmd/alpenhorn-mixer -shard i/N). ShardCount 0 leaves
	// the daemon unpinned: it accepts whatever per-round shard layout
	// the coordinator announces. When pinned, Open rejects a conflicting
	// layout — a misconfigured coordinator cannot silently make one
	// machine double as two shards.
	ShardIndex int
	ShardCount int
	// Spare marks this daemon as a hot spare for its position
	// (cmd/alpenhorn-mixer -spare): it sits idle until the coordinator
	// benches a sick shard-group member and drafts the spare into that
	// member's slot for the round. A spare stays unpinned (the slot it
	// fills changes per draft) but serves the group-internal round-key
	// import/export surface that is otherwise reserved for pinned
	// members — deployments keep spares inside the shard network, and
	// the per-round exportkey peer allowlist gates the surface besides.
	Spare bool
}

// New creates a mixnet server with a fresh long-term signing key.
func New(cfg Config) (*Server, error) {
	if cfg.Position < 0 || cfg.ChainLength <= 0 || cfg.Position >= cfg.ChainLength {
		return nil, errors.New("mixnet: invalid chain position")
	}
	if cfg.ShardCount > 0 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return nil, errors.New("mixnet: invalid shard index")
	}
	randSrc := cfg.Rand
	if randSrc == nil {
		randSrc = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(randSrc)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Name:           cfg.Name,
		Position:       cfg.Position,
		ChainLength:    cfg.ChainLength,
		signingPub:     pub,
		signingPriv:    priv,
		AddFriendNoise: noise.AddFriendNoise,
		DialingNoise:   noise.DialingNoise,
		randSrc:        randSrc,
		shardIndex:     cfg.ShardIndex,
		shardCount:     cfg.ShardCount,
		spare:          cfg.Spare,
		rounds:         make(map[roundKey]*legacyRound),
	}
	if cfg.AddFriendNoise != nil {
		s.AddFriendNoise = *cfg.AddFriendNoise
	}
	if cfg.DialingNoise != nil {
		s.DialingNoise = *cfg.DialingNoise
	}
	return s, nil
}

// SigningKey returns the server's long-term ed25519 key (pinned in the
// client software package).
func (s *Server) SigningKey() ed25519.PublicKey { return s.signingPub }

// Announce draws the server's onion key pair for a round and returns the
// private key, which the caller holds until it opens the round with it
// (RoundSpec.Key) or erases it, and the signed announcement of the public
// key.
func (s *Server) Announce(service wire.Service, round uint32) (*onionbox.PrivateKey, wire.MixerRoundKey, error) {
	s.mu.Lock()
	pub, priv, err := onionbox.GenerateKey(s.randSrc)
	s.mu.Unlock()
	if err != nil {
		return nil, wire.MixerRoundKey{}, err
	}
	kb := pub.Bytes()
	return priv, wire.MixerRoundKey{
		OnionKey: kb,
		Sig:      ed25519.Sign(s.signingPriv, wire.MixerKeyMessage(service, round, kb)),
	}, nil
}

// ShardIdentity returns the daemon's pinned (index, count) shard identity;
// count 0 means unpinned.
func (s *Server) ShardIdentity() (int, int) { return s.shardIndex, s.shardCount }

// Spare reports whether this daemon is a hot spare (Config.Spare).
func (s *Server) Spare() bool { return s.spare }

// keyExchange refuses a round key's export or import outside a pinned
// shard group or a hot spare. A shard group is ONE logical mixnet server
// split across machines: clients wrap one onion layer per position, so
// every shard must peel with the announcer's key. On any other daemon an
// export surface would hand any peer the means to peel this position's
// layer and collapse the anytrust argument, and an import surface would
// let any peer rotate a round key out from under the announced settings.
// Deployments must also keep the surface inside the group's network, and
// the rpc layer gates the export per round to the coordinator's peer
// allowlist.
func (s *Server) keyExchange() error {
	if s.shardCount <= 0 && !s.spare {
		return errors.New("mixnet: round keys are only exchanged inside a pinned shard group (-shard i/N or -spare)")
	}
	return nil
}

// ExportKey returns the bytes of a round key this server announced, for
// the other members of its shard group to open the round with
// (RoundSpec.Import); keyExchange says where it is refused.
func (s *Server) ExportKey(key *onionbox.PrivateKey) ([]byte, error) {
	if err := s.keyExchange(); err != nil {
		return nil, err
	}
	return key.Bytes(), nil
}

// RoundSpec is everything a server takes part in one round with, handed
// to Open at once.
type RoundSpec struct {
	Service wire.Service
	Round   uint32
	// ShardIndex and ShardCount place the server in its position's shard
	// group for the round; a position served by one server is a group of
	// one (0, 1). The group divides the position's noise.
	ShardIndex, ShardCount int
	// Downstream holds the round onion keys of the positions after this
	// one, which wrap the server's noise; none at the last position.
	Downstream   [][]byte
	NumMailboxes uint32
	// Key is the round key this server announced (Announce). Import,
	// when set, is used instead: the bytes of the key the group's
	// announcer exported (ExportKey). Open zeroes Import's bytes,
	// whatever its outcome: over rpc they are the frame buffer the key
	// arrived in.
	Key    *onionbox.PrivateKey
	Import []byte
}

// Open starts the server's part in a round: it checks the whole spec, then
// takes the round key, draws the round's noise seed and starts generating
// the noise in the background, so the noise is ready by the time intake
// ends. A refused Open changes nothing and keeps no key. The Round owns
// the key from then on and erases it at Close.
func (s *Server) Open(spec RoundSpec) (*Round, error) {
	defer clear(spec.Import)
	r := &Round{s: s, service: spec.Service, round: spec.Round, priv: spec.Key}
	switch {
	case spec.ShardCount < 1 || spec.ShardIndex < 0 || spec.ShardIndex >= spec.ShardCount:
		return nil, r.errorf("invalid shard layout %d/%d", spec.ShardIndex, spec.ShardCount)
	case s.shardCount > 0 && (spec.ShardIndex != s.shardIndex || spec.ShardCount != s.shardCount):
		return nil, r.errorf("shard layout %d/%d conflicts with this daemon's pinned identity %d/%d",
			spec.ShardIndex, spec.ShardCount, s.shardIndex, s.shardCount)
	case len(spec.Downstream) != s.ChainLength-s.Position-1:
		return nil, r.errorf("expected %d downstream keys, got %d", s.ChainLength-s.Position-1, len(spec.Downstream))
	}
	downstream := make([]*onionbox.PublicKey, len(spec.Downstream))
	for i, kb := range spec.Downstream {
		pk, err := onionbox.UnmarshalPublicKey(kb)
		if err != nil {
			return nil, r.errorf("downstream key %d: %v", i, err)
		}
		downstream[i] = pk
	}
	if spec.Import != nil {
		if err := s.keyExchange(); err != nil {
			return nil, err
		}
		var err error
		if r.priv, err = onionbox.UnmarshalPrivateKey(spec.Import); err != nil {
			return nil, r.errorf("importing round key: %v", err)
		}
	}
	if r.priv == nil {
		return nil, r.errorf("no round key")
	}
	s.mu.Lock()
	_, err := io.ReadFull(s.randSrc, r.noiseSeed[:])
	s.mu.Unlock()
	if err != nil {
		if spec.Import != nil {
			r.priv.Erase()
		}
		return nil, err
	}
	r.sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	r.noiseDone = make(chan struct{})
	// The generating goroutine gets its own copy of the seed and zeroes it
	// when done; Close zeroes the round's.
	seed := r.noiseSeed
	go func() {
		r.noise, r.noiseErr = s.generateNoise(&seed, spec.Service, spec.Round, spec.NumMailboxes, downstream, spec.ShardCount)
		close(r.noiseDone)
	}()
	return r, nil
}

// decryptChunkSize is the number of onions a worker claims at a time.
// Large enough to amortize scheduling, small enough to load-balance.
const decryptChunkSize = 64

// parallelFor runs fn(0), …, fn(n-1) across up to workers goroutines,
// each claiming the next index from a shared counter, and returns the
// first error. workers <= 1 (or n <= 1) runs inline. A worker stops at
// the first error it sees; others finish their current index.
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// concat joins the parts into one batch, in order.
func concat(parts [][][]byte) [][]byte {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([][]byte, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// generateNoise creates the server's fake requests for a round: for every
// real mailbox, a Laplace-distributed number of plausible request bodies.
// Fake add-friend requests are random IBE-ciphertext-shaped blobs (a random
// compressed G1 point where the element U sits, plus random AEAD bytes —
// indistinguishable from real ciphertexts by ciphertext anonymity, §4.3;
// ibe.RandomCiphertexts); fake dial requests are random tokens.
// Mailboxes are sharded across GOMAXPROCS workers: each noise onion costs
// two fixed-base X25519 walks per downstream hop (onionbox.Sealer: the
// shared base table and the hop key's table, eight onions a walk on the
// lane comb where the CPU has AVX-512 IFMA), which dominates round setup
// otherwise. Mailbox mb reads one keyed stream of the round's seed — its
// count, then its bodies, then its onions' ephemeral scalars — so its
// noise does not depend on which worker makes it or when. A mailbox's
// onions are wrapped layer by layer as one onionbox.OnionBatch, which
// reads the stream exactly as a WrapOnion call per body would. The seed is
// zeroed before generateNoise returns.
//
// When the server is one of `shards` machines jointly serving its chain
// position, each shard samples a distribution with mean ceil(µ/shards)
// and the position's FULL scale b. Dividing only the MEAN keeps the
// guarantee intact: ceil rounding means the union's expected noise can
// only meet or exceed the unsharded µ, and because every shard's draw
// retains scale b, the mailbox counts an adversary observes still carry
// at least one full-scale Laplace perturbation — the ε = s/b analysis of
// §6 is unchanged. (Dividing the sampled COUNT instead would shrink the
// effective scale to ~b/N and multiply the privacy loss by N.)
func (s *Server) generateNoise(seed *[32]byte, service wire.Service, round, numMailboxes uint32, downstream []*onionbox.PublicKey, shards int) ([][]byte, error) {
	defer func() { *seed = [32]byte{} }()
	dist := s.AddFriendNoise
	if service == wire.Dialing {
		dist = s.DialingNoise
	}
	if shards > 1 {
		dist.Mu = math.Ceil(dist.Mu / float64(shards))
	}
	// One Sealer per downstream key for the whole round: every noise onion
	// of every mailbox is sealed to the same few round keys, so each key
	// gets one fixed-base table if the round's expected noise repays it.
	// The tables are functions of public keys and go when this call returns.
	sealers := make([]*onionbox.Sealer, len(downstream))
	for i, key := range downstream {
		sealers[i] = onionbox.NewSealer(key, int(float64(numMailboxes)*dist.Mu))
	}
	perMB := make([][][]byte, numMailboxes)
	err := parallelFor(int(numMailboxes), runtime.GOMAXPROCS(0), func(mb int) error {
		rnd := keyedStream(noiseLabel, seed[:], service, round, uint32(mb))
		n, err := dist.Sample(rnd)
		if err != nil {
			return err
		}
		bodies, err := noiseBodies(rnd, service, n)
		if err != nil {
			return err
		}
		batch := onionbox.NewOnionBatch(sealers)
		for _, body := range bodies {
			payload := (&wire.MixPayload{Mailbox: uint32(mb), Body: body}).Marshal()
			if err := batch.Add(rnd, payload); err != nil {
				return err
			}
		}
		perMB[mb], err = batch.Wrap()
		return err
	})
	if err != nil {
		return nil, err
	}
	var msgs [][]byte
	for _, m := range perMB {
		msgs = append(msgs, m...)
	}
	return msgs, nil
}

// noiseBodies generates one mailbox's worth of noise bodies from rnd.
// Add-friend blobs are produced by the batched IBE noise generator — the
// comb-table scalar multiplications share one affine-conversion inversion
// across the mailbox — consuming randomness in exactly the order of n
// sequential RandomCiphertext calls.
func noiseBodies(rnd io.Reader, service wire.Service, n int) ([][]byte, error) {
	switch service {
	case wire.AddFriend:
		return ibe.RandomCiphertexts(rnd, wire.FriendRequestSize, n)
	case wire.Dialing:
		bodies := make([][]byte, n)
		for i := range bodies {
			tok := make([]byte, keywheel.TokenSize)
			if _, err := io.ReadFull(rnd, tok); err != nil {
				return nil, err
			}
			bodies[i] = tok
		}
		return bodies, nil
	default:
		return nil, fmt.Errorf("mixnet: unknown service %v", service)
	}
}

// Stats returns cumulative counts of (client messages processed, noise
// messages generated).
func (s *Server) Stats() (processed, noiseSent uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.processed, s.noiseSent
}

// count adds one finished batch to the stats.
func (s *Server) count(processed, noiseSent int) {
	s.mu.Lock()
	s.processed += uint64(processed)
	s.noiseSent += uint64(noiseSent)
	s.mu.Unlock()
}

// NoiseMu returns the server's mean per-mailbox noise for a service; the
// coordinator uses it to size mailbox counts.
func (s *Server) NoiseMu(service wire.Service) float64 {
	if service == wire.Dialing {
		return s.DialingNoise.Mu
	}
	return s.AddFriendNoise.Mu
}
