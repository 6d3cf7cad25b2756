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
// Round execution is parallel and pipelined: onion decryption fans out
// over a worker pool, per-round noise is generated in the background while
// clients are still submitting (PrepareNoise), and batches can be fed in
// chunks (StreamBegin/StreamChunk/StreamEndShard) so a server starts peeling
// while the upstream server is still emitting. The shuffle remains a
// strict per-server barrier: output order is only decided once the whole
// batch is present, which is what the anytrust unlinkability argument
// needs.
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
//     and announces it; the other shards install the same key
//     (ExportRoundKey/ImportRoundKey — group-internal traffic only,
//     gated per round to a coordinator-distributed peer allowlist).
//     Clients wrap exactly one onion layer for the position, sharded or
//     not. Hot-spare daemons (Config.Spare) are drafted into a benched
//     member's slot the same way: they import the round key and take the
//     slot's shard index for exactly that round.
//
//   - Divided noise, preserved scale. Each shard draws per-mailbox
//     noise from Laplace(ceil(µ/N), b) — the position's MEAN divided,
//     its scale b intact (SetRoundShard fixes N before any noise
//     exists). Ceil rounding means the group's union can only meet or
//     exceed the unsharded µ, and full-scale draws keep §6's ε = s/b
//     analysis unchanged; dividing sampled counts instead would shrink
//     the effective scale and erode the guarantee.
//
//   - One full-batch shuffle, at the merge. Shards peel their slices
//     WITHOUT shuffling (StreamEndShard) and hand them to the member
//     hosting the group's MERGE ROLE this round, where the slice that
//     arrives last completes the merge: MergeShuffle concatenates the
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
//     together at CloseRound.
//
// A shard group is one trust domain (it shares the round private key);
// peeled-but-unshuffled slices travel only inside it. A position with a
// single shard is a group of one: no key leaves it and no slice travels.
//
// # Randomness
//
// A server reads Config.Rand for three things only: its long-term signing
// key (New), each round's onion key (NewRound) and each round's 32-byte
// NOISE SEED, drawn when the round's noise is first prepared. Every other
// random byte a round uses comes from a keyed stream (keyedStream): the
// permutation's is keyed by the round onion key, and mailbox j's noise —
// its Laplace count, then its bodies, then its onions' ephemeral scalars —
// by the seed and j. Mailbox j's noise is therefore a function of (seed,
// j) alone, whichever worker makes it, and a server on a seeded source
// runs the production program at any GOMAXPROCS.
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
// onions for mailbox j. CloseRound zeroes the seed, after a completed
// round and after an abort alike.
//
// This package is transport-agnostic: the chunked surface is driven by
// daemons forwarding chunks directly to their successors (internal/rpc's
// data plane, which also routes the shard-group deal/merge). The tests
// hold it to a full-batch reference mixer that lives in this package's
// _test.go files. Because chunk arrival order defines pre-shuffle order
// and a round's randomness is a function of the server's draws from
// Config.Rand, the routed plane at one shard per position and that
// reference produce byte-identical mailboxes under a fixed seed.
// Across shard COUNTS the guarantee is
// set-level, not order-level — the deal legitimately reorders the
// pre-shuffle batch and every member draws its own noise seed — so
// byte-identity across 1/2/3-shard chains holds for order-independent
// mailbox encodings (dialing's Bloom filters) with noise silenced, which
// is exactly what the cross-shard-count determinism test pins; add-friend
// mailboxes (order-sensitive concatenations) keep only the set guarantee.
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

type roundKey struct {
	service wire.Service
	round   uint32
}

type roundState struct {
	priv *onionbox.PrivateKey
	pub  *onionbox.PublicKey
	// downstream holds the onion keys of the servers after this one in
	// the chain, used to wrap this server's noise messages. nil until
	// SetDownstreamKeys (empty, non-nil for the last server).
	downstream []*onionbox.PublicKey
	// noiseSeed keys every mailbox's noise stream for the round. It is
	// drawn from Config.Rand when the round's noise is first prepared and
	// zeroed by CloseRound.
	noiseSeed *[32]byte
	// noise is the round's background-generated noise for the mailbox
	// count last asked for; StreamBegin hands it to the stream.
	noise *noiseBatch
	// stream is the in-progress chunked intake, if any.
	stream *stream
	// shardIndex/shardCount place this server inside the round's shard
	// group for its chain position (SetRoundShard). shardCount 0 means
	// the position is unsharded (equivalent to a group of one).
	shardIndex int
	shardCount int
	closed     bool
	// peels counts the StreamChunk goroutines that may still open onions
	// with priv, aborted streams' included; CloseRound waits for them
	// before it erases the key. closing, set by CloseRound before that
	// wait, tells a chunk that has not started peeling to skip it.
	peels   sync.WaitGroup
	closing atomic.Bool
}

// effectiveShards returns the round's shard-group size, treating the unset
// state as a group of one.
func (st *roundState) effectiveShards() int {
	if st.shardCount <= 0 {
		return 1
	}
	return st.shardCount
}

// noiseBatch is a future for one round's noise messages, generated
// concurrently with client intake so the mix never waits on it.
type noiseBatch struct {
	numMailboxes uint32
	done         chan struct{} // closed when msgs/err are set
	msgs         [][]byte
	err          error
}

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

	mu     sync.Mutex
	rounds map[roundKey]*roundState

	// stats
	processed uint64
	noiseSent uint64
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
	// the coordinator announces. When pinned, SetRoundShard rejects a
	// conflicting layout — a misconfigured coordinator cannot silently
	// make one machine double as two shards.
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
		rounds:         make(map[roundKey]*roundState),
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

// NewRound generates the server's per-round onion key pair and returns the
// signed announcement. Idempotent while the round is open.
func (s *Server) NewRound(service wire.Service, round uint32) (wire.MixerRoundKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := roundKey{service, round}
	st, ok := s.rounds[k]
	if ok && st.closed {
		return wire.MixerRoundKey{}, fmt.Errorf("mixnet: round %d (%s) closed", round, service)
	}
	if !ok {
		pub, priv, err := onionbox.GenerateKey(s.randSrc)
		if err != nil {
			return wire.MixerRoundKey{}, err
		}
		st = &roundState{priv: priv, pub: pub}
		s.rounds[k] = st
	}
	kb := st.pub.Bytes()
	return wire.MixerRoundKey{
		OnionKey: kb,
		Sig:      ed25519.Sign(s.signingPriv, wire.MixerKeyMessage(service, round, kb)),
	}, nil
}

// ShardIdentity returns the daemon's pinned (index, count) shard identity;
// count 0 means unpinned.
func (s *Server) ShardIdentity() (int, int) { return s.shardIndex, s.shardCount }

// Spare reports whether this daemon is a hot spare (Config.Spare).
func (s *Server) Spare() bool { return s.spare }

// SetRoundShard places this server in a shard group for the round: it is
// shard index of count servers jointly serving one chain position. It must
// be called before the round's noise is prepared — the group divides the
// position's noise, so a layout change after generation would break the
// per-mailbox distribution invariant. A server pinned with Config.ShardCount
// rejects a conflicting layout.
func (s *Server) SetRoundShard(service wire.Service, round uint32, index, count int) error {
	if count <= 0 || index < 0 || index >= count {
		return fmt.Errorf("mixnet: invalid shard layout %d/%d", index, count)
	}
	if s.shardCount > 0 && (index != s.shardIndex || count != s.shardCount) {
		return fmt.Errorf("mixnet: shard layout %d/%d conflicts with this daemon's pinned identity %d/%d",
			index, count, s.shardIndex, s.shardCount)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.openState(service, round)
	if err != nil {
		return err
	}
	if st.shardCount > 0 && (st.shardIndex != index || st.shardCount != count) {
		return fmt.Errorf("mixnet: round %d (%s) already sharded as %d/%d", round, service, st.shardIndex, st.shardCount)
	}
	if st.noise != nil {
		return fmt.Errorf("mixnet: round %d (%s): shard layout set after noise generation", round, service)
	}
	st.shardIndex, st.shardCount = index, count
	return nil
}

// RoundShard reports the round's shard layout (index, count); (0, 1) for
// an unsharded round.
func (s *Server) RoundShard(service wire.Service, round uint32) (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok {
		return 0, 1
	}
	return st.shardIndex, st.effectiveShards()
}

// ExportRoundKey returns the round's onion private key so the other shards
// of this position can install it (ImportRoundKey). A shard group is ONE
// logical mixnet server split across machines: clients wrap one onion
// layer per position, so every shard must peel with the same key.
//
// Only a server PINNED as a shard-group member (Config.ShardCount > 0) or
// marked as a hot spare (Config.Spare) serves the export: on any other
// daemon a reachable export surface would hand any peer the means to peel
// this position's layer and collapse the anytrust argument. Deployments
// must additionally keep the surface inside the group's network — exactly
// like the cdn.publish write surface stays off the client plane — and the
// rpc layer gates it per round to the coordinator-distributed peer
// allowlist.
func (s *Server) ExportRoundKey(service wire.Service, round uint32) ([]byte, error) {
	if s.shardCount <= 0 && !s.spare {
		return nil, errors.New("mixnet: round keys are only exportable inside a pinned shard group (-shard i/N or -spare)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.openState(service, round)
	if err != nil {
		return nil, err
	}
	return st.priv.Bytes(), nil
}

// ImportRoundKey installs a round onion key exported by the shard group's
// key holder, creating the round if this server has not opened it yet.
// Importing the same key again is a no-op; a conflicting key is an error.
// Like the export, it is refused outside a pinned shard group or a hot
// spare: an open import surface would let any peer rotate a round key out
// from under the announced settings. It zeroes privBytes before it
// returns, whatever the outcome: the server keeps its own copy, and over
// rpc the bytes are the frame buffer the key arrived in.
func (s *Server) ImportRoundKey(service wire.Service, round uint32, privBytes []byte) error {
	defer clear(privBytes)
	if s.shardCount <= 0 && !s.spare {
		return errors.New("mixnet: round keys are only importable inside a pinned shard group (-shard i/N or -spare)")
	}
	priv, err := onionbox.UnmarshalPrivateKey(privBytes)
	if err != nil {
		return fmt.Errorf("mixnet: importing round key: %w", err)
	}
	pub := priv.Public()
	s.mu.Lock()
	defer s.mu.Unlock()
	k := roundKey{service, round}
	st, ok := s.rounds[k]
	if ok && st.closed {
		priv.Erase()
		return fmt.Errorf("mixnet: round %d (%s) closed", round, service)
	}
	if !ok {
		s.rounds[k] = &roundState{priv: priv, pub: pub}
		return nil
	}
	if string(st.pub.Bytes()) == string(pub.Bytes()) {
		priv.Erase()
		return nil
	}
	if st.noise != nil || st.stream != nil {
		priv.Erase()
		return fmt.Errorf("mixnet: round %d (%s): key import after round started", round, service)
	}
	// No stream has begun, so no chunk holds the key being replaced.
	st.priv.Erase()
	st.priv, st.pub = priv, pub
	return nil
}

// SetDownstreamKeys tells the server the round onion keys of the servers
// AFTER it in the chain, which it needs to wrap its own noise messages.
// The coordinator distributes these once all servers have announced keys.
func (s *Server) SetDownstreamKeys(service wire.Service, round uint32, keys [][]byte) error {
	if len(keys) != s.ChainLength-s.Position-1 {
		return fmt.Errorf("mixnet: expected %d downstream keys, got %d",
			s.ChainLength-s.Position-1, len(keys))
	}
	parsed := make([]*onionbox.PublicKey, len(keys))
	for i, kb := range keys {
		pk, err := onionbox.UnmarshalPublicKey(kb)
		if err != nil {
			return fmt.Errorf("mixnet: downstream key %d: %w", i, err)
		}
		parsed[i] = pk
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok || st.closed {
		return fmt.Errorf("mixnet: round %d (%s) not open", round, service)
	}
	st.downstream = parsed
	return nil
}

// CloseRound erases the round's onion private key (forward secrecy: the
// recorded ciphertexts of a closed round can never be decrypted again),
// its noise seed, and the server's memory of its permutation (which was
// never stored). The coordinator closes a round this way after it
// completes, after a failed open and after an abort. A chunk of an aborted
// stream may still be peeling with the key, so CloseRound waits for the
// round's chunks before it zeroes the scalar; chunks that have not started
// skip their peel.
func (s *Server) CloseRound(service wire.Service, round uint32) {
	s.mu.Lock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok || st.closed {
		s.mu.Unlock()
		return
	}
	priv := st.priv
	st.priv = nil
	if st.noiseSeed != nil {
		*st.noiseSeed = [32]byte{}
	}
	st.noise = nil
	st.stream = nil
	st.closed = true
	st.closing.Store(true)
	s.mu.Unlock()
	st.peels.Wait()
	priv.Erase()
}

// RoundOpen reports whether the round key still exists.
func (s *Server) RoundOpen(service wire.Service, round uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	return ok && !st.closed
}

// openState returns the live state for an open round.
func (s *Server) openState(service wire.Service, round uint32) (*roundState, error) {
	st, ok := s.rounds[roundKey{service, round}]
	if !ok || st.closed {
		return nil, fmt.Errorf("mixnet: round %d (%s) not open", round, service)
	}
	return st, nil
}

// PrepareNoise starts generating the round's noise messages in the
// background, so they are ready by the time the batch arrives and
// StreamEndShard never blocks on noise. It must be called after
// SetDownstreamKeys and is idempotent for a given mailbox count; a call
// with another count replaces the batch, from the same seed.
func (s *Server) PrepareNoise(service wire.Service, round uint32, numMailboxes uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.openState(service, round)
	if err != nil {
		return err
	}
	_, err = s.prepareNoiseLocked(st, service, round, numMailboxes)
	return err
}

// prepareNoiseLocked returns the round's noise batch for numMailboxes,
// starting one if the round has none for that count. The round's first
// call draws its noise seed, under s.mu as every read of Config.Rand is;
// the generating goroutine gets its own copy and zeroes it when done.
// Callers hold s.mu.
func (s *Server) prepareNoiseLocked(st *roundState, service wire.Service, round, numMailboxes uint32) (*noiseBatch, error) {
	if st.downstream == nil && s.ChainLength-s.Position-1 > 0 {
		return nil, fmt.Errorf("mixnet: round %d (%s): downstream keys not set", round, service)
	}
	if st.noise != nil && st.noise.numMailboxes == numMailboxes {
		return st.noise, nil
	}
	if st.noiseSeed == nil {
		seed := new([32]byte)
		if _, err := io.ReadFull(s.randSrc, seed[:]); err != nil {
			return nil, err
		}
		st.noiseSeed = seed
	}
	seed := *st.noiseSeed
	nb := &noiseBatch{numMailboxes: numMailboxes, done: make(chan struct{})}
	st.noise = nb
	downstream, shards := st.downstream, st.effectiveShards()
	go func() {
		nb.msgs, nb.err = s.generateNoise(&seed, service, round, numMailboxes, downstream, shards)
		close(nb.done)
	}()
	return nb, nil
}

// finishBatch appends the round's prepared noise to the peeled messages
// and updates stats. The output is unshuffled: the position's one
// permutation is MergeShuffle's.
func (s *Server) finishBatch(nb *noiseBatch, batchLen int, out [][]byte) ([][]byte, error) {
	<-nb.done
	if nb.err != nil {
		return nil, nb.err
	}
	out = append(out, nb.msgs...)

	s.mu.Lock()
	s.processed += uint64(batchLen)
	s.noiseSent += uint64(len(nb.msgs))
	s.mu.Unlock()
	return out, nil
}

// MergeShuffle is the shard group's barrier: it concatenates the group's
// peeled outputs in shard-index order and applies ONE permutation over
// the whole position's batch, derived from the round private key every
// member holds (permutationReader). It runs on whichever member hosts the
// group's merge role this round, triggered by whichever shard's output
// arrives last; the result is exactly what an unsharded server would emit
// — the position's permutation covers the full batch, so splitting the
// peel across machines never weakens the anytrust mixing argument, and
// because the permutation is key-derived, rotating the merge role across
// the group never changes the round's output.
func (s *Server) MergeShuffle(service wire.Service, round uint32, parts [][][]byte) ([][]byte, error) {
	s.mu.Lock()
	st, err := s.openState(service, round)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Derived under the lock: CloseRound erases the key it reads.
	prnd := permutationReader(st.priv, service, round)
	s.mu.Unlock()
	out := concat(parts)
	if err := shuffle(prnd, out); err != nil {
		return nil, err
	}
	return out, nil
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
// G2 point plus random AEAD bytes — indistinguishable from real ciphertexts
// by ciphertext anonymity, §4.3); fake dial requests are random tokens.
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

// NoiseMu returns the server's mean per-mailbox noise for a service; the
// coordinator uses it to size mailbox counts.
func (s *Server) NoiseMu(service wire.Service) float64 {
	if service == wire.Dialing {
		return s.DialingNoise.Mu
	}
	return s.AddFriendNoise.Mu
}
