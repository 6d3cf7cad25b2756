package mixnet

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// A Round is one server's part in one round, from Open to Close: it owns
// the round onion key, the noise seed and the noise being made from it,
// and the round's one chunked intake. A server starts peeling onions as
// soon as the first chunk of the batch arrives (Chunk), instead of waiting
// for the full batch; across the chain, server i+1 decrypts chunks while
// server i is still emitting its output.
//
// Privacy is unchanged: nothing leaves the position until its intake has
// ended (EndShard), its noise is appended and Merge has permuted the
// complete batch. Chunked intake only moves WHEN the decryption work
// happens, never what an observer can see.
type Round struct {
	s       *Server
	service wire.Service
	round   uint32
	priv    *onionbox.PrivateKey

	// noiseSeed keys every mailbox's noise stream; Close zeroes it. The
	// noise made from it is ready when noiseDone is closed.
	noiseSeed [32]byte
	noiseDone chan struct{}
	noise     [][]byte
	noiseErr  error

	// sem bounds the number of chunk-decryption goroutines.
	sem chan struct{}
	// peels counts the chunks that may still open onions with priv;
	// EndShard and Close wait for them. skip, set by Abort and Close,
	// tells a chunk that has not started peeling to skip it.
	peels sync.WaitGroup
	skip  atomic.Bool

	mu      sync.Mutex
	results []peeled // the chunks, in arrival order
	inputs  int      // onions fed in, including ones that fail to open
	ended   bool     // intake ended: EndShard, Abort or Close
	closed  bool
}

// peeled is one chunk's opened messages and the slot of the writer that
// fed it.
type peeled struct {
	slot int
	msgs [][]byte
}

func (r *Round) errorf(format string, args ...any) error {
	return fmt.Errorf("mixnet: round %d (%s): "+format, append([]any{r.round, r.service}, args...)...)
}

// Chunk feeds one chunk of the round's batch from the writer in slot;
// decryption starts at once on a pool worker and opens the chunk's onions
// into one buffer (onionbox.OpenBatch). The round keeps chunk until it is
// peeled but never writes to it. The slots order the pre-shuffle batch,
// and each slot's chunks follow in arrival order, as if every writer's
// chunks were one batch and the writers' batches were concatenated in
// slot order; so writers may feed at once. Malformed or replayed onions
// drop out silently: clients that misbehave only hurt themselves.
func (r *Round) Chunk(slot int, chunk [][]byte) error {
	r.mu.Lock()
	if r.ended {
		r.mu.Unlock()
		return r.errorf("intake has ended")
	}
	// Registered under r.mu, which EndShard and Close take to end the
	// intake, so the wait of each covers this chunk.
	r.peels.Add(1)
	seq := len(r.results)
	r.results = append(r.results, peeled{slot: slot})
	r.inputs += len(chunk)
	r.mu.Unlock()

	go func() {
		defer r.peels.Done()
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		var out [][]byte
		if !r.skip.Load() {
			out = onionbox.OpenBatch(r.priv, chunk)
		}
		r.mu.Lock()
		r.results[seq].msgs = out
		r.mu.Unlock()
	}()
	return nil
}

// EndShard ends intake, waits for the chunks' peels and the noise, and
// returns this shard's peeled slice of the position's batch plus its noise
// share, in intake order (by slot, then by arrival), WITHOUT the shuffle.
// The output is only ever handed to the shard group's merge server, which
// concatenates every shard's slice and applies the position's single
// full-batch permutation (Merge) — nothing leaves the position's trust
// domain unshuffled, and no output exists before every input chunk has
// been processed. A group of one merges its one slice the same way, which
// yields exactly what the tests' full-batch reference mixer does for the
// concatenated batch.
func (r *Round) EndShard() ([][]byte, error) {
	r.mu.Lock()
	if r.ended {
		r.mu.Unlock()
		return nil, r.errorf("intake has ended")
	}
	r.ended = true
	r.mu.Unlock()
	r.peels.Wait()
	if r.skip.Load() {
		return nil, r.errorf("aborted")
	}
	<-r.noiseDone
	if r.noiseErr != nil {
		return nil, r.noiseErr
	}
	r.s.count(r.inputs, len(r.noise))
	slices.SortStableFunc(r.results, func(a, b peeled) int { return cmp.Compare(a.slot, b.slot) })
	parts := make([][][]byte, 0, len(r.results)+1)
	for _, p := range r.results {
		parts = append(parts, p.msgs)
	}
	return concat(append(parts, r.noise)), nil
}

// Abort ends intake without waiting for its peels or its noise, as
// EndShard does: the daemon calls it when the round has already failed
// elsewhere and the output would be thrown away. Chunks that have not
// started skip their peel, and an EndShard waiting for them fails. The
// key stays until Close.
func (r *Round) Abort() {
	r.mu.Lock()
	r.ended = true
	r.mu.Unlock()
	r.skip.Store(true)
}

// Merge is the shard group's barrier: it concatenates the group's peeled
// outputs in shard-index order and applies ONE permutation over the whole
// position's batch, derived from the round private key every member holds
// (permutationReader). It runs on whichever member hosts the group's
// merge role this round, triggered by whichever shard's output arrives
// last; the result is exactly what an unsharded server would emit — the
// position's permutation covers the full batch, so splitting the peel
// across machines never weakens the anytrust mixing argument, and because
// the permutation is key-derived, rotating the merge role across the group
// never changes the round's output.
func (r *Round) Merge(parts [][][]byte) ([][]byte, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, r.errorf("closed")
	}
	// Derived under r.mu: Close erases the key it reads.
	prnd := permutationReader(r.priv, r.service, r.round)
	r.mu.Unlock()
	out := concat(parts)
	if err := shuffle(prnd, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Close erases the round's onion private key (forward secrecy: the
// recorded ciphertexts of a closed round can never be decrypted again),
// its noise seed, and the server's memory of its permutation (which was
// never stored). The coordinator closes a round this way after it
// completes, after a failed open and after an abort. A chunk of an aborted
// round may still be peeling with the key, so Close waits for the round's
// chunks before it zeroes the scalar; chunks that have not started skip
// their peel. Closing twice is a no-op.
func (r *Round) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed, r.ended = true, true
	r.noiseSeed = [32]byte{}
	r.mu.Unlock()
	r.skip.Store(true)
	r.peels.Wait()
	r.priv.Erase()
}
