package mixnet

import (
	"fmt"
	"runtime"
	"sync"

	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// This file implements chunked streaming intake: a server starts peeling
// onions as soon as the first chunk of a round's batch arrives, instead of
// waiting for the full batch. Combined across the chain, server i+1
// decrypts chunks while server i is still emitting its shuffled output.
//
// Privacy is unchanged: nothing leaves the position until its intake has
// ended, its noise is appended and MergeShuffle has permuted
// the complete batch. Chunked intake only moves WHEN the decryption work
// happens, never what an observer can see.

// stream is the in-flight chunked intake of one round's batch.
type stream struct {
	// noise is the round's noise for the stream's mailbox count.
	noise *noiseBatch
	// sem bounds the number of chunk-decryption goroutines.
	sem chan struct{}
	wg  sync.WaitGroup

	mu      sync.Mutex
	results [][][]byte // peeled messages per chunk, in arrival order
	inputs  int        // onions fed in, including ones that fail to open
}

// StreamBegin starts chunked intake for a round. It also kicks off
// background noise generation for numMailboxes (PrepareNoise) so the noise
// is ready by StreamEndShard. Exactly one stream may be in flight per
// round.
func (s *Server) StreamBegin(service wire.Service, round uint32, numMailboxes uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.openState(service, round)
	if err != nil {
		return err
	}
	if st.stream != nil {
		return fmt.Errorf("mixnet: round %d (%s): stream already in progress", round, service)
	}
	nb, err := s.prepareNoiseLocked(st, service, round, numMailboxes)
	if err != nil {
		return err
	}
	st.stream = &stream{noise: nb, sem: make(chan struct{}, runtime.GOMAXPROCS(0))}
	return nil
}

// StreamChunk feeds one chunk of the round's batch; decryption starts
// immediately on a pool worker and opens the chunk's onions into one
// buffer (onionbox.OpenBatch), in chunk order. The server keeps chunk until it is peeled but never writes to
// it. Chunk arrival order defines pre-shuffle message order, as if the
// chunks were one concatenated batch.
func (s *Server) StreamChunk(service wire.Service, round uint32, chunk [][]byte) error {
	s.mu.Lock()
	st, err := s.openState(service, round)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	sm := st.stream
	if sm == nil {
		s.mu.Unlock()
		return fmt.Errorf("mixnet: round %d (%s): no stream in progress", round, service)
	}
	priv := st.priv
	// Register with the stream and the round before releasing s.mu:
	// StreamEndShard detaches the stream and CloseRound closes the round
	// under the same mutex, so once we get here the wg.Wait of each is
	// guaranteed to cover this chunk.
	sm.wg.Add(1)
	st.peels.Add(1)
	s.mu.Unlock()

	sm.mu.Lock()
	seq := len(sm.results)
	sm.results = append(sm.results, nil)
	sm.inputs += len(chunk)
	sm.mu.Unlock()

	go func() {
		defer sm.wg.Done()
		defer st.peels.Done()
		sm.sem <- struct{}{}
		defer func() { <-sm.sem }()
		// Malformed or replayed onions drop out silently: clients that
		// misbehave only hurt themselves. A round already closing (an
		// aborted stream's chunk) peels nothing.
		var out [][]byte
		if !st.closing.Load() {
			out = onionbox.OpenBatch(priv, chunk)
		}
		sm.mu.Lock()
		sm.results[seq] = out
		sm.mu.Unlock()
	}()
	return nil
}

// StreamAbort discards an in-flight stream without waiting for its peels
// and noise as StreamEndShard does: the daemon calls it when the round
// has already failed elsewhere and the output would be thrown away.
// Aborting when no stream is in flight is a no-op; the round itself stays
// open (CloseRound erases it).
func (s *Server) StreamAbort(service wire.Service, round uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if ok {
		st.stream = nil
	}
	return nil
}

// StreamEndShard closes intake, waits for in-flight decryption, and
// returns this shard's peeled slice of the position's batch plus its noise
// share, in intake order, WITHOUT the shuffle. The output is only ever
// handed to the shard group's merge server, which concatenates every
// shard's slice and applies the position's single full-batch permutation
// (MergeShuffle) — nothing leaves the position's trust domain unshuffled,
// and no output exists before every input chunk has been processed. A
// group of one merges its one slice the same way, which yields exactly
// what the tests' full-batch reference mixer does for the concatenated
// batch.
func (s *Server) StreamEndShard(service wire.Service, round uint32) ([][]byte, error) {
	s.mu.Lock()
	st, err := s.openState(service, round)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	sm := st.stream
	if sm == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("mixnet: round %d (%s): no stream in progress", round, service)
	}
	st.stream = nil
	s.mu.Unlock()

	sm.wg.Wait()
	return s.finishBatch(sm.noise, sm.inputs, concat(sm.results))
}
