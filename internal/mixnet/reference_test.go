package mixnet

import (
	"fmt"
	"runtime"

	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// This file is the full-batch REFERENCE mixer the data plane is tested
// against. No daemon runs it: a daemon peels through Round.Chunk and
// Round.EndShard and permutes in Round.Merge. The reference keeps its own
// batch peel and its own shuffle call, so a test that compares the two is
// not comparing a path with itself. Tests in package mixnet_test see it
// through this file too.

// Mix peels one onion layer from every message in the batch, drops
// malformed messages, adds the round's noise, and shuffles. The returned
// batch is what the next server in the chain (or the mailbox build, at the
// last server) consumes.
//
// Decryption fans out over GOMAXPROCS workers but preserves batch order
// until the shuffle, so the output is a uniformly random permutation of
// exactly the messages a peel on one worker would produce. The noise is
// the one Open started for the round, so noise is made one way. Fully
// processed messages at the last server are MixPayload encodings.
func (r *Round) Mix(batch [][]byte) ([][]byte, error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return nil, r.errorf("closed")
	}
	out := decryptBatch(r.priv, batch)
	<-r.noiseDone
	if r.noiseErr != nil {
		return nil, r.noiseErr
	}
	out = append(out, r.noise...)
	r.s.count(len(batch), len(r.noise))
	if err := shuffle(permutationReader(r.priv, r.service, r.round), out); err != nil {
		return nil, err
	}
	return out, nil
}

// decryptBatch peels one layer from every onion, decryptChunkSize onions
// at a time across GOMAXPROCS workers. Workers write into per-chunk slots,
// so the surviving messages come back in batch order regardless of
// scheduling.
func decryptBatch(priv *onionbox.PrivateKey, batch [][]byte) [][]byte {
	numChunks := (len(batch) + decryptChunkSize - 1) / decryptChunkSize
	chunkOut := make([][][]byte, numChunks)
	parallelFor(numChunks, runtime.GOMAXPROCS(0), func(c int) error {
		lo := c * decryptChunkSize
		chunkOut[c] = onionbox.OpenBatch(priv, batch[lo:min(lo+decryptChunkSize, len(batch))])
		return nil
	})
	return concat(chunkOut)
}

// Chain runs a batch through a chain's Rounds, in order, and returns the
// final mailboxes. It is the in-process reference for the routed data
// plane (internal/rpc/forward.go): each server still decrypts with its
// worker pool, but the chain itself is strictly sequential — server i+1
// sees nothing until server i has fully finished.
func Chain(rounds []*Round, numMailboxes uint32, batch [][]byte) (map[uint32][]byte, error) {
	cur := batch
	var err error
	for i, r := range rounds {
		cur, err = r.Mix(cur)
		if err != nil {
			return nil, fmt.Errorf("mixnet: server %d (%s): %w", i, r.s.Name, err)
		}
	}
	return BuildMailboxesRange(rounds[0].service, 0, numMailboxes, cur)
}

// RawDialMailboxes builds dialing mailboxes WITHOUT the Bloom filter
// encoding (raw concatenated 256-bit tokens): the §5.2 baseline the Bloom
// encoding is measured against. The protocol always uses Bloom filters.
func RawDialMailboxes(numMailboxes uint32, batch [][]byte) (map[uint32][]byte, error) {
	grouped := groupByMailbox(wire.Dialing, numMailboxes, batch, 1)
	out := make(map[uint32][]byte, numMailboxes)
	for mb := uint32(0); mb < numMailboxes; mb++ {
		var box []byte
		for _, b := range grouped[mb] {
			box = append(box, b...)
		}
		out[mb] = box
	}
	return out, nil
}
