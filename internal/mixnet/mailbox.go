package mixnet

import (
	"fmt"
	"runtime"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/wire"
)

// BuildMailboxes is the last mixnet server's final step (§3.1 step 3): it
// parses the fully peeled payloads, discards cover traffic and anything
// addressed to a nonexistent mailbox, and groups the remaining request
// bodies by mailbox.
//
// For the add-friend service each mailbox is the concatenation of its
// fixed-size encrypted friend requests. For the dialing service each
// mailbox is a Bloom filter over its dial tokens, with parameters chosen by
// this server for the number of tokens actually present (§5.2).
//
// Every mailbox ID in [0, numMailboxes) is present in the result, even if
// empty, so that fetching clients never learn anything from a missing key.
//
// Construction is sharded across runtime.GOMAXPROCS workers: parsing is
// split over contiguous batch chunks, and mailbox encoding is keyed by
// mailbox index. Use BuildMailboxesParallel to pick the worker count.
func BuildMailboxes(service wire.Service, numMailboxes uint32, batch [][]byte) (map[uint32][]byte, error) {
	return BuildMailboxesParallel(service, numMailboxes, batch, runtime.GOMAXPROCS(0))
}

// BuildMailboxesParallel is BuildMailboxes with an explicit worker count
// (1 = the sequential path). Output is identical regardless of workers:
// bodies keep batch order within each mailbox.
func BuildMailboxesParallel(service wire.Service, numMailboxes uint32, batch [][]byte, workers int) (map[uint32][]byte, error) {
	return BuildMailboxesRange(service, 0, numMailboxes, batch, workers)
}

// ShardRange returns the contiguous mailbox-ID range [lo, hi) that shard
// `shard` of `count` owns when a round's numMailboxes mailboxes are built
// sharded across the last position's group. The ranges partition
// [0, numMailboxes) exactly — every union over shards reproduces the
// single-machine build's ID set — and are balanced to within one mailbox.
func ShardRange(numMailboxes uint32, shard, count int) (lo, hi uint32) {
	if count <= 1 {
		return 0, numMailboxes
	}
	lo = uint32(uint64(numMailboxes) * uint64(shard) / uint64(count))
	hi = uint32(uint64(numMailboxes) * uint64(shard+1) / uint64(count))
	return lo, hi
}

// encodeMailbox encodes one mailbox from its request bodies: concatenation
// for add-friend, a Bloom filter over the dial tokens for dialing (§5.2).
// A mailbox's encoding depends ONLY on its own bodies (in batch order), so
// a range-restricted build is byte-identical per mailbox to the full one.
func encodeMailbox(service wire.Service, bodies [][]byte) []byte {
	switch service {
	case wire.AddFriend:
		var box []byte
		for _, b := range bodies {
			box = append(box, b...)
		}
		return box
	default: // wire.Dialing
		return bloom.NewFromElements(bodies, bloom.DefaultBitsPerElement).Marshal()
	}
}

// BuildMailboxesRange builds only the mailboxes with IDs in [lo, hi):
// one shard's slice of a sharded mailbox build. The batch should contain
// the payloads dealt to this shard, in the position's post-shuffle batch
// order; payloads addressed outside [lo, hi) are ignored. Every ID in
// [lo, hi) is present in the result, even if empty, so the union of the
// shards' slices is byte-identical to BuildMailboxes over the full batch.
func BuildMailboxesRange(service wire.Service, lo, hi uint32, batch [][]byte, workers int) (map[uint32][]byte, error) {
	switch service {
	case wire.AddFriend, wire.Dialing:
	default:
		return nil, fmt.Errorf("mixnet: unknown service %v", service)
	}
	if hi < lo {
		return nil, fmt.Errorf("mixnet: bad mailbox range [%d, %d)", lo, hi)
	}
	if workers <= 0 {
		workers = 1
	}

	grouped := groupByMailbox(service, hi, batch, workers)

	n := int(hi - lo)
	boxes := make([][]byte, n)
	parallelFor(n, workers, func(i int) error {
		boxes[i] = encodeMailbox(service, grouped[lo+uint32(i)])
		return nil
	})

	out := make(map[uint32][]byte, n)
	for i := 0; i < n; i++ {
		out[lo+uint32(i)] = boxes[i]
	}
	return out, nil
}

// groupByMailbox parses the batch and groups request bodies by mailbox,
// dropping malformed payloads, cover traffic, and out-of-range mailboxes.
// With workers > 1, contiguous batch chunks are parsed concurrently and
// merged in chunk order, preserving batch order within each mailbox.
func groupByMailbox(service wire.Service, numMailboxes uint32, batch [][]byte, workers int) map[uint32][][]byte {
	parse := func(chunk [][]byte, grouped map[uint32][][]byte) {
		for _, data := range chunk {
			payload, err := wire.UnmarshalMixPayload(service, data)
			if err != nil {
				// A client slipped a malformed innermost payload past
				// the onion layers; drop it.
				continue
			}
			if payload.Mailbox == wire.CoverMailbox {
				continue // cover traffic needs no further processing
			}
			if payload.Mailbox >= numMailboxes {
				continue
			}
			grouped[payload.Mailbox] = append(grouped[payload.Mailbox], payload.Body)
		}
	}

	if workers <= 1 || len(batch) < 2*decryptChunkSize {
		grouped := make(map[uint32][][]byte)
		parse(batch, grouped)
		return grouped
	}

	chunkSize := (len(batch) + workers - 1) / workers
	numChunks := (len(batch) + chunkSize - 1) / chunkSize
	parts := make([]map[uint32][][]byte, numChunks)
	parallelFor(numChunks, numChunks, func(c int) error {
		lo := c * chunkSize
		hi := min(lo+chunkSize, len(batch))
		parts[c] = make(map[uint32][][]byte)
		parse(batch[lo:hi], parts[c])
		return nil
	})

	grouped := make(map[uint32][][]byte)
	for _, part := range parts {
		for mb, bodies := range part {
			grouped[mb] = append(grouped[mb], bodies...)
		}
	}
	return grouped
}

// RawDialMailboxes builds dialing mailboxes WITHOUT the Bloom filter
// encoding (raw concatenated 256-bit tokens). This is the §5.2 baseline
// used by the BloomVsRaw ablation benchmark; the real protocol always uses
// Bloom filters.
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

// Chain runs a batch through an ordered list of mixnet servers and returns
// the final mailboxes. It is the in-process REFERENCE for the routed data
// plane (internal/rpc/forward.go), which the byte-identity tests compare
// against it: each server still decrypts with its worker pool, but the
// chain itself is strictly sequential — server i+1 sees nothing until
// server i has fully finished.
func Chain(servers []*Server, service wire.Service, round uint32, numMailboxes uint32, batch [][]byte) (map[uint32][]byte, error) {
	cur := batch
	var err error
	for i, s := range servers {
		cur, err = s.Mix(service, round, numMailboxes, cur)
		if err != nil {
			return nil, fmt.Errorf("mixnet: server %d (%s): %w", i, s.Name, err)
		}
	}
	return BuildMailboxes(service, numMailboxes, cur)
}

// DefaultStreamChunk is the batch chunk size used when feeding a mixer
// chain as a stream: small enough that downstream decryption overlaps
// upstream emission, large enough to amortize per-chunk overhead.
const DefaultStreamChunk = 512
