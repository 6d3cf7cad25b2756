package mixnet

import (
	"fmt"
	"runtime"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/wire"
)

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

// BuildMailboxesRange is the last mixnet server's final step (§3.1 step
// 3) for the mailboxes with IDs in [lo, hi): one shard's slice of a
// sharded build, or the whole build over [0, numMailboxes). It parses the
// peeled payloads dealt to this shard, in post-shuffle batch order, drops
// cover traffic and anything addressed outside [lo, hi), and encodes each
// mailbox from its bodies (encodeMailbox). Every ID in [lo, hi) is present
// in the result, even if empty, so that fetching clients never learn
// anything from a missing key, and the union of the shards' slices is
// byte-identical to one build over the full batch. Parsing and encoding
// are split across GOMAXPROCS workers; bodies keep batch order within each
// mailbox, so the output does not depend on the worker count.
func BuildMailboxesRange(service wire.Service, lo, hi uint32, batch [][]byte) (map[uint32][]byte, error) {
	switch service {
	case wire.AddFriend, wire.Dialing:
	default:
		return nil, fmt.Errorf("mixnet: unknown service %v", service)
	}
	if hi < lo {
		return nil, fmt.Errorf("mixnet: bad mailbox range [%d, %d)", lo, hi)
	}
	workers := runtime.GOMAXPROCS(0)
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

// DefaultStreamChunk is every sender's batch chunk size when feeding a
// mixer as a stream (rpc's push, for a frontend and a daemon alike): small
// enough that downstream decryption overlaps upstream emission, large
// enough to amortize per-chunk overhead. No receiver is told it.
const DefaultStreamChunk = 512
