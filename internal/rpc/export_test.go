package rpc

import "alpenhorn/internal/wire"

// ChunkArgs lets the external tests stand in for a data-plane chunk
// handler: its onions arrive in the frame's blob section, which only a
// type embedding blobs receives.
type ChunkArgs = chunkArgs

// Batch returns the chunk's onions.
func (a chunkArgs) Batch() [][]byte { return a.blobs }

// PublishFragment sends one mailbox fragment of a one-stream round to a
// cdn.publish endpoint without Done: a publisher that dies mid-stream.
func PublishFragment(c *Client, service wire.Service, round, mailbox uint32, data []byte) error {
	a := cdnStreamArgs{Service: service, Round: round, NumShards: 1}
	a.add(mailbox, data)
	return c.CallOnce("cdn.publish", a, nil)
}
