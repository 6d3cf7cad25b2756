package rpc

import (
	"time"

	"alpenhorn/internal/wire"
)

// ChunkArgs lets the external tests stand in for a data-plane chunk
// handler: its onions arrive in the frame's blob section, which only a
// type embedding blobs receives.
type ChunkArgs = chunkArgs

// StreamChunk is the daemon's mix.stream.chunk, for a test that wraps the
// handler.
func (d *MixerDaemon) StreamChunk(a ChunkArgs) error { return d.streamChunk(a) }

// PublishFragment sends one mailbox fragment of a one-stream round to a
// cdn.publish endpoint without Done: a publisher that dies mid-stream.
func PublishFragment(c *Client, service wire.Service, round, mailbox uint32, data []byte) error {
	a := cdnStreamArgs{Service: service, Round: round, NumShards: 1}
	a.add(mailbox, data)
	return c.CallOnce("cdn.publish", a, nil)
}

// PublishMailboxes publishes a whole round as its one stream.
func PublishMailboxes(c *Client, service wire.Service, round uint32, mailboxes map[uint32][]byte) error {
	return PublishMailboxesShard(c, service, round, mailboxes, 0, 1)
}

// SetStagingTTL overrides how long an idle half-published round may stage
// before the sweep evicts it.
func (d *CDNDaemon) SetStagingTTL(ttl time.Duration) {
	d.mu.Lock()
	d.ttl = ttl
	d.mu.Unlock()
}

// StagingEvictions counts staged rounds dropped by the TTL sweep or the
// count cap — publishers that died without sending Done or Abort.
func (d *CDNDaemon) StagingEvictions() uint64 { return d.stagingEvictions.Load() }
