package rpc

import (
	"time"

	"alpenhorn/internal/wire"
)

// ChunkArgs lets the external tests stand in for a data-plane chunk
// handler: its onions arrive in the frame's blob section, which only a
// type embedding blobs receives.
type ChunkArgs = chunkArgs

// MixArgs lets the external tests stand in for mix.stream.begin.
type MixArgs = mixArgs

// StreamBegin and StreamChunk are the daemon's mix.stream.begin and
// mix.stream.chunk, for a test that wraps the handlers.
func (d *MixerDaemon) StreamBegin(a MixArgs) error   { return d.streamBegin(a) }
func (d *MixerDaemon) StreamChunk(a ChunkArgs) error { return d.streamChunk(a) }

// The coordinator's stream calls, which only tests make: every feeder in
// the program sends its streams through push.

// StreamBegin opens (or joins) the routed round's onion intake. The
// daemon treats it as idempotent, but like every stream call it is sent
// at most once: a transport failure aborts the round instead.
func (m *MixerClient) StreamBegin(service wire.Service, round uint32, numMailboxes uint32) error {
	return m.c.CallOnce("mix.stream.begin", mixArgs{Service: service, Round: round, NumMailboxes: numMailboxes}, nil)
}

// StreamChunk feeds one chunk of onions, raw in the call's blob section:
// the daemon acknowledges intake immediately and decrypts on its worker
// pool, so consecutive chunks overlap with decryption. Sent at most once —
// a transparent retry after a lost reply would append the chunk to the
// round twice and corrupt the batch.
func (m *MixerClient) StreamChunk(service wire.Service, round uint32, chunk [][]byte) error {
	return m.c.CallOnce("mix.stream.chunk", chunkArgs{Service: service, Round: round, blobs: chunk}, nil)
}

// StreamEnd tells the daemon that upstream writer `upstream` of the
// route's NumUpstream is finished. The daemon acknowledges at once; when
// every upstream has ended it runs its data-plane role on its own
// goroutine and the caller learns the outcome from WaitRound.
func (m *MixerClient) StreamEnd(service wire.Service, round uint32, upstream int) error {
	return m.c.CallOnce("mix.stream.end", roundArgs{Service: service, Round: round, Upstream: upstream}, nil)
}

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
