package rpc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"alpenhorn/internal/wire"
)

// StreamArgs lets the external tests stand in for the mix.stream
// handlers: a chunk's onions arrive in the frame's blob section, which
// only a type embedding blobs receives.
type StreamArgs = streamArgs

// WithBlobs returns a with blobs as its chunk's messages.
func (a StreamArgs) WithBlobs(b [][]byte) StreamArgs {
	a.blobs = b
	return a
}

// The stages a mix.stream call names.
const (
	StagePeel  = stagePeel
	StageMerge = stageMerge
	StageBuild = stageBuild
)

// Stream is the daemon's mix.stream.begin, .chunk or .end (method), for a
// test that wraps the handlers.
func (d *MixerDaemon) Stream(method string, a StreamArgs) error { return d.stream(method, a) }

// IntakeState describes the round's route as the stream calls move it: the
// clock, the bytes in and, per stage the route has, whether it has begun,
// which slots have ended and how many messages each holds.
func (d *MixerDaemon) IntakeState(service wire.Service, round uint32) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	rt := d.rounds[outKey{service, round}]
	if rt == nil {
		return "no round"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "clock %v, %d B in", !rt.opened.IsZero(), rt.bytesIn)
	for st, in := range rt.intakes {
		if in != nil {
			fmt.Fprintf(&b, "; stage %d begun %v ended %v parts", st, in.begun, in.ended)
			for _, p := range in.parts {
				fmt.Fprintf(&b, " %d", len(p))
			}
		}
	}
	return b.String()
}

// SetStreamChunk sets how many messages push puts in one chunk call, for
// the length of test t. Call it before building the network, so that
// every sender in it chunks alike from its first round to its teardown.
func SetStreamChunk(t testing.TB, n int) {
	old := streamChunk
	streamChunk = n
	t.Cleanup(func() { streamChunk = old })
}

// The coordinator's stream calls, which only tests make: every feeder in
// the program sends its streams through push. Each is a peel-stage call.

// StreamBegin opens (or joins) the routed round's onion intake. The
// daemon treats it as idempotent, but like every stream call it is sent
// at most once: a transport failure aborts the round instead.
func (m *MixerClient) StreamBegin(service wire.Service, round uint32) error {
	return m.c.CallOnce("mix.stream.begin", streamArgs{Service: service, Round: round}, nil)
}

// StreamChunk feeds one chunk of onions as upstream 0, raw in the call's
// blob section: the daemon acknowledges intake immediately and decrypts on
// its worker pool, so consecutive chunks overlap with decryption. Sent at
// most once — a transparent retry after a lost reply would append the
// chunk to the round twice and corrupt the batch.
func (m *MixerClient) StreamChunk(service wire.Service, round uint32, chunk [][]byte) error {
	return m.c.CallOnce("mix.stream.chunk", streamArgs{Service: service, Round: round, blobs: chunk}, nil)
}

// StreamEnd tells the daemon that upstream writer `upstream` of the
// route's NumUpstream is finished. The daemon acknowledges at once; when
// every upstream has ended it runs its data-plane role on its own
// goroutine and the caller learns the outcome from WaitRound.
func (m *MixerClient) StreamEnd(service wire.Service, round uint32, upstream int) error {
	return m.c.CallOnce("mix.stream.end", streamArgs{Service: service, Round: round, Upstream: upstream}, nil)
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
