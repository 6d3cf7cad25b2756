package rpc

import (
	"bytes"
	"fmt"
	"time"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// An EntryReplica is the one frontend-side intake: it replays the
// coordinator's announcements into its entry server and, at round close,
// closes the intake and deals the sub-batch into position 0's shard set
// itself (push, in the sender's own chunks), tagged with the frontend's
// upstream index so the shards' counted NumUpstream fan-in merges N
// feeders exactly once each, in upstream order whenever they arrive. The
// close names only the shards and the slot: the shards hold the round's
// mailbox count from their routes. The coordinator drives its own
// entry server, frontend 0, through one in process; every other frontend
// serves one behind RegisterEntryReplica, and the coordinator drives it
// over the entry.replicate surface. So no onion crosses the coordinator.
//
// entry.replicate is a SERVER-PLANE surface like cdn.publish: the
// transport carries no authentication, so deployments must serve it on a
// listener kept away from clients — any client able to call
// entry.replicate.open could announce forged rounds.
//
// The coordinator replays every announcement (opens, publishes) to every
// frontend in one serialized order, so the frontends' event logs assign
// IDENTICAL cursors: one cursor namespace across the tier. That is what
// makes client failover seamless — a client that loses its frontend
// re-parks entry.events on any other frontend with the same cursor and
// resumes mid-round, no snapshot reset.

type replicateOpenArgs struct {
	// Settings is the round's canonical wire.RoundSettings encoding —
	// self-authenticating, so the replica (and its clients) verify it
	// against pinned keys regardless of who delivered it.
	Settings []byte `json:"settings"`
}

type replicateCloseArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	// Shards is position 0's full shard set, which the frontend feeds with
	// the one push every shard set is fed with: chunk i of its sub-batch
	// to shard i mod N.
	Shards []string `json:"shards"`
	// Upstream is this frontend's index among the round's feeders, quoted
	// in each of its mix.stream calls as its slot: the shards' fan-in
	// counts it once and orders its onions after every lower slot's.
	Upstream int `json:"upstream"`
}

// EntryReplica is one frontend's intake (see above); *EntryReplica
// implements coordinator.Frontend in process.
type EntryReplica struct {
	e *entry.Server
	peerSet
}

// NewEntryReplica returns the intake over entry server e.
func NewEntryReplica(e *entry.Server) *EntryReplica {
	return &EntryReplica{e: e}
}

// OpenRound replays a round-open announcement. Idempotent under the
// transport's reconnect-and-resend: an open the replica already holds
// (byte-identical) is acknowledged, so a lost reply cannot desynchronize
// the cursor namespace; a CONFLICTING duplicate is refused.
func (r *EntryReplica) OpenRound(settings *wire.RoundSettings) error {
	if existing, err := r.e.Settings(settings.Service, settings.Round); err == nil {
		if bytes.Equal(existing.Marshal(), settings.Marshal()) {
			return nil
		}
		return fmt.Errorf("rpc: replicate open: conflicting settings for %v round %d", settings.Service, settings.Round)
	}
	return r.e.OpenRound(settings)
}

// AnnouncePublished replays a publish announcement, which the entry
// server logs once however it is duplicated or reordered.
func (r *EntryReplica) AnnouncePublished(service wire.Service, round uint32) {
	r.e.AnnouncePublished(service, round)
}

// CloseIntake closes the round on the entry server and deals its
// sub-batch across position 0's shard set (push's chunk i to shard
// i mod N) as upstream feeder `upstream`, reporting its size. The shards'
// routes carry NumUpstream = #frontends, so each end closes one counted
// upstream slot.
// At most once: the entry server closes a round once, so a re-sent close
// is refused before it deals anything; a failure fails the round (the
// next round carries the traffic).
func (r *EntryReplica) CloseIntake(service wire.Service, round uint32, shards []string, upstream int) (int, error) {
	// Refuse a malformed close before the round closes: the close is
	// final, so a close that could never deal would destroy the sub-batch.
	if len(shards) == 0 || checkAddrs(shards) != nil {
		return 0, fmt.Errorf("rpc: replicate close needs a shard set of 1 to %d addresses", maxFanIn)
	}
	batch, err := r.e.CloseRound(service, round)
	if err != nil {
		return 0, err
	}
	hdr := streamArgs{Service: service, Round: round, Stage: stagePeel, Upstream: upstream}
	if err := r.push(shards, hdr, batch, time.Time{}); err != nil {
		return 0, err
	}
	return len(batch), nil
}

// RegisterEntryReplica serves entry server e's intake to a remote
// coordinator: announcement replay (open/published) and the intake close
// that deals the sub-batch. Serve it on the server-plane listener (with
// RegisterCDN), never on the client-facing one.
func RegisterEntryReplica(s *Server, e *entry.Server) *EntryReplica {
	r := NewEntryReplica(e)
	HandleFunc(s, "entry.replicate.open", func(a replicateOpenArgs) (any, error) {
		rs, err := wire.UnmarshalRoundSettings(a.Settings)
		if err != nil {
			return nil, fmt.Errorf("rpc: replicate open: %w", err)
		}
		return nil, r.OpenRound(rs)
	})
	HandleFunc(s, "entry.replicate.close", func(a replicateCloseArgs) (any, error) {
		n, err := r.CloseIntake(a.Service, a.Round, a.Shards, a.Upstream)
		return n, err
	})
	HandleFunc(s, "entry.replicate.published", func(a roundArgs) (any, error) {
		r.AnnouncePublished(a.Service, a.Round)
		return nil, nil
	})
	return r
}

// EntryReplicaClient is the coordinator's handle on an entry frontend
// other than its own: coordinator.Frontend (announcement replay and the
// intake close that deals the sub-batch).
type EntryReplicaClient struct {
	addr string
	c    *Client
}

// DialEntryReplica connects to a frontend's server-plane listener.
func DialEntryReplica(addr string) *EntryReplicaClient {
	return &EntryReplicaClient{addr: addr, c: Dial(addr)}
}

// Addr returns the replica's server-plane address.
func (r *EntryReplicaClient) Addr() string { return r.addr }

// OpenRound replays a round-open announcement (idempotent server-side).
func (r *EntryReplicaClient) OpenRound(settings *wire.RoundSettings) error {
	return r.c.Call("entry.replicate.open", replicateOpenArgs{Settings: settings.Marshal()}, nil)
}

// AnnouncePublished replays a publish announcement (idempotent
// server-side). Mirroring entry.Server's fire-and-forget signature, a
// delivery failure is dropped: the frontend's clients catch up at the next
// publish announcement that does arrive (a dialing client queues every
// round up to it into its scan backlog), and the mailboxes themselves are
// served by the CDN regardless.
func (r *EntryReplicaClient) AnnouncePublished(service wire.Service, round uint32) {
	_ = r.c.Call("entry.replicate.published", roundArgs{Service: service, Round: round}, nil)
}

// CloseIntake has the frontend close its intake and deal its sub-batch
// across position 0's shard set as upstream feeder `upstream`, and
// reports the sub-batch's size. Call re-sends once after a transport
// failure (a connection gone stale while the frontend restarted): a first
// attempt that ran makes the re-send fail as already closed, so nothing
// is dealt twice.
func (r *EntryReplicaClient) CloseIntake(service wire.Service, round uint32, shards []string, upstream int) (int, error) {
	var size int
	err := r.c.Call("entry.replicate.close", replicateCloseArgs{
		Service: service, Round: round, Shards: shards, Upstream: upstream,
	}, &size)
	return size, err
}

// CallCount reports how many times this client invoked a method.
func (r *EntryReplicaClient) CallCount(method string) uint64 { return r.c.CallCount(method) }

// Close closes the client's connections.
func (r *EntryReplicaClient) Close() { r.c.Close() }
