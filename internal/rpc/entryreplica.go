package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// The entry.replicate surface is how one coordinator drives N entry
// frontends. It is a SERVER-PLANE surface like cdn.publish: the transport
// carries no authentication, so deployments must serve it on a listener
// kept away from clients — any client able to call entry.replicate.open
// could announce forged rounds.
//
// The coordinator replays every announcement (opens, publishes) to every
// frontend over this surface, in one serialized order, so the frontends'
// event logs assign IDENTICAL cursors: one cursor namespace across the
// tier. That is what makes client failover seamless — a client that loses
// its frontend re-parks entry.events on any other frontend with the same
// cursor and resumes mid-round, no snapshot reset.
//
// Intake stays local: each frontend admits its own sub-batch, and at
// close the coordinator tells the frontend to deal its sub-batch into
// position 0's shard set itself (entry.replicate.feed), tagged with the
// frontend's upstream index so the shards' counted NumUpstream fan-in
// merges N feeders exactly once each.

type replicateOpenArgs struct {
	// Settings is the round's canonical wire.RoundSettings encoding —
	// self-authenticating, so the replica (and its clients) verify it
	// against pinned keys regardless of who delivered it.
	Settings []byte `json:"settings"`
}

type replicateCloseReply struct {
	Size int `json:"size"`
}

type replicateFeedArgs struct {
	Service      wire.Service `json:"service"`
	Round        uint32       `json:"round"`
	NumMailboxes uint32       `json:"num_mailboxes"`
	ChunkSize    int          `json:"chunk_size"`
	// Shards is position 0's full shard set; the frontend deals chunk i of
	// its sub-batch to shard i mod N, the same deterministic deal the
	// daemons and the coordinator use.
	Shards []string `json:"shards"`
	// Upstream is this frontend's index among the round's feeders, quoted
	// in each mix.stream.end so the shards' fan-in counts it once.
	Upstream int `json:"upstream"`
}

type replicaState struct {
	e *entry.Server
	peerSet

	mu    sync.Mutex
	stash map[stashKey][][]byte
}

type stashKey struct {
	service wire.Service
	round   uint32
}

// closeIntake closes the round on the local entry server and stashes the
// batch, idempotently: a re-sent close (reply lost) finds the stash and
// reports the same size.
func (st *replicaState) closeIntake(service wire.Service, round uint32) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	key := stashKey{service, round}
	if batch, ok := st.stash[key]; ok {
		return len(batch), nil
	}
	batch, err := st.e.CloseRound(service, round)
	if err != nil {
		return 0, err
	}
	st.stash[key] = batch
	return len(batch), nil
}

// takeStash consumes the stashed batch for feeding; a second take fails
// loudly rather than feeding the chain twice.
func (st *replicaState) takeStash(service wire.Service, round uint32) ([][]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	key := stashKey{service, round}
	batch, ok := st.stash[key]
	if !ok {
		return nil, fmt.Errorf("rpc: no stashed batch for %v round %d (not closed, or already fed)", service, round)
	}
	delete(st.stash, key)
	return batch, nil
}

// feed deals the frontend's sub-batch across position 0's shard set
// (dealChunks), one concurrent stream per shard. The shards' routes carry
// NumUpstream = #frontends, so the begins JOIN the streams the other
// feeders opened and each end closes exactly one of the counted upstream
// slots.
func (st *replicaState) feed(a replicateFeedArgs, batch [][]byte) error {
	if a.ChunkSize <= 0 || len(a.Shards) == 0 {
		return errors.New("rpc: replicate feed needs a chunk size and a shard set")
	}
	parts := dealChunks(batch, a.ChunkSize, len(a.Shards))
	return fanOut(a.Shards, func(s int, addr string) error {
		c := st.peer(addr)
		if err := c.CallOnce("mix.stream.begin", mixArgs{
			Service: a.Service, Round: a.Round, NumMailboxes: a.NumMailboxes,
		}, nil); err != nil {
			return fmt.Errorf("rpc: replicate feed begin (shard %d): %w", s, err)
		}
		end := roundArgs{Service: a.Service, Round: a.Round, Upstream: a.Upstream}
		return sendStream(c, "mix.stream", chunkArgs{Service: a.Service, Round: a.Round}, parts[s], a.ChunkSize, end)
	})
}

// RegisterEntryReplica exposes an entry server to a remote coordinator:
// announcement replay (open/published), intake close, and sub-batch
// dealing. Serve it on the server-plane listener (with RegisterCDN),
// never on the client-facing one.
func RegisterEntryReplica(s *Server, e *entry.Server) {
	st := &replicaState{
		e:     e,
		stash: make(map[stashKey][][]byte),
	}
	HandleFunc(s, "entry.replicate.open", func(a replicateOpenArgs) (any, error) {
		rs, err := wire.UnmarshalRoundSettings(a.Settings)
		if err != nil {
			return nil, fmt.Errorf("rpc: replicate open: %w", err)
		}
		// Idempotent under the transport's reconnect-and-resend: an open
		// the replica already holds (byte-identical) is acknowledged, so a
		// lost reply cannot desynchronize the cursor namespace; a
		// CONFLICTING duplicate is refused.
		if existing, err := e.Settings(rs.Service, rs.Round); err == nil {
			if bytes.Equal(existing.Marshal(), a.Settings) {
				return nil, nil
			}
			return nil, fmt.Errorf("rpc: replicate open: conflicting settings for %v round %d", rs.Service, rs.Round)
		}
		return nil, e.OpenRound(rs)
	})
	HandleFunc(s, "entry.replicate.close", func(a roundArgs) (any, error) {
		n, err := st.closeIntake(a.Service, a.Round)
		if err != nil {
			return nil, err
		}
		return replicateCloseReply{Size: n}, nil
	})
	HandleFunc(s, "entry.replicate.feed", func(a replicateFeedArgs) (any, error) {
		batch, err := st.takeStash(a.Service, a.Round)
		if err != nil {
			return nil, err
		}
		return nil, st.feed(a, batch)
	})
	HandleFunc(s, "entry.replicate.published", func(a roundArgs) (any, error) {
		// Idempotent: announce once per round no matter how the call is
		// duplicated — the log must stay identical across replicas.
		if e.Status(a.Service).LatestPublished >= a.Round {
			return nil, nil
		}
		e.AnnouncePublished(a.Service, a.Round)
		st.mu.Lock()
		delete(st.stash, stashKey{a.Service, a.Round})
		st.mu.Unlock()
		return nil, nil
	})
}

// EntryReplicaClient is the coordinator's handle on an entry frontend
// other than its own: coordinator.Frontend (announcement replay, intake
// close, sub-batch dealing).
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

// CloseIntake closes the frontend's intake and reports the sub-batch's
// size, leaving the batch stashed frontend-side for FeedBatch: it never
// crosses the coordinator.
func (r *EntryReplicaClient) CloseIntake(service wire.Service, round uint32) (int, error) {
	var reply replicateCloseReply
	if err := r.c.Call("entry.replicate.close", roundArgs{Service: service, Round: round}, &reply); err != nil {
		return 0, err
	}
	return reply.Size, nil
}

// FeedBatch makes the frontend deal its stashed sub-batch across position
// 0's shard set as upstream feeder `upstream`. At most once: the stash is
// consumed, so a duplicated feed cannot put a sub-batch in the round
// twice; a failure aborts the round (the next round carries the traffic).
func (r *EntryReplicaClient) FeedBatch(service wire.Service, round uint32, numMailboxes uint32, chunkSize int, shards []string, upstream int) error {
	return r.c.CallOnce("entry.replicate.feed", replicateFeedArgs{
		Service: service, Round: round,
		NumMailboxes: numMailboxes, ChunkSize: chunkSize,
		Shards: shards, Upstream: upstream,
	}, nil)
}

// CallCount reports how many times this client invoked a method.
func (r *EntryReplicaClient) CallCount(method string) uint64 { return r.c.CallCount(method) }

// Close closes the client's connection.
func (r *EntryReplicaClient) Close() { r.c.Close() }
