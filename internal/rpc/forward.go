package rpc

import (
	"errors"
	"fmt"
	mathrand "math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/wire"
)

// This file is the daemon side of the mixnet data plane. There is one way
// a round runs:
//
// Before the batch arrives, the coordinator opens a ROUTE on every daemon
// (mix.round.route). A chain position is served by a SHARD GROUP of N >= 1
// daemons, and the route gives a daemon its shard index, the group size,
// and its role. One member is the group's merge LEAD this round; its route
// carries where the position's output goes — the next position's full
// shard set, or, for the last position, the CDN's publish address and the
// group's own address list for the sharded mailbox build. Every other
// member's route names the lead (MergeAddr).
//
// Onions stream in over mix.stream.begin/chunk/end. Fan-in is counted: a
// daemon's intake closes exactly once, when an end-of-stream has arrived
// from each of the route's NumUpstream writers (the frontends for position
// 0, the previous position's lead otherwise); begins and ends are
// idempotent per upstream. Each member then peels its slice and adds its
// divided noise share WITHOUT shuffling, and deposits the result with the
// lead (mix.merge.begin/chunk/end; the lead's own slice is deposited
// locally). The deposit that completes the set triggers the position's
// single key-derived shuffle over the concatenated batch
// (mixnet.MergeShuffle). The lead then DEALS its post-shuffle chunks
// round-robin across the successor shard set, or — at the end of the chain
// — deals request bodies by mailbox ID across its own group (mix.deal.*),
// and every member builds its mailbox-ID range and publishes it over its
// own shard-tagged cdn.publish stream.
//
// An unsharded position is a group of one: its own lead, a merge of one
// part, a one-slice build. The coordinator only moves control messages; it
// learns each daemon's outcome from the mix.round.wait long-poll, and
// failures propagate as mix.round.abort down the chain, across the group
// and back to the waiting coordinator.

type outKey struct {
	service wire.Service
	round   uint32
}

// route is one round's forwarding assignment on a daemon, created by
// mix.round.route and resolved exactly once (completion or abort).
type route struct {
	// The assignment as announced: where the output goes, the shard-group
	// layout, the chunk size and the fan-in (see routeArgs).
	routeArgs

	// Intake progress (fan-in counting). begun latches the one stream
	// every upstream's begin joins. endedUpstreams has one slot per
	// upstream writer and dedupes ends by upstream identity, so a
	// duplicated or re-sent end cannot close the intake early or twice;
	// intakeClosed latches the single close.
	begun          bool
	endedUpstreams []bool
	intakeClosed   bool

	// Merge state (merge server only): each shard's peeled slice, in
	// shard-index order, and which shards have delivered theirs.
	mergeParts [][][]byte
	mergeEnded []bool

	// Sharded-build intake (build shards only): the post-shuffle payloads
	// the merge server dealt to this shard's mailbox-ID range
	// (mix.deal.*). dealEnded latches the single end — the merge server
	// is the deal's only writer.
	dealParts [][]byte
	dealEnded bool

	// Per-round data-plane deadline (routeArgs.DeadlineMs): peer-dial
	// retries give up once it passes instead of burning the round
	// against a dead peer. Zero means no deadline.
	deadline time.Time

	// Self-reported accounting for mix.round.wait.
	opened   time.Time
	duration time.Duration
	bytesIn  uint64
	bytesOut uint64

	done     chan struct{} // closed when err is final
	err      error
	reason   string // abort-reason code (wire.Abort*), "" on success
	resolved bool
}

// Successor dial retry schedule: forwarding a round is the first traffic a
// fresh chain sees, so transient dial failures (successor still binding,
// connection racing a restart) get a few backed-off attempts before the
// round aborts. Each backoff carries up to 100% random jitter so a shard
// group whose members all lost the same peer does not retry in lockstep.
const (
	forwardDialAttempts = 4
	forwardDialBackoff  = 100 * time.Millisecond
)

// errRoundDeadline marks a data-plane failure caused by the route's
// per-round deadline expiring; classifyAbort maps it to wire.AbortSlow so
// the coordinator's scheduler can tell a slow round from a crashed peer.
var errRoundDeadline = errors.New("rpc: round deadline exceeded")

// classifyAbort maps a route's terminal error to the abort-reason code
// surfaced through mix.round.wait (wire.MixerRoundStats.AbortReason).
func classifyAbort(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errRoundDeadline):
		return wire.AbortSlow
	case strings.HasPrefix(err.Error(), "aborted: "):
		return wire.AbortUpstream
	case errors.Is(err, ErrTransport):
		return wire.AbortCrashed
	default:
		return wire.AbortError
	}
}

// hostOf strips the port from a host:port address; peer allowlists match
// on host because a caller's source port is ephemeral.
func hostOf(addr string) string {
	if h, _, err := net.SplitHostPort(addr); err == nil {
		return h
	}
	return addr
}

// waitParkInterval bounds how long one mix.round.wait call parks in the
// daemon before replying "not done yet"; the client re-polls. Bounding the
// park keeps Server.Close from waiting on a handler that would otherwise
// block until a round that will never finish.
const waitParkInterval = 500 * time.Millisecond

type routeArgs struct {
	Service      wire.Service `json:"service"`
	Round        uint32       `json:"round"`
	NumMailboxes uint32       `json:"num_mailboxes"`
	ChunkSize    int          `json:"chunk_size"`
	CDNAddr      string       `json:"cdn_addr,omitempty"`
	// Shard-group routing: the daemon is shard ShardIndex of ShardCount
	// (>= 1). Successors names the NEXT position's full shard set;
	// MergeAddr is the group's lead, empty on the lead itself;
	// NumUpstream (>= 1) is how many upstream end-of-streams close the
	// onion intake.
	ShardIndex  int      `json:"shard_index"`
	ShardCount  int      `json:"shard_count"`
	MergeAddr   string   `json:"merge_addr,omitempty"`
	Successors  []string `json:"successors,omitempty"`
	NumUpstream int      `json:"num_upstream"`
	// BuildShards is the last position's lead's deal list: the full shard
	// group's addresses, in shard order. Non-lead shards of the last
	// group carry CDNAddr but no BuildShards.
	BuildShards []string `json:"build_shards,omitempty"`
	// DeadlineMs bounds the daemon's data-plane dial retries for the
	// round, in milliseconds from route receipt; 0 means no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

type abortArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	Reason  string       `json:"reason,omitempty"`
}

type waitReply struct {
	Done  bool   `json:"done"`
	Error string `json:"error,omitempty"`
	// Reason classifies a failed round (wire.Abort* codes) so the
	// coordinator can tell slow from crashed from misbehaving.
	Reason string `json:"reason,omitempty"`
	// Self-reported role accounting, valid when Done.
	DurationMs int64  `json:"duration_ms,omitempty"`
	BytesIn    uint64 `json:"bytes_in,omitempty"`
	BytesOut   uint64 `json:"bytes_out,omitempty"`
}

type shardArgs struct {
	Service    wire.Service `json:"service"`
	Round      uint32       `json:"round"`
	ShardIndex int          `json:"shard_index"`
	ShardCount int          `json:"shard_count"`
	// Peers is the round's allowed shard network: the addresses of every
	// group member (announcer, members, drafted spares). When set, the
	// daemon serves mix.round.exportkey for this round only to callers
	// whose host appears in it. Empty = no gate.
	Peers []string `json:"peers,omitempty"`
}

type importKeyArgs struct {
	Service  wire.Service `json:"service"`
	Round    uint32       `json:"round"`
	LeadAddr string       `json:"lead_addr"`
}

// keyReply is mix.round.exportkey's: the round private key as its one
// blob, which the server zeroes, with the frame, once it is written.
type keyReply struct{ blobs }

// chunkArgs carries a data-plane stream's chunk in its blobs. Shard names
// the depositing shard of a mix.merge stream (begin and end included).
type chunkArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	Shard   int          `json:"shard"`
	blobs
}

// MixerDaemon is the RPC-facing state of one mixer daemon: the rounds'
// routes and cached connections to peers. RegisterMixer returns it so
// daemon binaries and tests can inspect round-state hygiene.
type MixerDaemon struct {
	m *mixnet.Server
	peerSet

	mu     sync.Mutex
	routes map[outKey]*route
	// keyPeers is the per-round exportkey allowlist (shardArgs.Peers):
	// the hosts allowed to pull this round's private key.
	keyPeers map[outKey][]string
}

// PendingRoutes returns the number of rounds with an unresolved or
// un-erased forwarding route. After a round closes (or aborts and
// closes), this must drop back toward zero — leaked routes are leaked
// round state.
func (d *MixerDaemon) PendingRoutes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.routes)
}

// mergeRoute validates a merge-surface call: the round must have a route,
// this daemon must be the round's merge server, and the shard index must
// be inside the group (and not the merge server's own — its slice never
// crosses the merge surface).
func (d *MixerDaemon) mergeRoute(a chunkArgs) (*route, outKey, error) {
	k := outKey{a.Service, a.Round}
	d.mu.Lock()
	defer d.mu.Unlock()
	rt := d.routes[k]
	if rt == nil {
		return nil, k, errNoRoute(a.Service, a.Round)
	}
	if rt.mergeEnded == nil {
		return nil, k, fmt.Errorf("rpc: round %d (%s): this daemon is not the merge server", a.Round, a.Service)
	}
	if a.Shard < 0 || a.Shard >= rt.ShardCount {
		return nil, k, fmt.Errorf("rpc: round %d (%s): shard %d outside group of %d", a.Round, a.Service, a.Shard, rt.ShardCount)
	}
	if a.Shard == rt.ShardIndex {
		return nil, k, fmt.Errorf("rpc: round %d (%s): merge server's own slice is deposited locally", a.Round, a.Service)
	}
	return rt, k, nil
}

// peerSet caches one Client per peer address. Connections are reused
// across rounds; a Client reconnects lazily after failures.
type peerSet struct {
	peersMu sync.Mutex
	peers   map[string]*Client
}

func (p *peerSet) peer(addr string) *Client {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	if p.peers == nil {
		p.peers = make(map[string]*Client)
	}
	c, ok := p.peers[addr]
	if !ok {
		c = Dial(addr)
		p.peers[addr] = c
	}
	return c
}

// resolve finalizes a route exactly once; later resolutions (e.g. an
// abort racing the forwarding goroutine) are dropped.
func (d *MixerDaemon) resolve(rt *route, err error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rt.resolved {
		return false
	}
	rt.resolved = true
	rt.err = err
	rt.reason = classifyAbort(err)
	rt.duration = time.Since(rt.opened)
	rt.mergeParts = nil // drop any half-merged slices
	close(rt.done)
	return true
}

// finish resolves the route with the outcome of this daemon's data-plane
// role. On failure it also propagates an abort to every successor shard
// and to the group's merge server, so nothing downstream keeps waiting
// for chunks (or deposits) that will never come.
func (d *MixerDaemon) finish(k outKey, rt *route, err error) {
	if !d.resolve(rt, err) || err == nil {
		return
	}
	targets := append([]string(nil), rt.Successors...)
	if rt.MergeAddr != "" {
		targets = append(targets, rt.MergeAddr)
	}
	// A failed sharded-build merge server releases its build shards too:
	// they are parked waiting for dealt slices that will never come.
	for s, addr := range rt.BuildShards {
		if s != rt.ShardIndex {
			targets = append(targets, addr)
		}
	}
	for _, addr := range targets {
		go func(addr string) {
			_ = d.peer(addr).Call("mix.round.abort", abortArgs{
				Service: k.service, Round: k.round, Reason: err.Error(),
			}, nil)
		}(addr)
	}
}

// forward is the daemon's data-plane role for one round, run on its own
// goroutine once every upstream has closed the stream: finish the local
// peel + noise share (StreamEndShard; the shuffle happens once, over the
// whole position's batch, at the group's merge) and either stream the
// slice to the lead or — on the lead itself — record it as a deposit,
// which may complete the merge.
func (d *MixerDaemon) forward(k outKey, rt *route) {
	out, err := d.m.StreamEndShard(k.service, k.round)
	if err != nil {
		d.finish(k, rt, err)
		return
	}
	if rt.MergeAddr == "" {
		d.addDeposit(k, rt, rt.ShardIndex, out)
		return
	}
	deposit := chunkArgs{Service: k.service, Round: k.round, Shard: rt.ShardIndex}
	if err := d.pushStream(rt, rt.MergeAddr, "mix.merge", deposit, deposit, deposit, out); err != nil || rt.CDNAddr == "" {
		d.finish(k, rt, err)
	}
	// Otherwise this is a build shard of the last position and its duty
	// is not done at deposit: the lead deals back this shard's
	// mailbox-ID slice (mix.deal.*), and the route resolves once the
	// slice is built and published over the shard's own cdn.publish
	// stream.
}

// dealMailboxBuild distributes the last position's post-shuffle batch by
// MAILBOX ID across the shard group (lead only): shard s gets the
// payloads addressed to its contiguous ID range (mixnet.ShardRange), in
// batch order, over mix.deal.* streams. Cover traffic, malformed payloads,
// and out-of-range mailboxes are dropped here — exactly the payloads
// BuildMailboxes would drop — so the per-shard builds are byte-identical
// to the single-machine build. The merge server's own slice never crosses
// the network; it is built and published concurrently with the deals.
func (d *MixerDaemon) dealMailboxBuild(k outKey, rt *route, out [][]byte) {
	n := len(rt.BuildShards)
	// hi-boundary per shard: payload with mailbox < bounds[s] and
	// >= bounds[s-1] belongs to shard s.
	bounds := make([]uint32, n)
	for s := 0; s < n; s++ {
		_, bounds[s] = mixnet.ShardRange(rt.NumMailboxes, s, n)
	}
	perShard := make([][][]byte, n)
	for _, data := range out {
		payload, err := wire.UnmarshalMixPayload(k.service, data)
		if err != nil || payload.Mailbox == wire.CoverMailbox || payload.Mailbox >= rt.NumMailboxes {
			continue
		}
		s := 0
		for s < n-1 && payload.Mailbox >= bounds[s] {
			s++
		}
		perShard[s] = append(perShard[s], data)
	}

	d.finish(k, rt, fanOut(rt.BuildShards, func(s int, addr string) error {
		if s == rt.ShardIndex {
			return d.buildAndPublishSlice(k, rt, perShard[s])
		}
		rk := roundArgs{Service: k.service, Round: k.round}
		return d.pushStream(rt, addr, "mix.deal", rk, rk, chunkArgs{Service: k.service, Round: k.round}, perShard[s])
	}))
}

// fanOut runs fn once per address, concurrently, and returns the first
// error in address order.
func fanOut(addrs []string, fn func(i int, addr string) error) error {
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	wg.Add(len(addrs))
	for i, addr := range addrs {
		go func(i int, addr string) {
			defer wg.Done()
			errs[i] = fn(i, addr)
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildAndPublishSlice builds this shard's mailbox-ID range from its
// dealt payload slice and publishes it over the shard's own shard-tagged
// cdn.publish stream. The CDN seals the round only after all shardCount
// streams complete.
func (d *MixerDaemon) buildAndPublishSlice(k outKey, rt *route, slice [][]byte) error {
	lo, hi := mixnet.ShardRange(rt.NumMailboxes, rt.ShardIndex, rt.ShardCount)
	boxes, err := mixnet.BuildMailboxesRange(k.service, lo, hi, slice, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	var published uint64
	for _, box := range boxes {
		published += uint64(len(box))
	}
	d.mu.Lock()
	rt.bytesOut += published
	d.mu.Unlock()
	return PublishMailboxesShard(d.peer(rt.CDNAddr), k.service, k.round, boxes, rt.ShardIndex, rt.ShardCount)
}

// addDeposit records one shard's peeled slice on the group's merge
// server. The deposit that completes the set — the last-arriving shard —
// performs the position's merge: the slices are concatenated in
// shard-index order and shuffled ONCE with the round key's derived
// permutation (mixnet.MergeShuffle), then the position's output moves on.
// Remote shards deliver their slices in chunks over the merge surface
// (mix.merge.chunk appends, mix.merge.end calls this with a nil part);
// the merge server's own forward goroutine delivers its slice whole.
func (d *MixerDaemon) addDeposit(k outKey, rt *route, shard int, part [][]byte) {
	d.mu.Lock()
	if rt.resolved || rt.mergeEnded == nil || rt.mergeEnded[shard] {
		// Round already failed, or a duplicate end; nothing to merge.
		d.mu.Unlock()
		return
	}
	rt.mergeParts[shard] = append(rt.mergeParts[shard], part...)
	rt.mergeEnded[shard] = true
	if slices.Contains(rt.mergeEnded, false) {
		d.mu.Unlock()
		return
	}
	parts := rt.mergeParts
	rt.mergeParts = nil
	d.mu.Unlock()

	out, err := d.m.MergeShuffle(k.service, k.round, parts)
	switch {
	case err != nil:
		d.finish(k, rt, err)
	case len(rt.Successors) > 0:
		// Deal the position's output across the successor position's
		// shard set.
		d.finish(k, rt, d.dealDownstream(k, rt, out))
	default:
		// The end of the chain: deal it BY MAILBOX ID across the
		// position's own shard group, so that every member builds and
		// publishes only its own ID range.
		d.dealMailboxBuild(k, rt, out)
	}
}

// openStream dials addr and opens a chunked stream with retry/backoff on
// the opening call, which every stream surface serves idempotently:
// forwarding a round is often the first traffic a fresh peer sees, so
// transient dial failures get a few backed-off, jittered attempts before
// the round aborts. The route's
// per-round deadline bounds the retries: against a peer that is DEAD
// rather than starting, the daemon stops burning the round as soon as the
// deadline passes and the abort is classified slow, not crashed-here.
func (d *MixerDaemon) openStream(rt *route, addr, method string, args any) (*Client, error) {
	c := d.peer(addr)
	var err error
	for attempt := 0; attempt < forwardDialAttempts; attempt++ {
		if attempt > 0 {
			backoff := forwardDialBackoff << (attempt - 1)
			backoff += time.Duration(mathrand.Int63n(int64(backoff)))
			if !rt.deadline.IsZero() && time.Now().Add(backoff).After(rt.deadline) {
				return nil, fmt.Errorf("%w: opening stream to %s: %v", errRoundDeadline, addr, err)
			}
			time.Sleep(backoff)
		}
		if !rt.deadline.IsZero() && time.Now().After(rt.deadline) {
			return nil, fmt.Errorf("%w: opening stream to %s", errRoundDeadline, addr)
		}
		err = c.CallOnce(method, args, nil)
		if err == nil || !errors.Is(err, ErrTransport) {
			// Handler errors won't improve with a re-send; only
			// transport failures (peer still binding, stale connection)
			// are worth the backoff.
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("rpc: opening stream to %s: %w", addr, err)
	}
	return c, nil
}

// effectiveChunk returns the route's chunk size clamped to the frame
// budget.
func (rt *route) effectiveChunk() int {
	if rt.ChunkSize <= 0 {
		return mixnet.DefaultStreamChunk
	}
	return min(rt.ChunkSize, streamChunkMax)
}

// pushStream sends batch to addr as one mix.stream (to a successor shard),
// mix.merge (a deposit with the lead) or mix.deal (a build slice) stream.
// Only the idempotent begin retries (openStream).
func (d *MixerDaemon) pushStream(rt *route, addr, surface string, begin, end any, chunk chunkArgs, batch [][]byte) error {
	c, err := d.openStream(rt, addr, surface+".begin", begin)
	if err == nil {
		err = sendStream(c, surface, chunk, batch, rt.effectiveChunk(), end)
	}
	if err != nil {
		return err
	}
	d.mu.Lock()
	rt.bytesOut += payloadBytes(batch)
	d.mu.Unlock()
	return nil
}

// sendStream sends batch over an opened stream in chunkSize-message
// chunks, then the end, each AT MOST ONCE: a retry after a lost reply would
// append a chunk twice and corrupt the batch, so a mid-stream transport
// failure aborts the round instead, and the next round carries the traffic.
func sendStream(c *Client, surface string, chunk chunkArgs, batch [][]byte, chunkSize int, end any) error {
	for lo := 0; lo < len(batch); lo += chunkSize {
		chunk.blobs = batch[lo:min(lo+chunkSize, len(batch))]
		if err := c.CallOnce(surface+".chunk", chunk, nil); err != nil {
			return fmt.Errorf("rpc: %s.chunk to %s: %w", surface, c.addr, err)
		}
	}
	if err := c.CallOnce(surface+".end", end, nil); err != nil {
		return fmt.Errorf("rpc: %s.end to %s: %w", surface, c.addr, err)
	}
	return nil
}

// dealChunks cuts batch into chunkSize-message chunks and deals chunk i to
// part i mod n: deterministic, so sharding never hides nondeterminism in
// the data plane.
func dealChunks(batch [][]byte, chunkSize, n int) [][][]byte {
	parts := make([][][]byte, n)
	for i, lo := 0, 0; lo < len(batch); i, lo = i+1, lo+chunkSize {
		parts[i%n] = append(parts[i%n], batch[lo:min(lo+chunkSize, len(batch))]...)
	}
	return parts
}

// payloadBytes is the total length of a batch's messages.
func payloadBytes(batch [][]byte) (n uint64) {
	for _, msg := range batch {
		n += uint64(len(msg))
	}
	return n
}

// dealDownstream distributes a position's post-shuffle output across the
// successor position's shard set (dealChunks), one concurrent stream per
// successor shard.
func (d *MixerDaemon) dealDownstream(k outKey, rt *route, out [][]byte) error {
	perShard := dealChunks(out, rt.effectiveChunk(), len(rt.Successors))
	begin := mixArgs{Service: k.service, Round: k.round, NumMailboxes: rt.NumMailboxes}
	end := roundArgs{Service: k.service, Round: k.round}
	return fanOut(rt.Successors, func(j int, addr string) error {
		return d.pushStream(rt, addr, "mix.stream", begin, end, chunkArgs{Service: k.service, Round: k.round}, perShard[j])
	})
}

// RegisterMixer exposes a mixnet.Server over RPC: round set-up and the
// routed data plane described at the top of this file.
func RegisterMixer(s *Server, m *mixnet.Server) *MixerDaemon {
	d := &MixerDaemon{
		m:        m,
		routes:   make(map[outKey]*route),
		keyPeers: make(map[outKey][]string),
	}

	HandleFunc(s, "mix.info", func(struct{}) (any, error) {
		shardIndex, shardCount := m.ShardIdentity()
		return MixerInfo{
			Name:            m.Name,
			Position:        m.Position,
			SigningKey:      m.SigningKey(),
			AddFriendMu:     m.AddFriendNoise.Mu,
			DialingMu:       m.DialingNoise.Mu,
			ProtocolVersion: ProtocolVersion,
			ShardIndex:      shardIndex,
			ShardCount:      shardCount,
			Spare:           m.Spare(),
		}, nil
	})
	HandleFunc(s, "mix.newround", func(a roundArgs) (any, error) {
		return m.NewRound(a.Service, a.Round)
	})
	HandleFunc(s, "mix.setdownstream", func(a downstreamArgs) (any, error) {
		return nil, m.SetDownstreamKeys(a.Service, a.Round, a.Keys)
	})
	HandleFunc(s, "mix.preparenoise", func(a mixArgs) (any, error) {
		return nil, m.PrepareNoise(a.Service, a.Round, a.NumMailboxes)
	})
	HandleFunc(s, "mix.round.shard", func(a shardArgs) (any, error) {
		if err := m.SetRoundShard(a.Service, a.Round, a.ShardIndex, a.ShardCount); err != nil {
			return nil, err
		}
		if len(a.Peers) > 0 {
			// Install the round's shard-network allowlist so exportkey
			// is gated BEFORE any group member pulls the key.
			d.mu.Lock()
			d.keyPeers[outKey{a.Service, a.Round}] = a.Peers
			d.mu.Unlock()
		}
		return nil, nil
	})
	HandlePeerFunc(s, "mix.round.exportkey", func(peerAddr string, a roundArgs) (any, error) {
		// Serves the round onion private key to the OTHER shards of this
		// position (one logical server split across machines). Like
		// cdn.publish, this surface must stay off the client plane — and
		// when the coordinator distributed the round's shard network
		// (shardArgs.Peers), the caller's host must be in it: topology is
		// verified here instead of merely trusted.
		d.mu.Lock()
		allowed := d.keyPeers[outKey{a.Service, a.Round}]
		d.mu.Unlock()
		caller := hostOf(peerAddr)
		if len(allowed) > 0 && !slices.ContainsFunc(allowed, func(p string) bool { return hostOf(p) == caller }) {
			return nil, fmt.Errorf("rpc: round %d (%s): caller %s is outside the round's shard network", a.Round, a.Service, caller)
		}
		key, err := m.ExportRoundKey(a.Service, a.Round)
		if err != nil {
			return nil, err
		}
		return keyReply{blobs{key}}, nil
	})
	HandleFunc(s, "mix.round.importkey", func(a importKeyArgs) (any, error) {
		// The daemon pulls the group key from the lead itself, so the
		// private key moves server-to-server inside the group's trust
		// domain; the coordinator only names the source. The key is a blob
		// of the reply's frame buffer, which ImportRoundKey zeroes.
		var reply keyReply
		if err := d.peer(a.LeadAddr).Call("mix.round.exportkey", roundArgs{
			Service: a.Service, Round: a.Round,
		}, &reply); err != nil {
			return nil, fmt.Errorf("rpc: fetching round key from lead %s: %w", a.LeadAddr, err)
		}
		return nil, m.ImportRoundKey(a.Service, a.Round, reply.one())
	})
	HandleFunc(s, "mix.round.route", func(a routeArgs) (any, error) {
		return nil, d.openRoute(a)
	})
	HandleFunc(s, "mix.merge.begin", func(a chunkArgs) (any, error) {
		// Idempotent: opening a deposit only validates that this daemon
		// is the round's merge server and the shard is expected. Safe to
		// repeat, so the depositor's dial retry can ride on it.
		_, _, err := d.mergeRoute(a)
		return nil, err
	})
	HandleFunc(s, "mix.merge.chunk", func(a chunkArgs) (any, error) {
		rt, _, err := d.mergeRoute(a)
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		if !rt.resolved && rt.mergeEnded != nil && !rt.mergeEnded[a.Shard] {
			rt.mergeParts[a.Shard] = append(rt.mergeParts[a.Shard], a.blobs...)
			rt.bytesIn += payloadBytes(a.blobs)
		}
		d.mu.Unlock()
		return nil, nil
	})
	HandleFunc(s, "mix.merge.end", func(a chunkArgs) (any, error) {
		rt, k, err := d.mergeRoute(a)
		if err != nil {
			return nil, err
		}
		// The end that completes the set runs the merge: concatenate in
		// shard-index order, seeded shuffle, and move the position's
		// output on. That work belongs on its own goroutine, not in the
		// RPC handler the depositing shard is waiting on.
		go d.addDeposit(k, rt, a.Shard, nil)
		return nil, nil
	})
	// mix.deal.* is the sharded-build intake: the merge server deals each
	// build shard the post-shuffle payloads addressed to that shard's
	// mailbox-ID range. Only non-merge shards whose route carries a CDN
	// address (their publish target) accept the stream.
	dealRoute := func(a roundArgs) (*route, outKey, error) {
		k := outKey{a.Service, a.Round}
		d.mu.Lock()
		rt := d.routes[k]
		d.mu.Unlock()
		if rt == nil {
			return nil, k, errNoRoute(a.Service, a.Round)
		}
		if rt.MergeAddr == "" || rt.CDNAddr == "" {
			return nil, k, fmt.Errorf("rpc: round %d (%s): daemon is not a build shard", a.Round, a.Service)
		}
		return rt, k, nil
	}
	HandleFunc(s, "mix.deal.begin", func(a roundArgs) (any, error) {
		// Idempotent, like mix.merge.begin: validation only, so the merge
		// server's dial retry can ride on it.
		_, _, err := dealRoute(a)
		return nil, err
	})
	HandleFunc(s, "mix.deal.chunk", func(a chunkArgs) (any, error) {
		rt, _, err := dealRoute(roundArgs{Service: a.Service, Round: a.Round})
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		if !rt.resolved && !rt.dealEnded {
			rt.dealParts = append(rt.dealParts, a.blobs...)
			rt.bytesIn += payloadBytes(a.blobs)
		}
		d.mu.Unlock()
		return nil, nil
	})
	HandleFunc(s, "mix.deal.end", func(a roundArgs) (any, error) {
		rt, k, err := dealRoute(a)
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		if rt.resolved || rt.dealEnded {
			d.mu.Unlock()
			return nil, nil
		}
		rt.dealEnded = true
		slice := rt.dealParts
		rt.dealParts = nil
		d.mu.Unlock()
		// Build and publish off the handler goroutine: the merge server is
		// waiting on this reply and has other shards to deal to.
		go func() {
			d.finish(k, rt, d.buildAndPublishSlice(k, rt, slice))
		}()
		return nil, nil
	})
	HandleFunc(s, "mix.round.wait", func(a roundArgs) (any, error) {
		k := outKey{a.Service, a.Round}
		d.mu.Lock()
		rt := d.routes[k]
		d.mu.Unlock()
		if rt == nil {
			return nil, errNoRoute(a.Service, a.Round)
		}
		select {
		case <-rt.done:
			d.mu.Lock()
			reply := waitReply{
				Done:       true,
				Reason:     rt.reason,
				DurationMs: rt.duration.Milliseconds(),
				BytesIn:    rt.bytesIn,
				BytesOut:   rt.bytesOut,
			}
			if rt.err != nil {
				reply.Error = rt.err.Error()
			}
			d.mu.Unlock()
			return reply, nil
		case <-time.After(waitParkInterval):
			return waitReply{}, nil
		}
	})
	HandleFunc(s, "mix.round.abort", func(a abortArgs) (any, error) {
		k := outKey{a.Service, a.Round}
		_ = m.StreamAbort(a.Service, a.Round)
		d.mu.Lock()
		rt := d.routes[k]
		d.mu.Unlock()
		if rt != nil {
			d.finish(k, rt, fmt.Errorf("aborted: %s", a.Reason))
		}
		return nil, nil
	})
	// The onion intake. Every call needs the round's route: the route is
	// where the output goes, so a stream without one would park a batch
	// this daemon can hand to nobody.
	HandleFunc(s, "mix.stream.begin", func(a mixArgs) (any, error) {
		// The first upstream's begin opens the round's one stream (under
		// d.mu, so a racing upstream cannot slip a chunk in before the
		// stream exists); later begins — other upstreams, or a re-send
		// whose reply was lost — join it.
		d.mu.Lock()
		defer d.mu.Unlock()
		rt := d.routes[outKey{a.Service, a.Round}]
		if rt == nil {
			return nil, errNoRoute(a.Service, a.Round)
		}
		if rt.begun {
			return nil, nil
		}
		if err := m.StreamBegin(a.Service, a.Round, a.NumMailboxes); err != nil {
			return nil, err
		}
		rt.begun = true
		return nil, nil
	})
	HandleFunc(s, "mix.stream.chunk", func(a chunkArgs) (any, error) {
		d.mu.Lock()
		rt := d.routes[outKey{a.Service, a.Round}]
		if rt == nil {
			d.mu.Unlock()
			return nil, errNoRoute(a.Service, a.Round)
		}
		rt.bytesIn += payloadBytes(a.blobs)
		d.mu.Unlock()
		return nil, m.StreamChunk(a.Service, a.Round, a.blobs)
	})
	HandleFunc(s, "mix.stream.end", func(a roundArgs) (any, error) {
		k := outKey{a.Service, a.Round}
		d.mu.Lock()
		defer d.mu.Unlock()
		rt := d.routes[k]
		if rt == nil {
			return nil, errNoRoute(a.Service, a.Round)
		}
		// Ends are deduped by UPSTREAM IDENTITY, not counted bare — a
		// restarted upstream re-sending its end must not stand in for
		// one that is still streaming.
		if a.Upstream < 0 || a.Upstream >= len(rt.endedUpstreams) {
			return nil, fmt.Errorf("rpc: round %d (%s): upstream %d outside fan-in of %d", a.Round, a.Service, a.Upstream, len(rt.endedUpstreams))
		}
		rt.endedUpstreams[a.Upstream] = true
		if rt.intakeClosed || slices.Contains(rt.endedUpstreams, false) {
			return nil, nil
		}
		rt.intakeClosed = true
		// Acknowledge intake now; the peel, the merge and the downstream
		// push happen on our own goroutine, and the outcome is reported
		// through mix.round.wait.
		go d.forward(k, rt)
		return nil, nil
	})
	HandleFunc(s, "mix.closeround", func(a roundArgs) (any, error) {
		k := outKey{a.Service, a.Round}
		d.mu.Lock()
		delete(d.keyPeers, k)
		rt := d.routes[k]
		delete(d.routes, k)
		d.mu.Unlock()
		if rt != nil {
			// A still-unresolved route at close time is an abandoned
			// round; unblock any waiter.
			d.resolve(rt, fmt.Errorf("rpc: round %d (%s) closed", a.Round, a.Service))
		}
		m.CloseRound(a.Service, a.Round)
		return nil, nil
	})
	return d
}

// maxFanIn bounds a route's group size and upstream count: both size
// per-route tables, and both arrive as bare integers.
const maxFanIn = 1 << 10

func errNoRoute(service wire.Service, round uint32) error {
	return fmt.Errorf("rpc: round %d (%s) has no route", round, service)
}

// openRoute validates and installs one round's route (mix.round.route).
// The params come off an unauthenticated transport, so every combination
// the data plane cannot run is refused here rather than discovered
// mid-round: a daemon is either its group's lead — output goes to the
// successors, or to the CDN through a build deal over exactly ShardCount
// addresses — or a depositor naming its lead, never both.
func (d *MixerDaemon) openRoute(a routeArgs) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("rpc: round %d (%s): "+format, append([]any{a.Round, a.Service}, args...)...)
	}
	if !d.m.RoundOpen(a.Service, a.Round) {
		return bad("not open")
	}
	if a.ShardIndex < 0 || a.ShardIndex >= a.ShardCount || a.ShardCount > maxFanIn {
		return bad("bad shard index %d/%d", a.ShardIndex, a.ShardCount)
	}
	if a.NumUpstream < 1 || a.NumUpstream > maxFanIn {
		return bad("bad upstream count %d", a.NumUpstream)
	}
	// The route must agree with the shard layout the round's noise was
	// divided under; a mismatch means the coordinator skipped
	// mix.round.shard and the noise floor would be wrong.
	if idx, count := d.m.RoundShard(a.Service, a.Round); idx != a.ShardIndex || count != a.ShardCount {
		return bad("route shard %d/%d conflicts with round layout %d/%d", a.ShardIndex, a.ShardCount, idx, count)
	}
	lead := a.MergeAddr == ""
	switch {
	case !lead && a.ShardCount == 1:
		return bad("a group of one is its own lead")
	case !lead && (len(a.Successors) > 0 || len(a.BuildShards) > 0):
		// A non-lead shard MAY carry a CDN address: that is its
		// build-slice publish target.
		return bad("only the group's lead carries successors or build shards")
	case lead && len(a.Successors) > 0 && (a.CDNAddr != "" || len(a.BuildShards) > 0):
		return bad("a position forwards to successors or publishes to the CDN, not both")
	case lead && len(a.Successors) == 0 && a.CDNAddr == "":
		return bad("route needs a successor or a CDN address")
	case lead && len(a.Successors) == 0 && len(a.BuildShards) != a.ShardCount:
		return bad("%d build shards for %d-shard group", len(a.BuildShards), a.ShardCount)
	}
	k := outKey{a.Service, a.Round}
	d.mu.Lock()
	defer d.mu.Unlock()
	if rt, ok := d.routes[k]; ok {
		// Idempotent re-announce (the coordinator's call layer may
		// retry a lost reply); a CONFLICTING route is an error.
		if reflect.DeepEqual(rt.routeArgs, a) {
			return nil
		}
		return bad("already routed elsewhere")
	}
	rt := &route{
		routeArgs:      a,
		endedUpstreams: make([]bool, a.NumUpstream),
		opened:         time.Now(),
		done:           make(chan struct{}),
	}
	if a.DeadlineMs > 0 {
		rt.deadline = rt.opened.Add(time.Duration(a.DeadlineMs) * time.Millisecond)
	}
	if lead {
		rt.mergeParts = make([][][]byte, a.ShardCount)
		rt.mergeEnded = make([]bool, a.ShardCount)
	}
	d.routes[k] = rt
	return nil
}
