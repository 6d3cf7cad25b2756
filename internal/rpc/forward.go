package rpc

import (
	"errors"
	"fmt"
	mathrand "math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// This file is the daemon side of the mixnet data plane. There is one way
// a round runs:
//
// A round is one entry of the daemon's one map (MixerDaemon.rounds), which
// a position's announcer makes at mix.newround. Before the batch arrives,
// the coordinator opens the round on every daemon with one call
// (mix.round.open), which opens the daemon's mixnet.Round — its key, noise
// and intake — and installs its ROUTE beside it. A chain position is
// served by a SHARD GROUP of N >= 1 daemons. The route is the plan for
// the daemon's position (wire.RouteSpec): the group, the slot of this
// round's merge LEAD, where the output goes — the next position's full
// shard set, or the CDN — and this daemon's own slot, whence its role.
//
// Every batch enters a daemon over one stream surface,
// mix.stream.begin/chunk/end, whose calls name a STAGE of the round and
// the writer's upstream slot in it. Each stage is a counted fan-in (an
// intake): it completes exactly once, when an end has arrived for each of
// its slots; begins and ends are idempotent per slot. A route has up to
// three stages:
//
//   - peel: the onions the position peels, from the route's NumUpstream
//     writers (the frontends for position 0, all at once, the previous
//     position's lead otherwise). Each member's Round peels its slice as
//     the chunks arrive, each tagged with its writer's slot, and, once the
//     stage completes, adds its divided noise share WITHOUT shuffling, in
//     slot order (mixnet.Round.EndShard).
//   - merge, on the lead: one slot per member, each member's peeled slice
//     (the lead fills its own slot in process). Its completion runs the
//     position's single key-derived shuffle over the concatenated batch
//     (mixnet.Round.Merge), and the lead DEALS its post-shuffle chunks
//     round-robin across the successor shard set's peel stage, or — at the
//     end of the chain — deals request bodies by mailbox ID across its own
//     group.
//   - build, on every other member of the last position: one slot, the
//     lead's deal of this member's mailbox-ID range, which the member
//     builds and publishes over its own shard-tagged cdn.publish stream.
//
// An unsharded position is a group of one: its own lead, a merge of one
// part, a one-slice build. The coordinator only moves control messages; it
// learns each daemon's outcome from the mix.round.wait long-poll. A
// failure propagates as mix.round.abort to whoever waits on the failed
// daemon (abortTargets): from a lead to its successors, from the last
// position's lead to the rest of its group, from any other member to its
// lead; and back to the waiting coordinator. mix.closeround erases the
// round.

type outKey struct {
	service wire.Service
	round   uint32
}

// route is one round's state on a daemon: on an announcer, the key
// mix.newround announced and the hosts allowed to pull it
// (newRoundArgs.Peers); from mix.round.open, the daemon's mixnet.Round and
// its forwarding assignment, resolved exactly once (completion or abort).
type route struct {
	key          *onionbox.PrivateKey
	announcement wire.MixerRoundKey
	peers        []string

	// mix is nil until the open succeeds, and the fields below with it.
	mix *mixnet.Round
	// The assignment as opened: the position's plan and this daemon's slot
	// in it, whence its roles (see wire.RouteSpec and the methods below).
	openArgs

	// The round's stages, nil where the route has none (see stage).
	intakes [numStages]*intake

	// Per-round data-plane deadline (RouteSpec.DeadlineMs): peer-dial
	// retries give up once it passes instead of burning the round
	// against a dead peer. Zero means no deadline.
	deadline time.Time

	// Self-reported accounting for mix.round.wait. The clock starts at
	// the first mix.stream.begin, not at open: the submit window between
	// open and close is the clients' time, not the daemon's. Zero until
	// then.
	opened   time.Time
	duration time.Duration
	bytesIn  uint64
	bytesOut uint64

	done     chan struct{} // closed when err is final
	err      error
	reason   string // abort-reason code (wire.Abort*), "" on success
	resolved bool
}

// A stage is one of a round's intakes on a daemon (see the top of this
// file).
type stage int

const (
	stagePeel  stage = iota // NumUpstream slots
	stageMerge              // on the lead: one slot per Group member
	stageBuild              // on a non-lead member of the last position: one slot
	numStages
)

// An intake is one stage's counted fan-in: a slot per upstream writer,
// the parts each slot delivered (the peel's go straight to the Round
// instead) and a latch per slot for its end. Ends are deduped by slot, so
// a duplicated or re-sent end cannot complete the stage early or twice.
type intake struct {
	begun bool
	parts [][][]byte
	ended []bool
}

func newIntake(slots int) *intake {
	return &intake{parts: make([][][]byte, slots), ended: make([]bool, slots)}
}

// end latches slot's end and reports whether that completed the stage,
// which happens once: at the end that latches the last open slot.
func (in *intake) end(slot int) bool {
	if in.ended[slot] {
		return false
	}
	in.ended[slot] = true
	return !slices.Contains(in.ended, false)
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

// openArgs is mix.round.open's: the round and the daemon's whole
// assignment in it.
type openArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	wire.RouteSpec
}

// A daemon's roles in a round, worked out from its route (see
// wire.RouteSpec); openRound keeps both slots inside the group.
func (a *openArgs) lead() bool { return a.ShardIndex == a.Lead }
func (a *openArgs) last() bool { return a.CDNAddr != "" }

// keySource is the announcer to pull the round key from, "" on itself.
func (a *openArgs) keySource() string {
	if a.ShardIndex == 0 {
		return ""
	}
	return a.Group[0]
}

// mergeTarget is the lead to deposit the peeled slice at, "" on itself.
func (a *openArgs) mergeTarget() string {
	if a.lead() {
		return ""
	}
	return a.Group[a.Lead]
}

// buildSet is the group the last position's lead deals its batch across
// by mailbox ID; nil on every other daemon.
func (a *openArgs) buildSet() []string {
	if !a.lead() || !a.last() {
		return nil
	}
	return a.Group
}

// abortTargets are the daemons waiting on this one, which its failure
// releases: a member's lead, a lead's successors, or the rest of the last
// position's group.
func (a *openArgs) abortTargets() []string {
	switch {
	case !a.lead():
		return []string{a.Group[a.Lead]}
	case !a.last():
		return a.Successors
	}
	return slices.Delete(slices.Clone(a.Group), a.ShardIndex, a.ShardIndex+1)
}

// newRoundArgs is mix.newround's. Peers is set on a shard group's
// announcer: the dial addresses of every member the coordinator planned
// into the group (drafted spares included), the only hosts its
// mix.round.exportkey serves the round key to.
type newRoundArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	Peers   []string     `json:"peers,omitempty"`
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

// keyReply is mix.round.exportkey's: the round private key as its one
// blob, which the server zeroes, with the frame, once it is written.
type keyReply struct{ blobs }

// streamArgs is every mix.stream call's: the round, the stage it feeds
// and the writer's slot in that stage (for the merge, the depositing
// member's shard index); a chunk carries its messages in its blobs. A
// stream names nothing of the plan: the daemon has the round's numbers
// from its route.
type streamArgs struct {
	Service  wire.Service `json:"service"`
	Round    uint32       `json:"round"`
	Stage    stage        `json:"stage,omitempty"`
	Upstream int          `json:"upstream,omitempty"`
	blobs
}

// MixerDaemon is the RPC-facing state of one mixer daemon: its rounds and
// cached connections to peers. RegisterMixer returns it so daemon
// binaries and tests can inspect round-state hygiene.
type MixerDaemon struct {
	m *mixnet.Server
	peerSet

	// openMu serializes mix.round.open and mix.closeround, so a re-sent
	// open waits for the first to finish and then finds its route, and a
	// close never lands inside an open.
	openMu sync.Mutex

	// mu guards rounds, the one record of which rounds exist here, and
	// the routes in it.
	mu     sync.Mutex
	rounds map[outKey]*route
}

// PendingRounds returns the number of rounds the daemon holds state for:
// an announced key or a route. After a round closes (or aborts and
// closes), this must drop back toward zero — a leaked round is a leaked
// round key.
func (d *MixerDaemon) PendingRounds() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rounds)
}

// routed returns the round's route, or an error if it has not been opened
// here. The caller holds d.mu.
func (d *MixerDaemon) routed(service wire.Service, round uint32) (*route, error) {
	rt := d.rounds[outKey{service, round}]
	if rt == nil || rt.mix == nil {
		return nil, fmt.Errorf("rpc: round %d (%s) has no route", round, service)
	}
	return rt, nil
}

// entry returns the round's entry, making an empty one if there is none.
// The caller holds d.mu.
func (d *MixerDaemon) entry(k outKey) *route {
	if d.rounds[k] == nil {
		d.rounds[k] = &route{}
	}
	return d.rounds[k]
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
	if !rt.opened.IsZero() {
		rt.duration = time.Since(rt.opened)
	}
	close(rt.done)
	return true
}

// finish resolves the route with the outcome of this daemon's data-plane
// role. On failure it also aborts the round at every daemon waiting on
// this one (abortTargets), so nothing downstream keeps waiting for chunks,
// deposits or build slices that will never come.
func (d *MixerDaemon) finish(k outKey, rt *route, err error) {
	if !d.resolve(rt, err) || err == nil {
		return
	}
	for _, addr := range rt.abortTargets() {
		go func(addr string) {
			_ = d.peer(addr).Call("mix.round.abort", abortArgs{
				Service: k.service, Round: k.round, Reason: err.Error(),
			}, nil)
		}(addr)
	}
}

// complete runs what follows a stage's completion, off the RPC handler:
// the peel's forward, the lead's merge, or a build shard's build and
// publish of its dealt slice. A round that failed meanwhile runs nothing.
func (d *MixerDaemon) complete(k outKey, rt *route, st stage) {
	d.mu.Lock()
	parts, resolved := rt.intakes[st].parts, rt.resolved
	rt.intakes[st].parts = nil
	d.mu.Unlock()
	switch {
	case resolved:
	case st == stagePeel:
		d.forward(k, rt)
	case st == stageMerge:
		d.merge(k, rt, parts)
	default:
		d.finish(k, rt, d.buildAndPublishSlice(k, rt, parts[0]))
	}
}

// forward is the daemon's data-plane role once its peel stage completes:
// finish the local peel + noise share (Round.EndShard; the shuffle happens
// once, over the whole position's batch, at the group's merge) and either
// stream the slice to the lead's merge stage or — on the lead itself —
// fill its own merge slot, which may complete the merge.
func (d *MixerDaemon) forward(k outKey, rt *route) {
	out, err := rt.mix.EndShard()
	if err != nil {
		d.finish(k, rt, err)
		return
	}
	if rt.lead() {
		d.mu.Lock()
		in := rt.intakes[stageMerge]
		in.parts[rt.ShardIndex] = out
		done := in.end(rt.ShardIndex)
		d.mu.Unlock()
		if done {
			d.complete(k, rt, stageMerge)
		}
		return
	}
	if err := d.pushStream(rt, []string{rt.mergeTarget()}, stageMerge, rt.ShardIndex, out); err != nil || !rt.last() {
		d.finish(k, rt, err)
	}
	// Otherwise this is a build shard of the last position and its duty
	// is not done at deposit: the lead deals back this shard's
	// mailbox-ID slice to its build stage, and the route resolves once
	// the slice is built and published over the shard's own cdn.publish
	// stream.
}

// dealMailboxBuild distributes the last position's post-shuffle batch by
// MAILBOX ID across the shard group (lead only): shard s gets the
// payloads addressed to its contiguous ID range (mixnet.ShardRange), in
// batch order, on its build stage. Cover traffic, malformed payloads,
// and out-of-range mailboxes are dropped here — exactly the payloads
// BuildMailboxesRange would drop — so the per-shard builds are byte-identical
// to the single-machine build. The lead's own slice never crosses the
// network; it is built and published concurrently with the deals.
func (d *MixerDaemon) dealMailboxBuild(k outKey, rt *route, out [][]byte) {
	n := len(rt.Group)
	// bounds[s] is where shard s's range ends, so mailbox m belongs to the
	// first shard whose range ends past m.
	bounds := make([]uint32, n)
	for s := range bounds {
		_, bounds[s] = mixnet.ShardRange(rt.NumMailboxes, s, n)
	}
	perShard := make([][][]byte, n)
	for _, data := range out {
		payload, err := wire.UnmarshalMixPayload(k.service, data)
		if err != nil || payload.Mailbox == wire.CoverMailbox || payload.Mailbox >= rt.NumMailboxes {
			continue
		}
		s, _ := slices.BinarySearch(bounds, payload.Mailbox+1)
		perShard[s] = append(perShard[s], data)
	}

	d.finish(k, rt, fanOut(rt.buildSet(), func(s int, addr string) error {
		if s == rt.ShardIndex {
			return d.buildAndPublishSlice(k, rt, perShard[s])
		}
		return d.pushStream(rt, []string{addr}, stageBuild, 0, perShard[s])
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
// cdn.publish stream. The CDN seals the round only after one stream per
// group member completes.
func (d *MixerDaemon) buildAndPublishSlice(k outKey, rt *route, slice [][]byte) error {
	lo, hi := mixnet.ShardRange(rt.NumMailboxes, rt.ShardIndex, len(rt.Group))
	boxes, err := mixnet.BuildMailboxesRange(k.service, lo, hi, slice)
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
	return PublishMailboxesShard(d.peer(rt.CDNAddr), k.service, k.round, boxes, rt.ShardIndex, len(rt.Group))
}

// merge is the lead's merge stage completing, with every member's peeled
// slice in shard-index order: the slices are concatenated and shuffled
// ONCE with the round key's derived permutation (mixnet.Round.Merge), then
// the position's output moves on.
func (d *MixerDaemon) merge(k outKey, rt *route, parts [][][]byte) {
	out, err := rt.mix.Merge(parts)
	switch {
	case err != nil:
		d.finish(k, rt, err)
	case !rt.last():
		// Deal the position's output across the successor position's
		// shard set.
		d.finish(k, rt, d.pushStream(rt, rt.Successors, stagePeel, 0, out))
	default:
		// The end of the chain: deal it BY MAILBOX ID across the
		// position's own shard group, so that every member builds and
		// publishes only its own ID range.
		d.dealMailboxBuild(k, rt, out)
	}
}

// streamChunk is how many messages push puts in one mix.stream.chunk
// call: each sender's own framing, the same for every batch, which no
// receiver needs to know. Only tests change it (SetStreamChunk), before
// they build a network.
var streamChunk = mixnet.DefaultStreamChunk

// push is the one way a batch crosses to a shard set, for a frontend
// feeding position 0 and for a daemon dealing, depositing or handing out
// a build slice: one mix.stream per shard, every call under header hdr.
// It deals batch in streamChunk-message chunks, chunk i to addrs[i mod N]
// — deterministic, so sharding never hides nondeterminism in the data
// plane — and sends each shard its chunks over its own stream, all shards
// at once, slicing the batch in place.
//
// Each stream's begin, which the daemon serves idempotently, retries
// transport failures (a peer still binding, a connection gone stale
// across a peer's restart) with backed-off, jittered attempts. A nonzero
// deadline bounds the retries: against a peer that is DEAD rather than
// starting, the sender stops burning the round once it passes and the
// failure is classified slow, not crashed-here. The chunks and the end go
// AT MOST ONCE: a retry after a lost reply would append a chunk twice and
// corrupt the batch, so a mid-stream transport failure fails the round
// instead, and the next round carries the traffic.
func (p *peerSet) push(addrs []string, hdr streamArgs, batch [][]byte, deadline time.Time) error {
	chunkSize := streamChunk
	return fanOut(addrs, func(s int, addr string) error {
		c, err := p.openStream(addr, hdr, deadline)
		if err != nil {
			return err
		}
		chunk := hdr
		for lo := s * chunkSize; lo < len(batch); lo += len(addrs) * chunkSize {
			chunk.blobs = batch[lo:min(lo+chunkSize, len(batch))]
			if err := c.CallOnce("mix.stream.chunk", chunk, nil); err != nil {
				return fmt.Errorf("rpc: mix.stream.chunk to %s: %w", addr, err)
			}
		}
		if err := c.CallOnce("mix.stream.end", hdr, nil); err != nil {
			return fmt.Errorf("rpc: mix.stream.end to %s: %w", addr, err)
		}
		return nil
	})
}

// openStream sends a stream's begin to addr, retrying transport failures
// up to forwardDialAttempts times or until deadline (push).
func (p *peerSet) openStream(addr string, hdr streamArgs, deadline time.Time) (*Client, error) {
	c := p.peer(addr)
	var err error
	for attempt := 0; attempt < forwardDialAttempts; attempt++ {
		if attempt > 0 {
			backoff := forwardDialBackoff << (attempt - 1)
			backoff += time.Duration(mathrand.Int63n(int64(backoff)))
			if !deadline.IsZero() && time.Now().Add(backoff).After(deadline) {
				return nil, fmt.Errorf("%w: opening stream to %s: %v", errRoundDeadline, addr, err)
			}
			time.Sleep(backoff)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: opening stream to %s", errRoundDeadline, addr)
		}
		err = c.CallOnce("mix.stream.begin", hdr, nil)
		if err == nil || !errors.Is(err, ErrTransport) {
			// Handler errors won't improve with a re-send; only
			// transport failures are worth the backoff.
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("rpc: opening stream to %s: %w", addr, err)
	}
	return c, nil
}

// pushStream pushes batch to stage st of a shard set for the route, as
// upstream writer upstream: the successor shards' peel, the lead's merge,
// or a member's build. The route's deadline bounds the begin's retries,
// and what went out counts toward the daemon's reported bytes.
func (d *MixerDaemon) pushStream(rt *route, addrs []string, st stage, upstream int, batch [][]byte) error {
	hdr := streamArgs{Service: rt.Service, Round: rt.Round, Stage: st, Upstream: upstream}
	if err := d.push(addrs, hdr, batch, rt.deadline); err != nil {
		return err
	}
	d.mu.Lock()
	rt.bytesOut += payloadBytes(batch)
	d.mu.Unlock()
	return nil
}

// payloadBytes is the total length of a batch's messages.
func payloadBytes(batch [][]byte) (n uint64) {
	for _, msg := range batch {
		n += uint64(len(msg))
	}
	return n
}

// RegisterMixer exposes a mixnet.Server over RPC: round set-up and the
// routed data plane described at the top of this file.
func RegisterMixer(s *Server, m *mixnet.Server) *MixerDaemon {
	d := &MixerDaemon{m: m, rounds: make(map[outKey]*route)}

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
	HandleFunc(s, "mix.newround", func(a newRoundArgs) (any, error) {
		// Idempotent: a re-sent newround returns the same announcement.
		if err := checkAddrs(a.Peers); err != nil {
			return nil, fmt.Errorf("rpc: round %d (%s): peers: %w", a.Round, a.Service, err)
		}
		k := outKey{a.Service, a.Round}
		d.mu.Lock()
		defer d.mu.Unlock()
		rt := d.rounds[k]
		if rt == nil || rt.key == nil {
			key, announcement, err := m.Announce(a.Service, a.Round)
			if err != nil {
				return nil, err
			}
			rt = d.entry(k)
			rt.key, rt.announcement = key, announcement
		}
		if len(a.Peers) > 0 {
			// The allowlist is in place before the coordinator sends any
			// member the open that makes it pull the key.
			rt.peers = a.Peers
		}
		return rt.announcement, nil
	})
	HandlePeerFunc(s, "mix.round.exportkey", func(peerAddr string, a roundArgs) (any, error) {
		// Serves the round onion private key to the OTHER shards of this
		// position (one logical server split across machines). Like
		// cdn.publish, this surface must stay off the client plane, and
		// only the announcer serves it, to the hosts of the shard network
		// its mix.newround named: topology is verified here instead of
		// merely trusted. A round with no allowlist exports to nobody.
		caller := hostOf(peerAddr)
		d.mu.Lock()
		defer d.mu.Unlock()
		rt := d.rounds[outKey{a.Service, a.Round}] // an allowlist comes with a key
		if rt == nil || !slices.ContainsFunc(rt.peers, func(p string) bool { return hostOf(p) == caller }) {
			return nil, fmt.Errorf("rpc: round %d (%s): caller %s is outside the round's shard network", a.Round, a.Service, caller)
		}
		key, err := m.ExportKey(rt.key)
		if err != nil {
			return nil, err
		}
		return keyReply{blobs{key}}, nil
	})
	HandleFunc(s, "mix.round.open", func(a openArgs) (any, error) {
		return nil, d.openRound(a)
	})
	for _, method := range []string{"mix.stream.begin", "mix.stream.chunk", "mix.stream.end"} {
		method := method
		HandleFunc(s, method, func(a streamArgs) (any, error) {
			return nil, d.stream(method, a)
		})
	}
	HandleFunc(s, "mix.round.wait", func(a roundArgs) (any, error) {
		d.mu.Lock()
		rt, err := d.routed(a.Service, a.Round)
		d.mu.Unlock()
		if err != nil {
			return nil, err
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
		d.mu.Lock()
		rt, err := d.routed(a.Service, a.Round)
		d.mu.Unlock()
		if err == nil {
			rt.mix.Abort()
			d.finish(outKey{a.Service, a.Round}, rt, fmt.Errorf("aborted: %s", a.Reason))
		}
		return nil, nil
	})
	HandleFunc(s, "mix.closeround", func(a roundArgs) (any, error) {
		d.openMu.Lock()
		defer d.openMu.Unlock()
		k := outKey{a.Service, a.Round}
		d.mu.Lock()
		rt := d.rounds[k]
		delete(d.rounds, k)
		d.mu.Unlock()
		if rt == nil {
			return nil, nil
		}
		if rt.mix != nil {
			// A still-unresolved route at close time is an abandoned
			// round; unblock any waiter.
			d.resolve(rt, fmt.Errorf("rpc: round %d (%s) closed", a.Round, a.Service))
			rt.mix.Close()
		}
		// After the Round's Close, which waits for its peels: it may hold
		// this same key.
		if rt.key != nil {
			rt.key.Erase()
		}
		return nil, nil
	})
	return d
}

// stream is mix.stream.begin, .chunk and .end (method): it admits the
// call to its stage's intake and, when the call is the end that completes
// the stage, starts what follows on its own goroutine. The caller is
// acknowledged at once; the outcome goes out through mix.round.wait.
func (d *MixerDaemon) stream(method string, a streamArgs) error {
	rt, done, err := d.admit(method, a)
	if done {
		go d.complete(outKey{a.Service, a.Round}, rt, a.Stage)
	}
	return err
}

// admit applies one mix.stream call to the round's intake for its stage
// and reports whether it completed the stage. Every call needs the round's
// route: the route is where the output goes, so a stream without one
// would park a batch this daemon can hand to nobody. A refused call
// changes nothing.
func (d *MixerDaemon) admit(method string, a streamArgs) (*route, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rt, err := d.routed(a.Service, a.Round)
	if err != nil {
		return nil, false, err
	}
	bad := func(format string, args ...any) (*route, bool, error) {
		return nil, false, fmt.Errorf("rpc: round %d (%s): %s stage %d upstream %d: "+format,
			append([]any{a.Round, a.Service, method, a.Stage, a.Upstream}, args...)...)
	}
	var in *intake
	if a.Stage >= 0 && a.Stage < numStages {
		in = rt.intakes[a.Stage]
	}
	switch {
	case in == nil:
		return bad("no such stage here")
	case a.Upstream < 0 || a.Upstream >= len(in.ended):
		return bad("outside a fan-in of %d", len(in.ended))
	case a.Stage == stageMerge && a.Upstream == rt.ShardIndex:
		return bad("the lead's own slice is deposited in process")
	}
	switch method {
	case "mix.stream.begin":
		in.begun = true
		if rt.opened.IsZero() {
			// The first begin starts the round's clock and its deadline.
			rt.opened = time.Now()
			if rt.DeadlineMs > 0 {
				rt.deadline = rt.opened.Add(time.Duration(rt.DeadlineMs) * time.Millisecond)
			}
		}
	case "mix.stream.chunk":
		if !in.begun || in.ended[a.Upstream] {
			return bad("no stream in progress")
		}
		if a.Stage == stagePeel {
			if err := rt.mix.Chunk(a.Upstream, a.blobs); err != nil {
				return nil, false, err
			}
		} else {
			in.parts[a.Upstream] = append(in.parts[a.Upstream], a.blobs...)
		}
		rt.bytesIn += payloadBytes(a.blobs)
	default:
		return rt, in.end(a.Upstream), nil
	}
	return rt, false, nil
}

// maxFanIn bounds a route's group size and upstream count and every
// address list off the wire, and maxMailboxes a route's mailbox count:
// each sizes a table (the mailbox count the round's noise) or costs a
// goroutine or a dial per entry, and each arrives unauthenticated.
const (
	maxFanIn     = 1 << 10
	maxMailboxes = 1 << 16
)

// checkAddrs refuses an address list off the wire that is longer than
// maxFanIn or holds an empty address.
func checkAddrs(addrs []string) error {
	if len(addrs) > maxFanIn {
		return fmt.Errorf("%d addresses, more than %d", len(addrs), maxFanIn)
	}
	if slices.Contains(addrs, "") {
		return errors.New("an empty address")
	}
	return nil
}

// openRound runs one daemon's round set-up (mix.round.open): check the
// route, pull the round key from the announcer unless this daemon is it
// (keySource), open the mixnet.Round — which checks the shard layout, the
// downstream keys and the key, and starts the noise — and install the
// route beside it. The params come off an unauthenticated transport, so
// everything is checked before anything changes: the group, the slots in
// it, the counts, and where the output goes, which is exactly one of the
// successors and the CDN, and the CDN exactly at the chain's last
// position. A refused open leaves no route and no noise behind.
func (d *MixerDaemon) openRound(a openArgs) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("rpc: round %d (%s): "+format, append([]any{a.Round, a.Service}, args...)...)
	}
	if err := checkAddrs(a.Group); err != nil {
		return bad("group: %v", err)
	}
	if n := len(a.Group); a.ShardIndex < 0 || a.ShardIndex >= n || a.Lead < 0 || a.Lead >= n {
		return bad("bad slot %d or lead %d in a group of %d", a.ShardIndex, a.Lead, n)
	}
	if a.NumUpstream < 1 || a.NumUpstream > maxFanIn {
		return bad("bad upstream count %d", a.NumUpstream)
	}
	if a.NumMailboxes > maxMailboxes {
		return bad("%d mailboxes", a.NumMailboxes)
	}
	if err := checkAddrs(a.Successors); err != nil {
		return bad("successors: %v", err)
	}
	if (len(a.Successors) > 0) == a.last() {
		return bad("a route needs exactly one of successors and a CDN address")
	}
	if a.last() != (d.m.Position == d.m.ChainLength-1) {
		return bad("a route for the other end of the chain at position %d of %d", d.m.Position, d.m.ChainLength)
	}
	d.openMu.Lock()
	defer d.openMu.Unlock()
	k := outKey{a.Service, a.Round}
	spec := mixnet.RoundSpec{
		Service: a.Service, Round: a.Round, ShardIndex: a.ShardIndex, ShardCount: len(a.Group),
		Downstream: a.DownstreamKeys, NumMailboxes: a.NumMailboxes,
	}
	d.mu.Lock()
	rt := d.rounds[k]
	if rt != nil && a.ShardIndex == 0 {
		spec.Key = rt.key
	}
	d.mu.Unlock()
	// rt.mix and rt.openArgs change only here, under openMu.
	if rt != nil && rt.mix != nil {
		// A re-sent open (the coordinator's call layer retries a lost
		// reply) changes nothing; a CONFLICTING one is an error.
		if reflect.DeepEqual(rt.openArgs, a) {
			return nil
		}
		return bad("already routed elsewhere")
	}
	if src := a.keySource(); src != "" {
		// The private key moves server-to-server inside the group's trust
		// domain; the coordinator only plans the group. The key is a blob
		// of the reply's frame buffer, which Open zeroes.
		var reply keyReply
		if err := d.peer(src).Call("mix.round.exportkey", roundArgs{Service: a.Service, Round: a.Round}, &reply); err != nil {
			return fmt.Errorf("rpc: fetching round key from %s: %w", src, err)
		}
		spec.Import = reply.one()
	}
	mix, err := d.m.Open(spec)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rt = d.entry(k)
	rt.mix, rt.openArgs = mix, a
	rt.done = make(chan struct{})
	rt.intakes[stagePeel] = newIntake(a.NumUpstream)
	switch {
	case a.lead():
		rt.intakes[stageMerge] = newIntake(len(a.Group))
	case a.last():
		rt.intakes[stageBuild] = newIntake(1)
	}
	return nil
}
