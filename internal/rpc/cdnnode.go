package rpc

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/wire"
)

// This file is the CDN node: the write-plane surfaces of a cdn.Store
// (publish from the mixnet, replicate/pull between CDN nodes) and the
// client read plane (fetch/fetchrange). Mailbox content is public — the
// privacy analysis ends when the last mixer publishes — so this tier is
// ordinary replicated storage: every node ends up holding every sealed
// round, and clients may fetch from any of them (CDNPool fails over).
//
// Security boundary: cdn.publish and cdn.replicate are UNAUTHENTICATED
// WRITE surfaces. They must live on a server-plane listener that
// deployments keep away from clients; otherwise any client could publish
// a round's mailboxes first and censor the real ones. The read surface
// (RegisterCDNFrontend) is safe on a client-facing listener.

// publishBudget bounds the mailbox bytes carried by one cdn.publish call;
// they cross raw, so its frame stays far below the transport cap.
const publishBudget = 4 << 20

// cdnStreamArgs is one call of a mailbox-fragment stream into a staged
// round: cdn.publish from the last mix position, cdn.replicate between CDN
// nodes.
type cdnStreamArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	// Mailbox fragments, keyed by mailbox ID: fragments with one ID
	// concatenate in arrival order, so one huge mailbox can span frames,
	// and an empty one still creates the mailbox.
	keyedBlobs
	// Done commits this stream's contribution to the staged round.
	Done bool `json:"done"`
	// Abort discards the staged round (publisher failed mid-round).
	Abort bool `json:"abort,omitempty"`
	// cdn.publish: the stream is shard Shard of NumShards (>= 1)
	// publishing disjoint mailbox-ID slices of one round. The round seals
	// only when all NumShards streams have sent Done.
	Shard     int `json:"shard,omitempty"`
	NumShards int `json:"num_shards,omitempty"`
	// cdn.replicate: Done carries the round's canonical checksum, so the
	// receiver can verify the reassembled round before sealing it.
	Checksum []byte `json:"checksum,omitempty"`
}

type cdnRoundInfoArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	// All lists every round the node holds (both services); Service and
	// Round are ignored.
	All bool `json:"all,omitempty"`
}

type cdnRoundEntry struct {
	Service  wire.Service `json:"service"`
	Round    uint32       `json:"round"`
	Checksum []byte       `json:"checksum"`
}

type cdnRoundInfoReply struct {
	Rounds []cdnRoundEntry `json:"rounds,omitempty"`
}

// cdnPullArgs pages one sealed round out of a node (restart backfill).
// Cursor is the first mailbox ID wanted; the reply carries whole
// mailboxes from there, budget-bounded but always at least one, plus the
// next cursor.
type cdnPullArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	Cursor  uint32       `json:"cursor"`
}

type cdnPullReply struct {
	keyedBlobs
	Next uint32 `json:"next"`
	Done bool   `json:"done"`
}

const (
	// stagingLimit bounds how many half-published rounds a CDN node
	// stages. A publisher that dies between fragments never sends Done or
	// Abort, so without a cap its partial mailboxes would accumulate
	// forever; beyond the cap the oldest staged round is dropped (that
	// round already failed — its publisher is gone).
	stagingLimit = 8

	// defaultStagingTTL bounds how long an idle half-published round may
	// stage. The count cap alone is time-unbounded: with fewer than
	// stagingLimit abandoned rounds, their partial mailboxes would sit in
	// memory forever. Any write to a staged round refreshes its clock.
	defaultStagingTTL = 2 * time.Minute

	// stagingSweepInterval is how often the TTL sweep runs.
	stagingSweepInterval = time.Second
)

// stagedRound is one half-published round: mailbox fragments concatenated
// in arrival order, which publish streams have finished, and when it was
// last written (TTL eviction).
type stagedRound struct {
	boxes map[uint32][]byte
	// numShards/shardDone track the publish streams: the round seals only
	// when every shard's stream has sent Done. Unused by cdn.replicate,
	// which is one stream.
	numShards int
	shardDone []bool
	lastWrite time.Time
}

// add appends a batch of fragments to the staged mailboxes.
func (st *stagedRound) add(frags keyedBlobs) {
	for i, id := range frags.Keys {
		st.boxes[id] = append(st.boxes[id], frags.blobs[i]...)
	}
	st.lastWrite = time.Now()
}

// CDNDaemon is one CDN node: a cdn.Store plus the staging state behind
// its write surfaces and the replication fan-out to its peers.
type CDNDaemon struct {
	store *cdn.Store

	mu      sync.Mutex
	staging map[outKey]*stagedRound
	order   []outKey
	repl    map[outKey]*stagedRound // cdn.replicate staging, separate keyspace
	peers   []*Client
	ttl     time.Duration

	stagingEvictions atomic.Uint64
	lastSealStreams  atomic.Int64
}

// RegisterCDN exposes a cdn.Store's write plane over RPC — cdn.publish
// for the last mixer position's shard-tagged mailbox streams, and
// cdn.replicate / cdn.roundinfo / cdn.pull for peer CDN nodes — and
// starts the staging TTL sweep (it stops when the server closes).
// Fetching stays on RegisterCDNFrontend / the entry frontend.
func RegisterCDN(s *Server, store *cdn.Store) *CDNDaemon {
	d := &CDNDaemon{
		store:   store,
		staging: make(map[outKey]*stagedRound),
		repl:    make(map[outKey]*stagedRound),
		ttl:     defaultStagingTTL,
	}

	HandleFunc(s, "cdn.publish", func(a cdnStreamArgs) (any, error) {
		return nil, d.publish(a)
	})
	HandleFunc(s, "cdn.replicate", func(a cdnStreamArgs) (any, error) {
		return nil, d.replicate(a)
	})
	HandleFunc(s, "cdn.roundinfo", func(a cdnRoundInfoArgs) (any, error) {
		return d.roundInfo(a), nil
	})
	HandleFunc(s, "cdn.pull", func(a cdnPullArgs) (any, error) {
		return d.pull(a)
	})

	go func() {
		t := time.NewTicker(stagingSweepInterval)
		defer t.Stop()
		for {
			select {
			case <-s.Closing():
				return
			case <-t.C:
				d.sweep(time.Now())
			}
		}
	}()
	return d
}

// SetPeers names the other CDN nodes' ingest addresses. Every round this
// node seals from a publish stream is pushed to each peer; Backfill pulls
// the other direction. Replication is publish-triggered only — a round
// received via cdn.replicate is not re-pushed, so mutual peering does not
// loop.
func (d *CDNDaemon) SetPeers(addrs ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, addr := range addrs {
		d.peers = append(d.peers, Dial(addr))
	}
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

// LastSealStreams is the number of publish streams the most recent seal
// was assembled from: the size of the last position's shard group.
func (d *CDNDaemon) LastSealStreams() int { return int(d.lastSealStreams.Load()) }

// Close closes the daemon's peer connections (the server owns its own).
func (d *CDNDaemon) Close() {
	d.mu.Lock()
	peers := d.peers
	d.peers = nil
	d.mu.Unlock()
	for _, c := range peers {
		c.Close()
	}
}

// dropLocked removes a staged round from the publish keyspace.
func (d *CDNDaemon) dropLocked(k outKey) {
	if _, ok := d.staging[k]; !ok {
		return
	}
	delete(d.staging, k)
	for i, o := range d.order {
		if o == k {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// sweep evicts staged rounds idle past the TTL, in both keyspaces.
func (d *CDNDaemon) sweep(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, st := range d.staging {
		if now.Sub(st.lastWrite) > d.ttl {
			d.dropLocked(k)
			d.stagingEvictions.Add(1)
		}
	}
	for k, st := range d.repl {
		if now.Sub(st.lastWrite) > d.ttl {
			delete(d.repl, k)
			d.stagingEvictions.Add(1)
		}
	}
}

func (d *CDNDaemon) publish(a cdnStreamArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	k := outKey{a.Service, a.Round}
	d.mu.Lock()
	if a.Abort {
		// Any shard's abort discards the whole staged round: a sharded
		// build either seals completely or not at all.
		d.dropLocked(k)
		d.mu.Unlock()
		return nil
	}
	if a.NumShards < 1 || a.NumShards > maxFanIn || a.Shard < 0 || a.Shard >= a.NumShards {
		d.mu.Unlock()
		return fmt.Errorf("cdn: round %d (%s): bad shard %d/%d", a.Round, a.Service, a.Shard, a.NumShards)
	}
	st, ok := d.staging[k]
	if !ok {
		st = &stagedRound{
			boxes:     make(map[uint32][]byte),
			numShards: a.NumShards,
			shardDone: make([]bool, a.NumShards),
		}
		d.staging[k] = st
		d.order = append(d.order, k)
		for len(d.order) > stagingLimit {
			d.dropLocked(d.order[0])
			d.stagingEvictions.Add(1)
		}
	}
	if a.NumShards != st.numShards {
		d.dropLocked(k)
		d.mu.Unlock()
		return fmt.Errorf("cdn: round %d (%s): %d-way stream into %d-way staged round",
			a.Round, a.Service, a.NumShards, st.numShards)
	}
	st.add(a.keyedBlobs)
	if !a.Done {
		d.mu.Unlock()
		return nil
	}
	st.shardDone[a.Shard] = true
	if slices.Contains(st.shardDone, false) {
		// Other shards still streaming; the round seals when the last
		// one finishes.
		d.mu.Unlock()
		return nil
	}
	d.dropLocked(k)
	d.mu.Unlock()

	if err := d.store.PublishOwned(a.Service, a.Round, st.boxes); err != nil {
		return err
	}
	d.lastSealStreams.Store(int64(st.numShards))
	d.pushToPeers(a.Service, a.Round)
	return nil
}

// pushToPeers replicates a freshly sealed round to every peer,
// best-effort and asynchronous: a down peer backfills when it returns.
func (d *CDNDaemon) pushToPeers(service wire.Service, round uint32) {
	d.mu.Lock()
	peers := append([]*Client(nil), d.peers...)
	d.mu.Unlock()
	for _, peer := range peers {
		go func(peer *Client) {
			_ = d.ReplicateRound(peer, service, round)
		}(peer)
	}
}

// ReplicateRound streams one locally sealed round to a peer's
// cdn.replicate surface. Idempotent: a peer that already holds the round
// reports success.
func (d *CDNDaemon) ReplicateRound(peer *Client, service wire.Service, round uint32) error {
	boxes, err := d.store.RoundSnapshot(service, round)
	if err != nil {
		return err
	}
	sum, _ := d.store.Checksum(service, round)
	err = streamRound(boxes, func(frags keyedBlobs, done bool) error {
		a := cdnStreamArgs{Service: service, Round: round, keyedBlobs: frags, Done: done}
		if done {
			a.Checksum = sum[:]
		}
		return peer.CallOnce("cdn.replicate", a, nil)
	})
	if err != nil {
		_ = peer.Call("cdn.replicate", cdnStreamArgs{Service: service, Round: round, Abort: true}, nil)
		return err
	}
	return nil
}

func (d *CDNDaemon) replicate(a cdnStreamArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	k := outKey{a.Service, a.Round}
	if d.store.Published(a.Service, a.Round) {
		// Already sealed (publish raced replication, or a retried Done).
		// Success — replication is idempotent.
		d.mu.Lock()
		delete(d.repl, k)
		d.mu.Unlock()
		return nil
	}
	d.mu.Lock()
	if a.Abort {
		delete(d.repl, k)
		d.mu.Unlock()
		return nil
	}
	st, ok := d.repl[k]
	if !ok {
		st = &stagedRound{boxes: make(map[uint32][]byte)}
		d.repl[k] = st
	}
	st.add(a.keyedBlobs)
	if !a.Done {
		d.mu.Unlock()
		return nil
	}
	delete(d.repl, k)
	boxes := st.boxes
	d.mu.Unlock()

	sum := cdn.RoundChecksum(boxes)
	if !bytes.Equal(sum[:], a.Checksum) {
		return fmt.Errorf("cdn: round %d (%s): replicated round fails checksum", a.Round, a.Service)
	}
	err := d.store.PublishOwned(a.Service, a.Round, boxes)
	if err != nil && d.store.Published(a.Service, a.Round) {
		return nil // lost a race with another replica or the publisher
	}
	return err
}

func (d *CDNDaemon) roundInfo(a cdnRoundInfoArgs) cdnRoundInfoReply {
	var reply cdnRoundInfoReply
	if a.All {
		for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
			for _, info := range d.store.Rounds(service) {
				sum := info.Checksum
				reply.Rounds = append(reply.Rounds, cdnRoundEntry{
					Service: info.Service, Round: info.Round, Checksum: sum[:],
				})
			}
		}
		return reply
	}
	if sum, ok := d.store.Checksum(a.Service, a.Round); ok {
		reply.Rounds = []cdnRoundEntry{{Service: a.Service, Round: a.Round, Checksum: sum[:]}}
	}
	return reply
}

func (d *CDNDaemon) pull(a cdnPullArgs) (cdnPullReply, error) {
	sizes, err := d.store.MailboxSizes(a.Service, a.Round)
	if err != nil {
		return cdnPullReply{}, err
	}
	ids := make([]uint32, 0, len(sizes))
	for id := range sizes {
		if id >= a.Cursor {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)

	var reply cdnPullReply
	var pending int
	for _, id := range ids {
		if len(reply.Keys) > 0 && pending+sizes[id] > publishBudget {
			reply.Next = id
			return reply, nil
		}
		box, err := d.store.RoundSnapshotMailbox(a.Service, a.Round, id)
		if err != nil {
			return cdnPullReply{}, err
		}
		reply.add(id, box)
		pending += len(box)
	}
	reply.Done = true
	return reply, nil
}

// Backfill pulls every sealed round this node is missing from its peers:
// the restart path. A node that was down while rounds sealed probes each
// peer's inventory (cdn.roundinfo), pages missing rounds over cdn.pull,
// verifies each against the peer's advertised checksum, and seals it
// locally. Returns the number of rounds recovered.
func (d *CDNDaemon) Backfill() (int, error) {
	d.mu.Lock()
	peers := append([]*Client(nil), d.peers...)
	d.mu.Unlock()

	recovered := 0
	var firstErr error
	for _, peer := range peers {
		var inv cdnRoundInfoReply
		if err := peer.Call("cdn.roundinfo", cdnRoundInfoArgs{All: true}, &inv); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, entry := range inv.Rounds {
			if d.store.Published(entry.Service, entry.Round) {
				continue
			}
			if err := d.pullRound(peer, entry); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			recovered++
		}
	}
	return recovered, firstErr
}

func (d *CDNDaemon) pullRound(peer *Client, entry cdnRoundEntry) error {
	boxes := make(map[uint32][]byte)
	cursor := uint32(0)
	for {
		var page cdnPullReply
		if err := peer.Call("cdn.pull", cdnPullArgs{
			Service: entry.Service, Round: entry.Round, Cursor: cursor,
		}, &page); err != nil {
			return err
		}
		if err := page.check(); err != nil {
			return err
		}
		for i, id := range page.Keys {
			boxes[id] = page.blobs[i]
		}
		if page.Done {
			break
		}
		if page.Next <= cursor && len(page.Keys) == 0 {
			return fmt.Errorf("cdn: round %d (%s): pull made no progress", entry.Round, entry.Service)
		}
		cursor = page.Next
	}
	sum := cdn.RoundChecksum(boxes)
	if !bytes.Equal(sum[:], entry.Checksum) {
		return fmt.Errorf("cdn: round %d (%s): backfilled round fails checksum", entry.Round, entry.Service)
	}
	err := d.store.PublishOwned(entry.Service, entry.Round, boxes)
	if err != nil && d.store.Published(entry.Service, entry.Round) {
		return nil
	}
	return err
}

// streamRound feeds a round's mailboxes through send in budget-bounded
// fragment batches, in ID order, splitting oversized mailboxes across
// frames; the final call carries done=true (possibly with no fragments).
func streamRound(mailboxes map[uint32][]byte, send func(frags keyedBlobs, done bool) error) error {
	ids := make([]uint32, 0, len(mailboxes))
	for id := range mailboxes {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	var frags keyedBlobs
	var pending int
	flush := func(done bool) error {
		if !done && len(frags.Keys) == 0 {
			return nil
		}
		err := send(frags, done)
		frags, pending = keyedBlobs{}, 0
		return err
	}
	for _, id := range ids {
		data := mailboxes[id]
		for {
			n := min(len(data), publishBudget-pending)
			frags.add(id, data[:n])
			data = data[n:]
			pending += n
			if len(data) == 0 {
				break
			}
			if err := flush(false); err != nil {
				return err
			}
		}
		if pending >= publishBudget {
			if err := flush(false); err != nil {
				return err
			}
		}
	}
	return flush(true)
}

// PublishMailboxes publishes a whole round as its one stream.
func PublishMailboxes(c *Client, service wire.Service, round uint32, mailboxes map[uint32][]byte) error {
	return PublishMailboxesShard(c, service, round, mailboxes, 0, 1)
}

// PublishMailboxesShard streams one shard's slice of a round's mailboxes
// to a cdn.publish endpoint in budget-bounded calls, splitting oversized
// mailboxes across frames. Every frame carries the (shard, numShards) tag
// and the endpoint seals the round only when all numShards streams
// finish. Mailboxes are sent in ID order so runs are reproducible.
// Fragments are sent AT MOST ONCE (a transparent retry after a lost reply
// would concatenate a fragment twice); on a mid-publish failure a
// best-effort abort tells the endpoint to discard the staged round.
func PublishMailboxesShard(c *Client, service wire.Service, round uint32, mailboxes map[uint32][]byte, shard, numShards int) error {
	err := streamRound(mailboxes, func(frags keyedBlobs, done bool) error {
		return c.CallOnce("cdn.publish", cdnStreamArgs{
			Service: service, Round: round, keyedBlobs: frags, Done: done,
			Shard: shard, NumShards: numShards,
		}, nil)
	})
	if err != nil {
		_ = c.Call("cdn.publish", cdnStreamArgs{
			Service: service, Round: round, Abort: true, Shard: shard, NumShards: numShards,
		}, nil)
		return err
	}
	return nil
}
