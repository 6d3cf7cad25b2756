package rpc_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// cdnNode is one CDN node under test: store, read/ingest listeners, and
// the daemon handle.
type cdnNode struct {
	store      *cdn.Store
	daemon     *rpc.CDNDaemon
	readSrv    *rpc.Server
	ingestSrv  *rpc.Server
	readAddr   string
	ingestAddr string
}

// startCDNNode brings up a CDN node. dir == "" uses the memory backend.
func startCDNNode(t *testing.T, dir string) *cdnNode {
	t.Helper()
	var store *cdn.Store
	var err error
	if dir != "" {
		store, err = cdn.OpenDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		store = cdn.NewStore(0)
	}
	n := &cdnNode{store: store}
	n.ingestSrv = rpc.NewServer()
	n.daemon = rpc.RegisterCDN(n.ingestSrv, store)
	if n.ingestAddr, err = n.ingestSrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.ingestSrv.Close)
	n.readSrv = rpc.NewServer()
	rpc.RegisterCDNFrontend(n.readSrv, store)
	if n.readAddr, err = n.readSrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.readSrv.Close)
	t.Cleanup(n.daemon.Close)
	return n
}

// holdDead binds addr for the rest of the test to a listener that closes
// every connection it accepts: a dead node's address, which no later
// listener can take.
func holdDead(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
}

func cdnTestRound(seed byte, boxes int) map[uint32][]byte {
	out := make(map[uint32][]byte, boxes)
	for i := 0; i < boxes; i++ {
		data := make([]byte, 32+i*11)
		for j := range data {
			data[j] = seed + byte(i*3) ^ byte(j)
		}
		out[uint32(i)] = data
	}
	return out
}

func waitPublished(t *testing.T, s *cdn.Store, service wire.Service, round uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Published(service, round) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("round %d (%s) never replicated", round, service)
}

// sealedNotice is the cdn.sealed params: the round a peer just sealed.
type sealedNotice struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
}

// TestCDNReplicationTwoNodes publishes a round to one of two mutually
// peered disk-backed nodes: the sealed round must appear on the peer with
// an identical content checksum, and a re-sent notice must be a no-op
// success.
func TestCDNReplicationTwoNodes(t *testing.T) {
	a := startCDNNode(t, t.TempDir())
	b := startCDNNode(t, t.TempDir())
	a.daemon.SetPeers(b.ingestAddr)
	b.daemon.SetPeers(a.ingestAddr)

	boxes := cdnTestRound(1, 6)
	pub := rpc.Dial(a.ingestAddr)
	defer pub.Close()
	if err := rpc.PublishMailboxes(pub, wire.Dialing, 1, boxes); err != nil {
		t.Fatal(err)
	}
	waitPublished(t, b.store, wire.Dialing, 1)

	sa, _ := a.store.Checksum(wire.Dialing, 1)
	sb, ok := b.store.Checksum(wire.Dialing, 1)
	if !ok || sa != sb {
		t.Fatalf("replica checksum mismatch: %x vs %x", sa, sb)
	}
	for id, want := range boxes {
		got, err := b.store.Fetch(wire.Dialing, 1, id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica mailbox %d: %v", id, err)
		}
	}
	// Re-sending the notice for an already-held round is a no-op success.
	nb := rpc.Dial(b.ingestAddr)
	defer nb.Close()
	if err := nb.Call("cdn.sealed", sealedNotice{wire.Dialing, 1}, nil); err != nil {
		t.Fatalf("re-sent notice: %v", err)
	}
	if sb2, _ := b.store.Checksum(wire.Dialing, 1); sb2 != sb {
		t.Fatal("re-sent notice changed the replica")
	}
}

// TestCDNSealedNotice pins the notice contract: a cdn.sealed notice makes
// a node pull the round from the peers it lists itself. A notice for a
// round no listed peer holds seals nothing, a node that does not list the
// notifier seals nothing, and a node that does holds the notifier's bytes.
func TestCDNSealedNotice(t *testing.T) {
	a := startCDNNode(t, "")
	lists := startCDNNode(t, "")
	stranger := startCDNNode(t, "")
	other := startCDNNode(t, "")
	a.daemon.SetPeers(lists.ingestAddr, stranger.ingestAddr)
	lists.daemon.SetPeers(a.ingestAddr)
	stranger.daemon.SetPeers(other.ingestAddr)

	boxes := cdnTestRound(5, 4)
	pub := rpc.Dial(a.ingestAddr)
	defer pub.Close()
	if err := rpc.PublishMailboxes(pub, wire.Dialing, 1, boxes); err != nil {
		t.Fatal(err)
	}
	waitPublished(t, lists.store, wire.Dialing, 1)
	for id, want := range boxes {
		got, err := lists.store.Fetch(wire.Dialing, 1, id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("listing node mailbox %d: %v", id, err)
		}
	}

	notify := func(n *cdnNode, service wire.Service, round uint32) {
		t.Helper()
		c := rpc.Dial(n.ingestAddr)
		defer c.Close()
		if err := c.Call("cdn.sealed", sealedNotice{service, round}, nil); err != nil {
			t.Fatalf("notice for round %d: %v", round, err)
		}
	}
	// No listed peer holds add-friend round 7: the notice returns and
	// nothing seals.
	notify(lists, wire.AddFriend, 7)
	if lists.store.Published(wire.AddFriend, 7) {
		t.Fatal("a notice for a round no peer holds sealed it")
	}
	// The stranger lists a node that lacks the round, not the notifier:
	// the notice a sent when it sealed, and this one, pull nothing.
	notify(stranger, wire.Dialing, 1)
	if stranger.store.Published(wire.Dialing, 1) {
		t.Fatal("a node that does not list the notifier sealed its round")
	}
}

// TestCDNPoolFailover drains a client backlog through a 2-node pool,
// kills the pool's current node mid-backlog, and drains again: the
// surviving replica must serve the same bytes with no client-visible
// error (reads rotate and retry once).
func TestCDNPoolFailover(t *testing.T) {
	a := startCDNNode(t, "")
	b := startCDNNode(t, "")
	a.daemon.SetPeers(b.ingestAddr)
	b.daemon.SetPeers(a.ingestAddr)

	pub := rpc.Dial(a.ingestAddr)
	defer pub.Close()
	rounds := map[uint32]map[uint32][]byte{}
	for r := uint32(1); r <= 4; r++ {
		rounds[r] = cdnTestRound(byte(r), 4)
		if err := rpc.PublishMailboxes(pub, wire.Dialing, r, rounds[r]); err != nil {
			t.Fatal(err)
		}
		waitPublished(t, b.store, wire.Dialing, r)
	}

	pool := rpc.DialCDNPool(a.readAddr, b.readAddr)
	defer pool.Close()
	ctx := context.Background()
	drain := func() map[uint32][]byte {
		t.Helper()
		got, err := pool.FetchRange(ctx, wire.Dialing, 1, 4, 2)
		if err != nil {
			t.Fatalf("backlog drain failed: %v", err)
		}
		if len(got) != 4 {
			t.Fatalf("drained %d rounds, want 4", len(got))
		}
		return got
	}
	before := drain()

	// Kill the node the pool is currently reading from.
	a.readSrv.Close()
	after := drain()
	for r := uint32(1); r <= 4; r++ {
		if !bytes.Equal(before[r], after[r]) {
			t.Fatalf("round %d differs across failover", r)
		}
		if !bytes.Equal(after[r], rounds[r][2]) {
			t.Fatalf("round %d differs from published bytes", r)
		}
	}
	if pool.Addr() != b.readAddr {
		t.Fatalf("pool still points at the dead node")
	}
	// Single fetches keep working on the survivor too.
	box, err := pool.Fetch(ctx, wire.Dialing, 3, 1)
	if err != nil || !bytes.Equal(box, rounds[3][1]) {
		t.Fatalf("post-failover fetch: %v", err)
	}
}

// TestCDNRestartBackfill kills a disk node after rounds sealed elsewhere,
// restarts it from its data directory, and backfills: rounds it held
// reload byte-identically from disk, rounds it missed arrive from the
// peer checksum-verified.
func TestCDNRestartBackfill(t *testing.T) {
	dirA := t.TempDir()
	a := startCDNNode(t, dirA)
	b := startCDNNode(t, "")
	a.daemon.SetPeers(b.ingestAddr)
	b.daemon.SetPeers(a.ingestAddr)

	pub := rpc.Dial(a.ingestAddr)
	r1 := cdnTestRound(1, 5)
	if err := rpc.PublishMailboxes(pub, wire.Dialing, 1, r1); err != nil {
		t.Fatal(err)
	}
	waitPublished(t, b.store, wire.Dialing, 1)
	pub.Close()

	// Node A dies (listeners down, store abandoned un-Closed — the disk
	// state is already fsync'd). Round 2 seals on B while A is gone. A's
	// read address stays dead for the rest of the test: a listener there
	// drops every connection, so the pool below sees a transport failure,
	// and no server started later (a2's, whose ingest side has no
	// cdn.fetchrange) can be bound to the freed port.
	a.readSrv.Close()
	holdDead(t, a.readAddr)
	a.ingestSrv.Close()
	a.daemon.Close()
	pubB := rpc.Dial(b.ingestAddr)
	defer pubB.Close()
	r2 := cdnTestRound(2, 5)
	if err := rpc.PublishMailboxes(pubB, wire.Dialing, 2, r2); err != nil {
		t.Fatal(err)
	}

	// A restarts from the same directory and backfills from B.
	a2 := startCDNNode(t, dirA)
	a2.daemon.SetPeers(b.ingestAddr)
	if !a2.store.Published(wire.Dialing, 1) {
		t.Fatal("restarted node lost its own round")
	}
	recovered, err := a2.daemon.Backfill()
	if err != nil {
		t.Fatalf("backfill: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("backfilled %d rounds, want 1", recovered)
	}
	for r, want := range map[uint32]map[uint32][]byte{1: r1, 2: r2} {
		for id, box := range want {
			got, err := a2.store.Fetch(wire.Dialing, r, id)
			if err != nil || !bytes.Equal(got, box) {
				t.Fatalf("restarted node round %d mailbox %d: %v", r, id, err)
			}
		}
		sa, _ := a2.store.Checksum(wire.Dialing, r)
		sb, _ := b.store.Checksum(wire.Dialing, r)
		if sa != sb {
			t.Fatalf("round %d checksum mismatch after restart", r)
		}
	}

	// The restarted node serves clients: a pool pointed at (dead A's old
	// read addr, restarted A) drains the full backlog with no error.
	pool := rpc.DialCDNPool(a.readAddr, a2.readAddr)
	defer pool.Close()
	got, err := pool.FetchRange(context.Background(), wire.Dialing, 1, 2, 3)
	if err != nil || len(got) != 2 {
		t.Fatalf("post-restart drain: %d rounds, %v", len(got), err)
	}
}

// TestCDNShardedSeal drives the shard-tagged publish surface directly:
// the round must stay unsealed until every shard's stream sends Done,
// must reassemble the full ID space, and must reject stream/staging
// shard-count mismatches. An abort from any shard discards everything.
func TestCDNShardedSeal(t *testing.T) {
	n := startCDNNode(t, "")
	c := rpc.Dial(n.ingestAddr)
	defer c.Close()

	full := cdnTestRound(7, 6)
	slice := func(lo, hi uint32) map[uint32][]byte {
		out := make(map[uint32][]byte)
		for id, b := range full {
			if id >= lo && id < hi {
				out[id] = b
			}
		}
		return out
	}

	if err := rpc.PublishMailboxesShard(c, wire.Dialing, 1, slice(0, 3), 0, 2); err != nil {
		t.Fatal(err)
	}
	if n.store.Published(wire.Dialing, 1) {
		t.Fatal("round sealed before all shards finished")
	}
	if err := rpc.PublishMailboxesShard(c, wire.Dialing, 1, slice(3, 6), 1, 2); err != nil {
		t.Fatal(err)
	}
	if !n.store.Published(wire.Dialing, 1) {
		t.Fatal("round not sealed after last shard")
	}
	if got := n.daemon.LastSealStreams(); got != 2 {
		t.Fatalf("sealed from %d streams, want 2", got)
	}
	want := cdn.RoundChecksum(full)
	if got, _ := n.store.Checksum(wire.Dialing, 1); got != want {
		t.Fatal("sharded seal differs from single-machine content")
	}

	// Mismatched shard counts poison the staged round.
	if err := rpc.PublishMailboxesShard(c, wire.Dialing, 2, slice(0, 3), 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := rpc.PublishMailboxesShard(c, wire.Dialing, 2, slice(3, 6), 2, 3); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}

	// One shard aborts: nothing seals even after the other finishes.
	if err := rpc.PublishMailboxesShard(c, wire.Dialing, 3, slice(0, 3), 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("cdn.publish", struct {
		Service wire.Service `json:"service"`
		Round   uint32       `json:"round"`
		Abort   bool         `json:"abort"`
	}{wire.Dialing, 3, true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rpc.PublishMailboxesShard(c, wire.Dialing, 3, slice(3, 6), 1, 2); err != nil {
		t.Fatal(err)
	}
	if n.store.Published(wire.Dialing, 3) {
		t.Fatal("aborted round sealed")
	}
}

// TestCDNStagingTTL pins the staging sweep: a publisher that dies between
// fragments (no Done, no Abort) must not pin its partial round in memory
// forever — the sweep evicts it after the TTL and counts the eviction.
func TestCDNStagingTTL(t *testing.T) {
	n := startCDNNode(t, "")
	n.daemon.SetStagingTTL(50 * time.Millisecond)
	c := rpc.Dial(n.ingestAddr)
	defer c.Close()

	// A fragment with no Done: the publisher "dies" here.
	if err := rpc.PublishFragment(c, wire.Dialing, 9, 0, []byte("orphaned")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for n.daemon.StagingEvictions() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := n.daemon.StagingEvictions(); got == 0 {
		t.Fatal("abandoned staged round never evicted")
	}
	if n.store.Published(wire.Dialing, 9) {
		t.Fatal("evicted round sealed")
	}
}
