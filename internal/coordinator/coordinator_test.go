package coordinator

import (
	"crypto/rand"
	"testing"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/cdn"
	emailpkg "alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// testCoordinator is a coordinator over daemons served on in-memory
// listeners, plus the daemons and the store behind them.
type testCoordinator struct {
	*Coordinator
	daemons []*rpc.MixerDaemon
	store   *cdn.Store
}

// listenMem serves srv on an in-memory address for the test's duration.
func listenMem(t *testing.T, srv *rpc.Server) string {
	t.Helper()
	addr, err := srv.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// startMixer serves one unpinned mixer daemon (µ = 1 per mailbox, b = 0).
func startMixer(t *testing.T, position, chain int) (*rpc.MixerDaemon, *rpc.MixerClient) {
	t.Helper()
	nz := noise.Laplace{Mu: 1, B: 0}
	m, err := mixnet.New(mixnet.Config{
		Name: "m", Position: position, ChainLength: chain,
		AddFriendNoise: &nz, DialingNoise: &nz,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	d := rpc.RegisterMixer(srv, m)
	mc, err := rpc.DialMixer(listenMem(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	return d, mc
}

func newTestCoordinator(t *testing.T, numMixers, numPKGs int) *testCoordinator {
	t.Helper()
	c := &testCoordinator{
		Coordinator: &Coordinator{Entry: entry.New(), TargetRequestsPerMailbox: 24000},
		store:       cdn.NewStore(0),
	}
	provider := emailpkg.NewInMemoryProvider()
	for i := 0; i < numPKGs; i++ {
		p, err := pkgserver.New(pkgserver.Config{Name: "p", Provider: provider})
		if err != nil {
			t.Fatal(err)
		}
		c.PKGs = append(c.PKGs, p)
	}
	for i := 0; i < numMixers; i++ {
		d, mc := startMixer(t, i, numMixers)
		c.daemons = append(c.daemons, d)
		c.Mixers = append(c.Mixers, mc)
	}
	cdnSrv := rpc.NewServer()
	rpc.RegisterCDN(cdnSrv, c.store)
	c.CDNAddr = listenMem(t, cdnSrv)
	return c
}

func TestAddFriendRoundLifecycle(t *testing.T) {
	c := newTestCoordinator(t, 3, 2)
	settings, err := c.OpenAddFriendRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(settings.Mixers) != 3 || len(settings.PKGs) != 2 {
		t.Fatalf("settings: %d mixers, %d PKGs", len(settings.Mixers), len(settings.PKGs))
	}
	// Settings are served by the entry server.
	got, err := c.Entry.Settings(wire.AddFriend, 1)
	if err != nil || got.NumMailboxes != settings.NumMailboxes {
		t.Fatal("entry does not serve settings")
	}

	if _, err := c.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
	sizes, err := c.store.MailboxSizes(wire.AddFriend, 1)
	if err != nil {
		t.Fatalf("mailboxes not published: %v", err)
	}
	if len(sizes) != int(settings.NumMailboxes) {
		t.Fatalf("%d mailboxes, want %d", len(sizes), settings.NumMailboxes)
	}
	// Mixer round keys erased. PKG master keys are erased concurrently
	// with the mix (extraction only happens during the submission
	// window), so they are gone by the time CloseRound returns.
	for _, d := range c.daemons {
		if d.PendingRounds() != 0 {
			t.Fatal("mixer round key survives close")
		}
	}
	for _, p := range c.PKGs {
		if p.(*pkgserver.Server).RoundOpen(1) {
			t.Fatal("PKG round key survives close")
		}
	}
	// The explicit finish hook stays idempotent.
	c.FinishAddFriendRound(1)
	for _, p := range c.PKGs {
		if p.(*pkgserver.Server).RoundOpen(1) {
			t.Fatal("PKG round open after finish")
		}
	}
}

// TestFinishBeforeCloseStillErases: a driver that opens an add-friend
// round but aborts before CloseRound can still erase the PKG keys with
// the explicit hook.
func TestFinishBeforeCloseStillErases(t *testing.T) {
	c := newTestCoordinator(t, 1, 2)
	if _, err := c.OpenAddFriendRound(7); err != nil {
		t.Fatal(err)
	}
	c.FinishAddFriendRound(7)
	for _, p := range c.PKGs {
		if p.(*pkgserver.Server).RoundOpen(7) {
			t.Fatal("PKG round open after explicit finish")
		}
	}
}

func TestDialingRoundLifecycle(t *testing.T) {
	c := newTestCoordinator(t, 2, 1)
	settings, err := c.OpenDialingRound(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(settings.PKGs) != 0 {
		t.Fatal("dialing settings should have no PKG keys")
	}
	if _, err := c.CloseRound(wire.Dialing, 4); err != nil {
		t.Fatal(err)
	}
	// Every mailbox is a valid Bloom filter.
	for id := uint32(0); id < settings.NumMailboxes; id++ {
		data, err := c.store.Fetch(wire.Dialing, 4, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bloom.Unmarshal(data); err != nil {
			t.Fatalf("mailbox %d: %v", id, err)
		}
	}
}

func TestMailboxCountScalesWithVolume(t *testing.T) {
	c := newTestCoordinator(t, 3, 1)
	c.TargetRequestsPerMailbox = 10 // noise = 3 servers × 1 = 3/mailbox

	c.SetExpectedVolume(wire.Dialing, 0)
	s1, err := c.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumMailboxes != 1 {
		t.Fatalf("empty volume: K = %d, want 1", s1.NumMailboxes)
	}
	if _, err := c.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}

	c.SetExpectedVolume(wire.Dialing, 700)
	s2, err := c.OpenDialingRound(2)
	if err != nil {
		t.Fatal(err)
	}
	// realPerMailbox target = 10 − 3 = 7 → K = 700/7 = 100.
	if s2.NumMailboxes != 100 {
		t.Fatalf("high volume: K = %d, want 100", s2.NumMailboxes)
	}
}

func TestCloseUnopenedRoundFails(t *testing.T) {
	c := newTestCoordinator(t, 1, 1)
	if _, err := c.CloseRound(wire.Dialing, 42); err == nil {
		t.Fatal("closing unopened round succeeded")
	}
}

// submitDialTokens wraps one dial onion per token, addressed round-robin to
// the round's mailboxes, and submits them to the entry server.
func submitDialTokens(t *testing.T, c *testCoordinator, settings *wire.RoundSettings, tokens [][]byte) {
	t.Helper()
	hops := make([]*onionbox.PublicKey, len(settings.Mixers))
	for i, rk := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = pk
	}
	for i, tok := range tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(rand.Reader, hops, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Entry.Submit(settings.Service, settings.Round, onion); err != nil {
			t.Fatal(err)
		}
	}
}

func makeTokens(n int) [][]byte {
	tokens := make([][]byte, n)
	for i := range tokens {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1], tok[2] = byte(i), byte(i>>8), 0xCD
		tokens[i] = tok
	}
	return tokens
}

// TestNumMailboxesNoiseExceedsTarget: when per-mailbox noise alone meets or
// exceeds the target, splitting mailboxes cannot help (each split adds its
// own noise), so the coordinator must fall back to a single mailbox no
// matter the expected volume.
func TestNumMailboxesNoiseExceedsTarget(t *testing.T) {
	c := newTestCoordinator(t, 3, 0) // 3 mixers × µ=1 → 3 noise/mailbox
	c.TargetRequestsPerMailbox = 3   // noise alone hits the target
	c.SetExpectedVolume(wire.Dialing, 1000000)
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("noise ≥ target: K = %d, want 1", k)
	}
	c.TargetRequestsPerMailbox = 2 // noise exceeds the target
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("noise > target: K = %d, want 1", k)
	}
}

// TestNumMailboxesZeroVolume: with no expected volume (a fresh deployment,
// or a service that saw an empty round), the coordinator opens exactly one
// mailbox rather than zero.
func TestNumMailboxesZeroVolume(t *testing.T) {
	c := newTestCoordinator(t, 2, 0)
	c.TargetRequestsPerMailbox = 100
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("unseeded volume: K = %d, want 1", k)
	}
	c.SetExpectedVolume(wire.Dialing, 0)
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("zero volume: K = %d, want 1", k)
	}
	// Volume below one mailbox's real capacity still rounds up to 1.
	c.SetExpectedVolume(wire.Dialing, 5)
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("tiny volume: K = %d, want 1", k)
	}
}

// TestVolumeTrackingAcrossRounds: each CloseRound feeds the observed batch
// size back into the mailbox-count heuristic, so consecutive rounds track
// the actual load.
func TestVolumeTrackingAcrossRounds(t *testing.T) {
	c := newTestCoordinator(t, 2, 0) // 2 mixers × µ=1 → 2 noise/mailbox
	c.TargetRequestsPerMailbox = 12  // → 10 real requests per mailbox

	s1, err := c.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumMailboxes != 1 {
		t.Fatalf("round 1: K = %d, want 1 (no volume yet)", s1.NumMailboxes)
	}
	submitDialTokens(t, c, s1, makeTokens(200))
	if _, err := c.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}

	// Round 2 sizes from round 1's observed 200 requests: 200/10 = 20.
	s2, err := c.OpenDialingRound(2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumMailboxes != 20 {
		t.Fatalf("round 2: K = %d, want 20", s2.NumMailboxes)
	}
	submitDialTokens(t, c, s2, makeTokens(40))
	if _, err := c.CloseRound(wire.Dialing, 2); err != nil {
		t.Fatal(err)
	}

	// Round 3 shrinks with the observed volume: 40/10 = 4.
	s3, err := c.OpenDialingRound(3)
	if err != nil {
		t.Fatal(err)
	}
	if s3.NumMailboxes != 4 {
		t.Fatalf("round 3: K = %d, want 4", s3.NumMailboxes)
	}
	// The other service's volume estimate is independent.
	if k := c.numMailboxes(wire.AddFriend); k != 1 {
		t.Fatalf("add-friend volume leaked from dialing: K = %d, want 1", k)
	}
}

// TestShardedConfigRequiresCapableFleet: a coordinator configured with a
// shard group must refuse to open rounds over daemons that cannot serve
// one — unpinned daemons neither export nor import a round key — and a
// coordinator with nowhere to publish must refuse to open any round,
// instead of taking submissions for a round that cannot close.
func TestShardedConfigRequiresCapableFleet(t *testing.T) {
	c := newTestCoordinator(t, 2, 1)
	_, extra := startMixer(t, 0, 2)
	c.Shards = [][]Mixer{{extra}, nil}
	if _, err := c.OpenDialingRound(1); err == nil {
		t.Fatal("sharded round opened over daemons with no group key-exchange surface")
	}
	c.Shards = nil
	c.CDNAddr = ""
	if _, err := c.OpenDialingRound(2); err == nil {
		t.Fatal("round opened with no CDN publish address")
	}
}

// TestFailedOpenErasesRound: an add-friend open that fails part-way —
// the shard member cannot import the round key, after the announcers
// have made theirs and the other daemons have opened — leaves nothing
// behind: no mixer keeps a round key or a route, and no PKG keeps its
// master key.
func TestFailedOpenErasesRound(t *testing.T) {
	c := newTestCoordinator(t, 2, 2)
	d, extra := startMixer(t, 0, 2)
	c.Shards = [][]Mixer{{extra}, nil}
	if _, err := c.OpenAddFriendRound(1); err == nil {
		t.Fatal("sharded round opened over daemons with no group key-exchange surface")
	}
	for i, d := range append(c.daemons, d) {
		if n := d.PendingRounds(); n != 0 {
			t.Errorf("mixer %d keeps the failed round's key or route (%d rounds)", i, n)
		}
	}
	for i, p := range c.PKGs {
		if p.(*pkgserver.Server).RoundOpen(1) {
			t.Errorf("PKG %d keeps the failed round's master key", i)
		}
	}
}
