package sim

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/wire"
)

// transports are the two listen addresses a network can be built on.
var transports = []string{"mem:", "127.0.0.1:0"}

func newNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestShardGroupsAndSpares: the leads of a {1,2,1} chain are the
// coordinator's Mixers, the other members its Shards, and Spares gives
// every position one daemon that advertises itself as a spare.
func TestShardGroupsAndSpares(t *testing.T) {
	n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{1, 2, 1}, Spares: true})
	client := func(m *Mixer) coordinator.Mixer { return m.Client }
	for pos, group := range n.Mixers {
		if n.Coord.Mixers[pos] != client(group[0]) {
			t.Errorf("position %d: coordinator lead is not shard 0", pos)
		}
		if len(n.Coord.Shards[pos]) != len(group)-1 {
			t.Fatalf("position %d: %d coordinator shards, want %d", pos, len(n.Coord.Shards[pos]), len(group)-1)
		}
		for s, m := range group[1:] {
			if n.Coord.Shards[pos][s] != client(m) {
				t.Errorf("position %d: coordinator shard %d is not member %d", pos, s, s+1)
			}
		}
		if spares := n.Coord.Spares[pos]; len(spares) != 1 || spares[0] != client(n.Spares[pos]) || !n.Spares[pos].Client.Info().Spare {
			t.Errorf("position %d: spares %v, want the one daemon advertising Spare", pos, spares)
		}
	}
	if len(n.Mixers[1]) != 2 || n.Mixers[1][1].Client.Info().ShardIndex != 1 {
		t.Fatal("position 1 is not a two-member group")
	}
}

// TestKillRestart: a killed daemon refuses Probe until Restart serves it
// again on the same address, on both transports.
func TestKillRestart(t *testing.T) {
	for _, listen := range transports {
		n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{2}, Listen: listen})
		m := n.Mixers[0][1]
		if err := m.Client.Probe(); err != nil {
			t.Fatalf("%s: live daemon: %v", listen, err)
		}
		n.Kill(m.Addr)
		if err := m.Client.Probe(); err == nil {
			t.Fatalf("%s: killed daemon answered Probe", listen)
		}
		if err := n.Restart(m.Addr); err != nil {
			t.Fatalf("%s: %v", listen, err)
		}
		if err := m.Client.Probe(); err != nil {
			t.Fatalf("%s: restarted daemon: %v", listen, err)
		}
	}
}

// TestSeedFixesRoundKeys: networks built with the same nonzero Seed hand
// out the same round keys; another seed does not.
func TestSeedFixesRoundKeys(t *testing.T) {
	roundKeys := func(seed int64, listen string) []byte {
		n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{1, 2, 1}, Seed: seed, Listen: listen})
		settings, err := n.Coord.OpenDialingRound(1)
		if err != nil {
			t.Fatal(err)
		}
		return settings.Marshal()
	}
	want := roundKeys(7, "mem:")
	if got := roundKeys(7, "127.0.0.1:0"); !bytes.Equal(got, want) {
		t.Fatal("two networks with seed 7 announced different round keys")
	}
	if got := roundKeys(8, "mem:"); bytes.Equal(got, want) {
		t.Fatal("seeds 7 and 8 announced the same round keys")
	}
}

// TestCloseLeavesNoGoroutines: a network that ran a round stops every
// goroutine it started when it closes.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, listen := range transports {
		baseline := runtime.NumGoroutine()
		n, err := NewNetwork(Config{NumPKGs: 1, Shards: []int{1, 2, 1}, Spares: true, NumFrontends: 2, Listen: listen})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Coord.OpenDialingRound(1); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
			t.Fatal(err)
		}
		n.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Close, %d before the network", listen, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestNetworkDefaults(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if len(n.PKGs) != 3 || len(n.Mixers) != 3 || len(n.Mixers[2]) != 1 {
		t.Fatalf("defaults: %d PKGs, %d mixers; want 3/3", len(n.PKGs), len(n.Mixers))
	}
	if len(n.PKGKeys) != 3 || len(n.PKGBLSKeys) != 3 || len(n.MixerKeys) != 3 {
		t.Fatal("pinned key lists incomplete")
	}
}

func TestNewClientRegistersEverywhere(t *testing.T) {
	n, err := NewNetwork(Config{NumPKGs: 2, Shards: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	h := &Handler{AcceptAll: true}
	c, err := n.NewClient("user@example.org", h)
	if err != nil {
		t.Fatal(err)
	}
	for i, pkg := range n.PKGs {
		key, ok := pkg.Registered("user@example.org")
		if !ok {
			t.Fatalf("not registered at PKG %d", i)
		}
		if !key.Equal(c.SigningKey()) {
			t.Fatalf("PKG %d has wrong key", i)
		}
	}
}

func TestGenerateBatchShapes(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	settings, err := n.Coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := GenerateBatch(nil, settings, Workload{Real: 5, Cover: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 12 {
		t.Fatalf("batch size %d", len(batch))
	}
	want := wire.OnionSize(wire.Dialing, len(settings.Mixers))
	for i, onion := range batch {
		if len(onion) != want {
			t.Fatalf("onion %d size %d, want %d", i, len(onion), want)
		}
	}
	// The generated batch is accepted by the entry server and survives
	// the mix chain.
	for _, onion := range batch {
		if err := n.Entry.Submit(wire.Dialing, 1, onion); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if sizes, err := n.CDN.MailboxSizes(wire.Dialing, 1); err != nil || len(sizes) == 0 {
		t.Fatalf("no mailboxes: %v", err)
	}
}

func TestGenerateBatchAddFriend(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	settings, err := n.Coord.OpenAddFriendRound(1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := GenerateBatch(nil, settings, Workload{
		Real:      3,
		Cover:     3,
		MailboxOf: func(i int) uint32 { return uint32(i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, onion := range batch {
		if err := n.Entry.Submit(wire.AddFriend, 1, onion); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Coord.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
	sizes, err := n.CDN.MailboxSizes(wire.AddFriend, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, size := range sizes {
		if size%wire.EncryptedFriendRequestSize != 0 {
			t.Fatal("mailbox not request-aligned")
		}
		total += size / wire.EncryptedFriendRequestSize
	}
	// 3 real + noise (cover dropped); noise is 2/mailbox/server.
	if total < 3 {
		t.Fatalf("real requests lost: %d", total)
	}
}

func TestRegisterDirect(t *testing.T) {
	n, err := NewNetwork(Config{NumPKGs: 1, Shards: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	u, err := RegisterDirect(n.PKGs[0], n.Provider, "direct@example.org")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.PKGs[0].NewRound(1); err != nil {
		t.Fatal(err)
	}
	sig := u.SignExtract("direct@example.org", 1)
	if _, err := n.PKGs[0].Extract("direct@example.org", 1, sig); err != nil {
		t.Fatal(err)
	}
}
