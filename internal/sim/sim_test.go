package sim

import (
	"testing"

	"alpenhorn/internal/wire"
)

func TestNetworkDefaults(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if len(n.PKGs) != 3 || len(n.Mixers) != 3 {
		t.Fatalf("defaults: %d PKGs, %d mixers; want 3/3", len(n.PKGs), len(n.Mixers))
	}
	if len(n.PKGKeys) != 3 || len(n.PKGBLSKeys) != 3 || len(n.MixerKeys) != 3 {
		t.Fatal("pinned key lists incomplete")
	}
}

func TestNewClientRegistersEverywhere(t *testing.T) {
	n, err := NewNetwork(Config{NumPKGs: 2, NumMixers: 1})
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
	n, err := NewNetwork(Config{NumPKGs: 1, NumMixers: 1})
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
