package core_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"alpenhorn/internal/core"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// settingsCountingEntry wraps the in-process entry adapter and counts Settings
// fetches. Embedding the concrete adapter keeps its RoundWatcher method,
// so the Run feed works through the wrapper.
type settingsCountingEntry struct {
	sim.EntryAdapter
	settingsCalls atomic.Int64
}

func (c *settingsCountingEntry) Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error) {
	c.settingsCalls.Add(1)
	return c.EntryAdapter.Settings(ctx, service, round)
}

// TestSettingsCachedPerRound pins the client's settings cache: without the
// event feed, a round costs exactly ONE verified fetch (submit fetches,
// scan hits the cache); with the feed connected, announcements carry the
// settings and rounds complete with ZERO fetches.
func TestSettingsCachedPerRound(t *testing.T) {
	network, err := sim.NewNetwork(sim.Config{NumPKGs: 1, Shards: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(network.Close)
	h := &sim.Handler{AcceptAll: true}
	cfg := network.ClientConfig("cache@example.org", h)
	ce := &settingsCountingEntry{EntryAdapter: sim.EntryAdapter{E: network.Entry}}
	cfg.Entry = ce
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := network.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}

	// Phase 1 — no feed: each round's settings are fetched once by the
	// submit and reused by the scan.
	for r := uint32(1); r <= 2; r++ {
		if _, err := network.Coord.OpenDialingRound(r); err != nil {
			t.Fatal(err)
		}
		if err := client.SubmitDialRound(ctx, r); err != nil {
			t.Fatal(err)
		}
		if _, err := network.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
		if err := client.ScanDialRound(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if got := ce.settingsCalls.Load(); got != 2 {
		t.Fatalf("manual rounds: %d settings fetches, want 2 (one per round; scans must hit the cache)", got)
	}

	// Phase 2 — feed connected: open announcements deliver the settings
	// before the submit fires, so rounds cost no fetch at all.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	handle, err := client.ConnectDialing(runCtx)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()
	for r := uint32(3); r <= 5; r++ {
		if _, err := network.Coord.OpenDialingRound(r); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && network.Entry.BatchSize(wire.Dialing, r) < 1 {
			time.Sleep(2 * time.Millisecond)
		}
		if network.Entry.BatchSize(wire.Dialing, r) < 1 {
			t.Fatalf("client never submitted round %d", r)
		}
		if _, err := network.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && client.DialRound() < 6 {
		time.Sleep(5 * time.Millisecond)
	}
	if client.DialRound() < 6 {
		t.Fatalf("feed-driven rounds not scanned (dial round %d)", client.DialRound())
	}
	if got := ce.settingsCalls.Load(); got != 2 {
		t.Fatalf("feed-driven rounds added %d settings fetches, want 0 (settings ride the announcements)", got-2)
	}
}

// TestPairingV2SingleSettingsFetch pins the add-friend side of the cache
// with Coordinator.PairingV2 set, as bench/fleet.go sets it: the knob is
// inert, so the settings carry no pairing-version byte, and a round costs
// exactly one verified settings fetch — the submit fetches, and the scan,
// which derives the round's master key from the same settings, reuses the
// cache.
func TestPairingV2SingleSettingsFetch(t *testing.T) {
	skipIfShort(t)
	network, err := sim.NewNetwork(sim.Config{NumPKGs: 1, Shards: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(network.Close)
	network.Coord.PairingV2 = true
	h := &sim.Handler{AcceptAll: true}
	cfg := network.ClientConfig("v2cache@example.org", h)
	ce := &settingsCountingEntry{EntryAdapter: sim.EntryAdapter{E: network.Entry}}
	cfg.Entry = ce
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := network.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}

	settings, err := network.Coord.OpenAddFriendRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if settings.PairingVersion != 0 {
		t.Fatalf("settings carry PairingVersion %d; the field is never set", settings.PairingVersion)
	}
	enc := settings.Marshal()
	if reparsed, err := wire.UnmarshalRoundSettings(enc); err != nil || !bytes.Equal(reparsed.Marshal(), enc) {
		t.Fatalf("add-friend settings do not round-trip: %v", err)
	}
	if _, err := wire.UnmarshalRoundSettings(append(enc, 2)); err == nil {
		t.Fatal("settings with a trailing pairing-version byte accepted")
	}
	if err := client.SubmitAddFriendRound(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Coord.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.ScanAddFriendRound(ctx, 1); err != nil {
		t.Fatal(err)
	}
	network.Coord.FinishAddFriendRound(1)
	if got := ce.settingsCalls.Load(); got != 1 {
		t.Fatalf("add-friend round cost %d settings fetches, want 1", got)
	}
}
