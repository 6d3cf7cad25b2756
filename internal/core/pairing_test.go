package core_test

import (
	"context"
	"testing"

	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// v1OnlyPKG hides the NewRoundV2 capability of a PKG, standing in for a
// server built before the optimal-ate tier existed.
type v1OnlyPKG struct {
	inner coordinator.PKG
}

func (p v1OnlyPKG) NewRound(round uint32) (wire.PKGRoundKey, error) { return p.inner.NewRound(round) }
func (p v1OnlyPKG) CloseRound(round uint32)                         { p.inner.CloseRound(round) }

// runAddFriendRound drives one round like sim.Network.RunAddFriendRound
// but returns the round settings so tests can assert the negotiated tier.
func runAddFriendRound(t *testing.T, net *sim.Network, round uint32, clients []*core.Client) *wire.RoundSettings {
	t.Helper()
	ctx := context.Background()
	settings, err := net.Coord.OpenAddFriendRound(round)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		if err := c.SubmitAddFriendRound(ctx, round); err != nil {
			t.Fatalf("%s submit: %v", c.Email(), err)
		}
	}
	if _, err := net.Coord.CloseRound(wire.AddFriend, round); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		if err := c.ScanAddFriendRound(ctx, round); err != nil {
			t.Fatalf("%s scan: %v", c.Email(), err)
		}
	}
	net.Coord.FinishAddFriendRound(round)
	return settings
}

// TestPairingVersionDowngradeMatrix walks the capability matrix of the
// v2 sealed-ciphertext tier end to end through the real stack:
//
//   - v2 coordinator × v2 PKGs: rounds negotiate the optimal-ate tier and
//     the handshake completes over v2 ciphertexts,
//   - v2 coordinator × one v1-only PKG: the WHOLE round falls back to v1
//     (all-or-nothing — zero mixed-version key derivations) and the
//     settings are wire-identical to the pre-capability format,
//   - v1 coordinator × v2-capable clients: rounds stay v1.
//
// Clients key every round off the signed settings, so the same client
// binaries participate in all three configurations transparently.
func TestPairingVersionDowngradeMatrix(t *testing.T) {
	net, alice, _, bob, hb := newPair(t)
	clients := []*core.Client{alice, bob}

	// v1 coordinator (the gate defaults off): rounds stay v1 even though
	// every PKG and client supports v2.
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	settings := runAddFriendRound(t, net, 1, clients)
	if settings.PairingV2() {
		t.Fatal("gate off: round negotiated v2")
	}
	if len(hb.NewFriends) != 1 {
		t.Fatalf("v1 round did not deliver the request: %v", hb.NewFriends)
	}

	// v2 coordinator × v2 PKGs: the round negotiates the ate tier and
	// Bob's response reaches Alice through v2 ciphertexts.
	net.Coord.PairingV2 = true
	settings = runAddFriendRound(t, net, 2, clients)
	if !settings.PairingV2() {
		t.Fatal("v2 deployment did not negotiate v2")
	}
	if !alice.IsFriend(bob.Email()) || !bob.IsFriend(alice.Email()) {
		t.Fatal("handshake did not complete across the v2 round")
	}

	// v2 coordinator × one v1-only PKG: all-or-nothing fallback. The
	// settings must be byte-identical to the pre-capability encoding
	// (no trailing capability byte) and a fresh exchange completes at v1.
	net.Coord.PKGs[0] = v1OnlyPKG{inner: net.Coord.PKGs[0]}
	if err := bob.AddFriend("carol@example.org", nil); err != nil {
		t.Fatal(err)
	}
	ca := &sim.Handler{AcceptAll: true}
	carol, err := net.NewClient("carol@example.org", ca)
	if err != nil {
		t.Fatal(err)
	}
	clients = append(clients, carol)
	settings = runAddFriendRound(t, net, 3, clients)
	if settings.PairingV2() {
		t.Fatal("round with a v1-only PKG negotiated v2")
	}
	enc := settings.Marshal()
	reparsed, err := wire.UnmarshalRoundSettings(enc)
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.PairingV2() {
		t.Fatal("downgraded settings carry a capability byte")
	}
	if len(ca.NewFriends) != 1 || ca.NewFriends[0] != bob.Email() {
		t.Fatalf("downgraded round did not deliver the request: %v", ca.NewFriends)
	}
}

// TestPairingV2SingleSettingsFetch pins that the v2 tier adds no settings
// traffic: a v2 add-friend round costs exactly one verified settings
// fetch (the submit fetches, the scan reuses the cache — the version
// switch reads the SAME cached settings on both paths).
func TestPairingV2SingleSettingsFetch(t *testing.T) {
	skipIfShort(t)
	network, err := sim.NewNetwork(sim.Config{NumPKGs: 1, NumMixers: 1})
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
	if !settings.PairingV2() {
		t.Fatal("round did not negotiate v2")
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
		t.Fatalf("v2 round cost %d settings fetches, want 1", got)
	}
}
