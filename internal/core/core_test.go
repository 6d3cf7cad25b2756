package core_test

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"testing"

	"alpenhorn/internal/core"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// skipIfShort skips pairing-heavy integration tests under -short: each
// add-friend round costs dozens of big.Int pairings, which the race
// detector slows by an order of magnitude. CI's race job runs -short;
// the regular test job still runs everything.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("pairing-heavy integration test; skipped in -short")
	}
}

// newPair builds a network with Alice and Bob registered.
func newPair(t *testing.T) (*sim.Network, *core.Client, *sim.Handler, *core.Client, *sim.Handler) {
	t.Helper()
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
	return net, alice, ha, bob, hb
}

func TestAddFriendHandshake(t *testing.T) {
	net, alice, ha, bob, hb := newPair(t)

	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}

	// Round 1: Alice's request reaches Bob.
	if err := net.RunAddFriendRound(1, clients); err != nil {
		t.Fatal(err)
	}
	if len(hb.NewFriends) != 1 || hb.NewFriends[0] != "alice@example.org" {
		t.Fatalf("bob's NewFriend events: %v", hb.NewFriends)
	}
	if alice.IsFriend(bob.Email()) {
		t.Fatal("alice confirmed friendship before bob's response")
	}

	// Round 2: Bob's response reaches Alice.
	if err := net.RunAddFriendRound(2, clients); err != nil {
		t.Fatal(err)
	}
	if !alice.IsFriend(bob.Email()) || !bob.IsFriend(alice.Email()) {
		t.Fatal("friendship did not complete")
	}
	if len(ha.Confirmed) != 1 || ha.Confirmed[0] != bob.Email() {
		t.Fatalf("alice's confirmations: %v", ha.Confirmed)
	}
	if len(hb.Confirmed) != 1 || hb.Confirmed[0] != alice.Email() {
		t.Fatalf("bob's confirmations: %v", hb.Confirmed)
	}
	// TOFU: Bob's address book has Alice's real key.
	for _, f := range bob.Friends() {
		if f.Email == alice.Email() && !bytes.Equal(f.SigningKey, alice.SigningKey()) {
			t.Fatal("TOFU recorded wrong key")
		}
	}
	if ha.ErrorCount() != 0 || hb.ErrorCount() != 0 {
		t.Fatalf("handler errors: %v / %v", ha.Errors, hb.Errors)
	}
}

func TestDialing(t *testing.T) {
	net, alice, ha, bob, hb := newPair(t)
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}

	const intent = 3
	if err := alice.Call(bob.Email(), intent); err != nil {
		t.Fatal(err)
	}
	// Keywheels start at round w (two past the last known dialing
	// round); run rounds until the call goes out and is seen.
	for r := uint32(1); r <= 6; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
		if len(hb.IncomingCalls()) > 0 {
			break
		}
	}

	out := ha.OutgoingCalls()
	in := hb.IncomingCalls()
	if len(out) != 1 {
		t.Fatalf("alice outgoing calls: %d", len(out))
	}
	if len(in) != 1 {
		t.Fatalf("bob incoming calls: %d", len(in))
	}
	if in[0].Friend != alice.Email() || out[0].Friend != bob.Email() {
		t.Fatalf("call endpoints wrong: %v / %v", in[0], out[0])
	}
	if in[0].Intent != intent || out[0].Intent != intent {
		t.Fatalf("intent not carried: %v / %v", in[0].Intent, out[0].Intent)
	}
	if in[0].SessionKey != out[0].SessionKey {
		t.Fatal("session keys differ between caller and callee")
	}
	if in[0].Round != out[0].Round {
		t.Fatal("rounds differ")
	}
}

func TestCoverTrafficProducesNoEvents(t *testing.T) {
	net, alice, ha, bob, hb := newPair(t)
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}
	// Nobody calls anybody: several pure-cover rounds.
	for r := uint32(1); r <= 4; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
	}
	if len(ha.IncomingCalls())+len(hb.IncomingCalls()) != 0 {
		t.Fatal("cover traffic triggered incoming calls")
	}
	if len(ha.OutgoingCalls())+len(hb.OutgoingCalls()) != 0 {
		t.Fatal("cover traffic triggered outgoing calls")
	}
}

func TestSimultaneousAdd(t *testing.T) {
	net, alice, _, bob, _ := newPair(t)
	// Both users add each other before any round runs.
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	if err := bob.AddFriend(alice.Email(), nil); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}
	if err := net.RunAddFriendRound(1, clients); err != nil {
		t.Fatal(err)
	}
	if err := net.RunAddFriendRound(2, clients); err != nil {
		t.Fatal(err)
	}
	if !alice.IsFriend(bob.Email()) || !bob.IsFriend(alice.Email()) {
		t.Fatal("simultaneous add did not converge")
	}
	// And the keywheels agree: a call must work.
	if err := alice.Call(bob.Email(), 0); err != nil {
		t.Fatal(err)
	}
	hb := &sim.Handler{}
	_ = hb
	for r := uint32(1); r <= 8; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOutOfBandKeyRejectsImpostor(t *testing.T) {
	net, alice, ha, bob, _ := newPair(t)

	// Alice has an out-of-band key for "bob" that is NOT Bob's key
	// (e.g. the real Bob's business card, while a MITM runs the
	// account). The handshake must be rejected.
	wrongKey, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.AddFriend(bob.Email(), wrongKey); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}
	if err := net.RunAddFriendRound(1, clients); err != nil {
		t.Fatal(err)
	}
	if err := net.RunAddFriendRound(2, clients); err != nil {
		t.Fatal(err)
	}
	if alice.IsFriend(bob.Email()) {
		t.Fatal("alice accepted a key mismatching her out-of-band knowledge")
	}
	if ha.ErrorCount() == 0 {
		t.Fatal("no MITM warning surfaced to the application")
	}
}

func TestOutOfBandKeyAcceptsGenuine(t *testing.T) {
	net, alice, _, bob, _ := newPair(t)
	// With the CORRECT out-of-band key the handshake completes.
	if err := alice.AddFriend(bob.Email(), bob.SigningKey()); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}
	if err := net.RunAddFriendRound(1, clients); err != nil {
		t.Fatal(err)
	}
	if err := net.RunAddFriendRound(2, clients); err != nil {
		t.Fatal(err)
	}
	if !alice.IsFriend(bob.Email()) {
		t.Fatal("genuine key rejected")
	}
}

func TestRejectedFriendRequest(t *testing.T) {
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{} // rejects everything
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
	clients := []*core.Client{alice, bob}
	for r := uint32(1); r <= 3; r++ {
		if err := net.RunAddFriendRound(r, clients); err != nil {
			t.Fatal(err)
		}
	}
	if alice.IsFriend(bob.Email()) || bob.IsFriend(alice.Email()) {
		t.Fatal("friendship formed despite rejection")
	}
	if len(hb.NewFriends) == 0 {
		t.Fatal("bob never saw the request")
	}
}

func TestCallValidation(t *testing.T) {
	_, alice, _, bob, _ := newPair(t)
	if err := alice.Call(bob.Email(), 0); err == nil {
		t.Fatal("call to non-friend accepted")
	}
	if err := alice.Call("stranger@example.org", 0); err == nil {
		t.Fatal("call to stranger accepted")
	}
	if err := alice.AddFriend(alice.Email(), nil); err == nil {
		t.Fatal("self-friending accepted")
	}
	if err := alice.Call(bob.Email(), 99999); err == nil {
		t.Fatal("out-of-range intent accepted")
	}
}

func TestDuplicateAddFriend(t *testing.T) {
	net, alice, _, bob, _ := newPair(t)
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	if err := alice.AddFriend(bob.Email(), nil); err == nil {
		t.Fatal("duplicate pending AddFriend accepted")
	}
	if err := net.Befriend(alice, bob, 1); err == nil {
		// Befriend calls AddFriend again, which must fail since a
		// request is already pending; drive rounds manually instead.
		t.Fatal("expected AddFriend error for duplicate request")
	}
}

func TestRemoveFriendErasesState(t *testing.T) {
	net, alice, _, bob, _ := newPair(t)
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	alice.RemoveFriend(bob.Email())
	if alice.IsFriend(bob.Email()) {
		t.Fatal("friend still present after removal")
	}
	if err := alice.Call(bob.Email(), 0); err == nil {
		t.Fatal("call to removed friend accepted")
	}
	// Re-adding works (fresh handshake).
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	net, alice, _, bob, hb := newPair(t)
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}

	// Snapshot Alice, reload her as a "new" process, and verify the
	// keywheel still works by completing a call.
	state, err := alice.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	ha2 := &sim.Handler{AcceptAll: true}
	alice2, err := core.LoadClient(net.ClientConfig(alice.Email(), ha2), state)
	if err != nil {
		t.Fatal(err)
	}
	if !alice2.IsFriend(bob.Email()) {
		t.Fatal("restored client lost address book")
	}
	if !bytes.Equal(alice2.SigningKey(), alice.SigningKey()) {
		t.Fatal("restored client has different signing key")
	}

	if err := alice2.Call(bob.Email(), 1); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice2, bob}
	for r := uint32(1); r <= 6; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
		if len(hb.IncomingCalls()) > 0 {
			break
		}
	}
	in := hb.IncomingCalls()
	out := ha2.OutgoingCalls()
	if len(in) != 1 || len(out) != 1 || in[0].SessionKey != out[0].SessionKey {
		t.Fatalf("restored client could not complete a call (in=%d out=%d)", len(in), len(out))
	}
}

func TestThreeUserTriangle(t *testing.T) {
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	handlers := make(map[string]*sim.Handler)
	var clients []*core.Client
	for _, name := range []string{"alice@x.org", "bob@x.org", "carol@x.org"} {
		h := &sim.Handler{AcceptAll: true}
		handlers[name] = h
		c, err := net.NewClient(name, h)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	alice, bob, carol := clients[0], clients[1], clients[2]

	// Alice adds Bob and Carol; Carol adds Bob.
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	if err := carol.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	// Requests go out one per round per client, so allow several rounds.
	for r := uint32(1); r <= 4; r++ {
		if err := net.RunAddFriendRound(r, clients); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.AddFriend(carol.Email(), nil); err != nil {
		t.Fatal(err)
	}
	for r := uint32(5); r <= 8; r++ {
		if err := net.RunAddFriendRound(r, clients); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]*core.Client{{alice, bob}, {carol, bob}, {alice, carol}} {
		if !pair[0].IsFriend(pair[1].Email()) || !pair[1].IsFriend(pair[0].Email()) {
			t.Fatalf("friendship %s <-> %s missing", pair[0].Email(), pair[1].Email())
		}
	}

	// Two simultaneous calls to Bob in the same round window.
	if err := alice.Call(bob.Email(), 1); err != nil {
		t.Fatal(err)
	}
	if err := carol.Call(bob.Email(), 2); err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 12; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
		if len(handlers["bob@x.org"].IncomingCalls()) >= 2 {
			break
		}
	}
	in := handlers["bob@x.org"].IncomingCalls()
	if len(in) != 2 {
		t.Fatalf("bob received %d calls, want 2", len(in))
	}
	from := map[string]uint32{}
	for _, call := range in {
		from[call.Friend] = call.Intent
	}
	if from[alice.Email()] != 1 || from[carol.Email()] != 2 {
		t.Fatalf("wrong callers/intents: %v", from)
	}
}

// TestFailedSubmitKeepsFriendRequestQueued: a friend request whose
// submission fails (here: the round closed before the client submitted)
// must stay queued and go out in a later round, not be silently consumed.
func TestFailedSubmitKeepsFriendRequestQueued(t *testing.T) {
	net, alice, _, bob, hb := newPair(t)
	clients := []*core.Client{alice, bob}

	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	// Round 1 closes before alice can submit: her submit must fail...
	if _, err := net.Coord.OpenAddFriendRound(1); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Coord.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
	if err := alice.SubmitAddFriendRound(context.Background(), 1); err == nil {
		t.Fatal("submit to a closed round succeeded")
	}
	net.Coord.FinishAddFriendRound(1)

	// ...and the request must still go out in round 2.
	if err := net.RunAddFriendRound(2, clients); err != nil {
		t.Fatal(err)
	}
	if len(hb.NewFriends) != 1 || hb.NewFriends[0] != alice.Email() {
		t.Fatalf("bob's NewFriend events after retry round: %v", hb.NewFriends)
	}
}

// TestFailedSubmitRequeuesCall: a dial token whose submission fails must be
// requeued, not dropped.
func TestFailedSubmitRequeuesCall(t *testing.T) {
	net, alice, ha, bob, hb := newPair(t)
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}

	// Advance past the keywheel start so round 3's call is sendable.
	for r := uint32(1); r <= 3; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.Call(bob.Email(), 5); err != nil {
		t.Fatal(err)
	}
	// Round 4 closes before alice submits.
	if _, err := net.Coord.OpenDialingRound(4); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Coord.CloseRound(wire.Dialing, 4); err != nil {
		t.Fatal(err)
	}
	if err := alice.SubmitDialRound(context.Background(), 4); err == nil {
		t.Fatal("submit to a closed round succeeded")
	}
	if len(ha.OutgoingCalls()) != 0 {
		t.Fatal("failed submission reported an outgoing call")
	}

	// The call goes out in a later round instead.
	for r := uint32(5); r <= 8; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
		if len(hb.IncomingCalls()) > 0 {
			break
		}
	}
	in := hb.IncomingCalls()
	out := ha.OutgoingCalls()
	if len(in) != 1 || len(out) != 1 || in[0].Intent != 5 {
		t.Fatalf("call not delivered after failed submit: in=%v out=%v", in, out)
	}
	if in[0].SessionKey != out[0].SessionKey {
		t.Fatal("session keys differ")
	}
}
