package vuvuzela_test

import (
	"testing"

	"alpenhorn/internal/core"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/vuvuzela"
)

// TestVuvuzelaIntegration reproduces §8.5 end to end: the conversation
// protocol's key material comes exclusively from an Alpenhorn Call — no
// out-of-band key distribution anywhere in the flow.
func TestVuvuzelaIntegration(t *testing.T) {
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

	// Bootstrap: Alpenhorn add-friend + dialing.
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	if err := alice.Call(bob.Email(), 0); err != nil {
		t.Fatal(err)
	}
	clients := []*core.Client{alice, bob}
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
	if len(out) != 1 || len(in) != 1 {
		t.Fatal("alpenhorn call did not complete")
	}

	// Conversation: the §8.5 integration point is exactly this line —
	// Vuvuzela's protocol consumes the shared secret from Call.
	ex := vuvuzela.NewExchange()
	aliceConv := vuvuzela.NewConversation(out[0].SessionKey, ex, true)
	bobConv := vuvuzela.NewConversation(in[0].SessionKey, ex, false)

	if err := aliceConv.Send(1, []byte("bootstrapped with zero metadata leaked")); err != nil {
		t.Fatal(err)
	}
	if err := bobConv.Send(1, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	ex.Exchange(1)
	msg, ok := bobConv.Receive(1)
	if !ok || string(msg) != "bootstrapped with zero metadata leaked" {
		t.Fatalf("bob received %q, ok=%v", msg, ok)
	}
	msg, ok = aliceConv.Receive(1)
	if !ok || string(msg) != "ack" {
		t.Fatalf("alice received %q, ok=%v", msg, ok)
	}
}
