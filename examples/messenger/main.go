// Command messenger reproduces the paper's §8.5 Vuvuzela integration: a
// private text-messaging session whose conversation keys are bootstrapped
// by Alpenhorn instead of out-of-band key distribution.
//
// The flow mirrors the /addfriend and /call commands the paper added to the
// Vuvuzela client:
//
//	/addfriend bob@example.org   → Alpenhorn add-friend protocol (2 rounds)
//	/call bob@example.org        → Alpenhorn dialing protocol → session key
//	<conversation rounds>        → Vuvuzela-style dead-drop exchange
//
// Run it with:
//
//	go run ./examples/messenger
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"alpenhorn/internal/sim"
	"alpenhorn/internal/vuvuzela"
)

func main() {
	network, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer network.Close()
	aliceH := &sim.Handler{AcceptAll: true}
	bobH := &sim.Handler{AcceptAll: true}
	alice, err := network.NewClient("alice@example.org", aliceH)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := network.NewClient("bob@example.org", bobH)
	if err != nil {
		log.Fatal(err)
	}

	// Rounds are driven by the deployment; each client's Run loop follows
	// the announcements and delivers results through its handler (the
	// paper's event-driven Figure 1 API).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	network.StartRounds(ctx, sim.RoundDriver{WaitSubmissions: 2})
	go func() { _ = alice.Run(ctx) }()
	go func() { _ = bob.Run(ctx) }()

	// /addfriend bob@example.org
	fmt.Println("alice> /addfriend bob@example.org")
	if err := alice.AddFriend("bob@example.org", nil); err != nil {
		log.Fatal(err)
	}
	if !aliceH.WaitConfirmed("bob@example.org", time.Minute) ||
		!bobH.WaitConfirmed("alice@example.org", time.Minute) {
		log.Fatal("friendship did not complete")
	}
	fmt.Println("alpenhorn: friendship confirmed (keywheels synchronized)")

	// /call bob@example.org
	fmt.Println("alice> /call bob@example.org")
	if err := alice.Call("bob@example.org", 0); err != nil {
		log.Fatal(err)
	}
	out, ok := aliceH.WaitOutgoing(1, time.Minute)
	if !ok {
		log.Fatal("call did not complete")
	}
	in, ok := bobH.WaitIncoming(1, time.Minute)
	if !ok {
		log.Fatal("call did not complete")
	}
	fmt.Println("alpenhorn: call established, handing session key to the conversation protocol")

	// The paper's integration point: Vuvuzela's conversation protocol
	// "expected a public key as input, rather than a shared secret (as
	// provided by Call)" — our conversation layer takes the shared
	// secret directly.
	exchange := vuvuzela.NewExchange()
	aliceConv := vuvuzela.NewConversation(out[0].SessionKey, exchange, true)
	bobConv := vuvuzela.NewConversation(in[0].SessionKey, exchange, false)

	script := []struct {
		fromAlice, fromBob string
	}{
		{"hey bob — this channel leaked no metadata to set up", "hi alice! not even the servers know we're talking"},
		{"the keywheel gives us a fresh key next call too", "forward secrecy for the win. same time tomorrow?"},
	}
	for i, msgs := range script {
		round := uint32(i + 1)
		if err := aliceConv.Send(round, []byte(msgs.fromAlice)); err != nil {
			log.Fatal(err)
		}
		if err := bobConv.Send(round, []byte(msgs.fromBob)); err != nil {
			log.Fatal(err)
		}
		exchange.Exchange(round)

		got, ok := bobConv.Receive(round)
		if !ok {
			log.Fatal("bob missed a message")
		}
		fmt.Printf("  [round %d] alice → bob: %s\n", round, got)
		got, ok = aliceConv.Receive(round)
		if !ok {
			log.Fatal("alice missed a message")
		}
		fmt.Printf("  [round %d] bob → alice: %s\n", round, got)
	}
	fmt.Println("conversation complete")
}
