// Command quickstart is the smallest complete Alpenhorn session: two users
// who know only each other's email addresses establish a friendship and a
// fresh shared session key, with every message travelling through the real
// protocol stack (IBE-encrypted friend requests, a 3-server mixnet with
// noise, Bloom-filter dialing mailboxes).
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"log"
	"time"

	"alpenhorn/internal/sim"
)

func main() {
	// A deployment: 3 PKG servers, 3 mixnet servers, an entry server,
	// and a mailbox CDN, all in-process. The anytrust guarantee means
	// every component except ONE mixer and ONE PKG could be malicious
	// and the metadata below would still be protected.
	network, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer network.Close()

	// Each user supplies a handler: the application callbacks from
	// Figure 1 of the paper (NewFriend, ConfirmedFriend, IncomingCall…).
	aliceHandler := &sim.Handler{AcceptAll: true}
	bobHandler := &sim.Handler{AcceptAll: true}

	alice, err := network.NewClient("alice@example.org", aliceHandler)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := network.NewClient("bob@example.org", bobHandler)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered alice@example.org and bob@example.org (email-confirmed at 3 PKGs)")

	// The event-driven API: rounds are announced by the deployment and
	// each client's Run loop follows them — submitting every round
	// (cover traffic included, which is what hides real activity),
	// scanning every published mailbox, and delivering results through
	// the Handler. No application-side round bookkeeping.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	network.StartRounds(ctx, sim.RoundDriver{WaitSubmissions: 2})
	go func() { _ = alice.Run(ctx) }()
	go func() { _ = bob.Run(ctx) }()

	// Alice adds Bob knowing ONLY his email address: no key lookup, no
	// out-of-band exchange. (She could pass Bob's public key as a second
	// argument if she had it — e.g. from a business card.) The request
	// goes out in the next add-friend round; Bob's handler accepts it
	// and his response confirms the friendship a round later.
	if err := alice.AddFriend("bob@example.org", nil); err != nil {
		log.Fatal(err)
	}
	if !aliceHandler.WaitConfirmed("bob@example.org", time.Minute) ||
		!bobHandler.WaitConfirmed("alice@example.org", time.Minute) {
		log.Fatal("friendship did not complete")
	}
	fmt.Printf("friendship confirmed: alice→%v, bob→%v\n",
		alice.IsFriend("bob@example.org"), bob.IsFriend("alice@example.org"))

	// Alice calls Bob with intent 0 ("let's chat right now", §5.3). The
	// dial token rides a coming dialing round; Bob's scan finds it.
	if err := alice.Call("bob@example.org", 0); err != nil {
		log.Fatal(err)
	}
	out, ok := aliceHandler.WaitOutgoing(1, time.Minute)
	if !ok {
		log.Fatal("call was never sent")
	}
	in, ok := bobHandler.WaitIncoming(1, time.Minute)
	if !ok {
		log.Fatal("call was never received")
	}

	fmt.Printf("alice's session key: %s…\n", hex.EncodeToString(out[0].SessionKey[:8]))
	fmt.Printf("bob's   session key: %s…\n", hex.EncodeToString(in[0].SessionKey[:8]))
	if out[0].SessionKey == in[0].SessionKey {
		fmt.Println("keys match: hand this to your messaging protocol (see examples/messenger)")
	} else {
		log.Fatal("keys differ: this is a bug")
	}
}
