// Command panda reproduces the paper's Pond integration (§8.5): a
// standalone Alpenhorn client that lets two users friend and call each
// other, then PRINTS the resulting shared secret so they can paste it into
// PANDA (Pond's shared-secret key-agreement protocol).
//
// "This eliminates the need to generate a shared secret out-of-band." —§8.5
//
// Run it with:
//
//	go run ./examples/panda
package main

import (
	"context"
	"encoding/base32"
	"fmt"
	"log"
	"time"

	"alpenhorn/internal/sim"
)

func main() {
	network, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer network.Close()
	aliceH := &sim.Handler{AcceptAll: true}
	bobH := &sim.Handler{AcceptAll: true}
	alice, err := network.NewClient("alice@pond.example", aliceH)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := network.NewClient("bob@pond.example", bobH)
	if err != nil {
		log.Fatal(err)
	}

	// Both clients participate in every announced round through Run; the
	// handshake and the call ride whichever rounds come next.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	network.StartRounds(ctx, sim.RoundDriver{WaitSubmissions: 2})
	go func() { _ = alice.Run(ctx) }()
	go func() { _ = bob.Run(ctx) }()

	fmt.Println("alpenhorn-panda: friending alice@pond.example <-> bob@pond.example")
	if err := alice.AddFriend("bob@pond.example", nil); err != nil {
		log.Fatal(err)
	}
	if !aliceH.WaitConfirmed("bob@pond.example", time.Minute) ||
		!bobH.WaitConfirmed("alice@pond.example", time.Minute) {
		log.Fatal("friendship did not complete")
	}
	if err := alice.Call("bob@pond.example", 0); err != nil {
		log.Fatal(err)
	}
	out, okOut := aliceH.WaitOutgoing(1, time.Minute)
	in, okIn := bobH.WaitIncoming(1, time.Minute)
	if !okOut || !okIn || out[0].SessionKey != in[0].SessionKey {
		log.Fatal("call did not complete")
	}

	// PANDA secrets are short human-enterable strings; encode the
	// session key the way a user would copy it into Pond's PANDA dialog.
	secret := base32.StdEncoding.EncodeToString(out[0].SessionKey[:20])
	fmt.Println()
	fmt.Println("shared secret established with metadata privacy and forward secrecy.")
	fmt.Println("paste this into PANDA on both Pond clients:")
	fmt.Printf("\n    %s\n\n", secret)
	fmt.Println("(both users see the same value; verify the first characters out loud)")
}
