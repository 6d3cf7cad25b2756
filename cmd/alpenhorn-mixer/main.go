// Command alpenhorn-mixer runs one Alpenhorn mixnet server as a network
// daemon.
//
// Mixers form a fixed chain; each daemon is started with its position.
// The anytrust guarantee needs only one honest mixer in the chain.
//
//	alpenhorn-mixer -addr :7101 -position 0 -chain 3
//	alpenhorn-mixer -addr :7102 -position 1 -chain 3
//	alpenhorn-mixer -addr :7103 -position 2 -chain 3
//
// One position may be SHARDED across several machines run by the same
// operator — they jointly peel the position's batch, divide its noise,
// and merge into a single full-batch shuffle on one member:
//
//	alpenhorn-mixer -addr :7102 -position 1 -chain 3 -shard 0/2
//	alpenhorn-mixer -addr :7112 -position 1 -chain 3 -shard 1/2
//
// The entry daemon groups mixers by their advertised position and shard
// index; the coordinator plans the shard routes each round. Shard 0 is
// the position's ANNOUNCER — it signs the round announcements clients
// verify, so its signing key is the pinned one — while the merge/build
// lead role rotates round-robin across the group (the shuffle
// permutation is derived from the round key, so rotation never changes
// a round's output). Round keys move inside the group over the server
// plane (mix.round.exportkey, gated to the round's planned peers) —
// keep mixer addresses off the client network.
//
// A machine may instead stand by as a hot SPARE (-spare): it advertises
// no fixed slot, and the coordinator drafts it into whichever benched
// member's slot needs covering that round:
//
//	alpenhorn-mixer -addr :7122 -position 1 -chain 3 -spare
//
// The daemon serves the one data plane: the coordinator assigns it a route
// each round (mix.round.route) — its place in its position's shard group,
// and the next position's shard set — and the daemon pushes its output
// straight to its group's lead and, as lead, to those successors; at the
// end of the chain it builds its range of the round's mailboxes and
// publishes them directly to the CDN. An unsharded daemon is a group of
// one. Peer connections are dialed with retry/backoff and reused across
// rounds.
//
// The -addfriend-mu and -dialing-mu flags set the per-mailbox noise means
// (paper defaults: 4000 and 25000; use small values for local testing).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/rpc"
)

func main() {
	addr := flag.String("addr", ":7101", "TCP address to listen on")
	name := flag.String("name", "mixer", "server name for logs")
	position := flag.Int("position", 0, "position in the mix chain (0 = first)")
	chain := flag.Int("chain", 3, "total servers in the chain")
	afMu := flag.Float64("addfriend-mu", noise.AddFriendNoise.Mu, "mean add-friend noise per mailbox")
	afB := flag.Float64("addfriend-b", noise.AddFriendNoise.B, "add-friend noise scale (0 = deterministic)")
	dlMu := flag.Float64("dialing-mu", noise.DialingNoise.Mu, "mean dialing noise per mailbox")
	dlB := flag.Float64("dialing-b", noise.DialingNoise.B, "dialing noise scale (0 = deterministic)")
	shard := flag.String("shard", "", "shard identity i/N when N daemons jointly serve this position (e.g. 0/2; shard 0 announces for the group)")
	spare := flag.Bool("spare", false, "run as an unpinned hot spare for this position: idle until the coordinator drafts it into a benched member's slot")
	flag.Parse()

	shardIndex, shardCount := 0, 0
	if *shard != "" {
		if *spare {
			log.Fatal("-spare daemons are unpinned; drop -shard")
		}
		if _, err := fmt.Sscanf(*shard, "%d/%d", &shardIndex, &shardCount); err != nil ||
			shardCount < 1 || shardIndex < 0 || shardIndex >= shardCount {
			log.Fatalf("bad -shard %q: want i/N with 0 <= i < N", *shard)
		}
	}

	m, err := mixnet.New(mixnet.Config{
		Name:           *name,
		Position:       *position,
		ChainLength:    *chain,
		AddFriendNoise: &noise.Laplace{Mu: *afMu, B: *afB},
		DialingNoise:   &noise.Laplace{Mu: *dlMu, B: *dlB},
		ShardIndex:     shardIndex,
		ShardCount:     shardCount,
		Spare:          *spare,
	})
	if err != nil {
		log.Fatal(err)
	}

	server := rpc.NewServer()
	daemon := rpc.RegisterMixer(server, m)
	bound, err := server.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	shardLabel := "unsharded"
	if *spare {
		shardLabel = "hot spare"
	} else if shardCount > 0 {
		shardLabel = fmt.Sprintf("shard %d/%d", shardIndex, shardCount)
	}
	log.Printf("alpenhorn-mixer %q (position %d/%d, %s) listening on %s", *name, *position, *chain, shardLabel, bound)
	log.Printf("long-term signing key: %x", m.SigningKey())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	if r := daemon.PendingRoutes(); r > 0 {
		log.Printf("warning: %d routes still pending at shutdown", r)
	}
	server.Close()
}
