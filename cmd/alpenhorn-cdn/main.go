// Command alpenhorn-cdn runs one node of an Alpenhorn deployment's CDN
// tier: durable storage for sealed rounds' mailboxes, the client fetch
// surface, and replication with its peer nodes so every node ends up
// holding every round. Mailbox content is public — the privacy analysis
// ends when the last mixer publishes — so this tier is ordinary
// replicated storage and clients may fetch from any node (the directory's
// cdn_addrs list, failover via the client's CDN pool).
//
// A 2-node tier:
//
//	alpenhorn-cdn -addr cdnA:7030 -ingest cdnA:7031 \
//	    -data-dir /var/lib/alpenhorn-cdn -peers cdnB:7031
//	alpenhorn-cdn -addr cdnB:7030 -ingest cdnB:7031 \
//	    -data-dir /var/lib/alpenhorn-cdn -peers cdnA:7031
//
// with the coordinator's -cdn-public-addr pointed at either node's
// -ingest and -cdns listing both nodes' -addr. A node that seals a
// published round sends each peer a cdn.sealed notice, and the peer pulls
// the round (cdn.roundinfo, cdn.pull) from the nodes its own -peers
// lists, so each node names the other. A node that restarts reloads its
// sealed rounds from disk byte-identically and backfills whatever it
// missed from its peers the same way.
//
// -ingest serves cdn.publish and cdn.sealed: UNAUTHENTICATED WRITE
// surfaces that must stay off the client network (same plane split as
// alpenhorn-entry's -cdn-addr). -addr serves only reads.
//
// With -data-dir unset the node stores rounds in memory (tests, ephemeral
// deployments); rounds then survive neither restart nor crash, but peers
// still backfill the node when it returns.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/rpc"
)

func main() {
	addr := flag.String("addr", ":7030", "client-facing TCP address serving cdn.fetch/cdn.fetchrange")
	ingest := flag.String("ingest", ":7031", "server-plane TCP address serving cdn.publish/cdn.sealed and peer pulls (unauthenticated write surfaces; keep off the client network)")
	dataDir := flag.String("data-dir", "", "directory for durable round segments (empty: in-memory store)")
	peerList := flag.String("peers", "", "comma-separated -ingest addresses of the tier's other nodes; they hear of every round sealed here, and this node pulls rounds only from them (list each node on the other)")
	retention := flag.Int("retention", 64, "rounds retained per service (0: unbounded)")
	flag.Parse()

	var store *cdn.Store
	var err error
	if *dataDir != "" {
		store, err = cdn.OpenDiskStore(*dataDir, *retention)
		if err != nil {
			log.Fatalf("opening data dir %s: %v", *dataDir, err)
		}
		log.Printf("durable store at %s (retention %d rounds/service)", *dataDir, *retention)
	} else {
		store = cdn.NewStore(*retention)
		log.Printf("in-memory store (retention %d rounds/service)", *retention)
	}

	ingestSrv := rpc.NewServer()
	daemon := rpc.RegisterCDN(ingestSrv, store)
	ingestBound, err := ingestSrv.Listen(*ingest)
	if err != nil {
		log.Fatalf("ingest listener: %v", err)
	}
	defer ingestSrv.Close()
	log.Printf("ingest surface (cdn.publish/cdn.sealed) listening on %s", ingestBound)

	if *peerList != "" {
		peers := strings.Split(*peerList, ",")
		daemon.SetPeers(peers...)
		defer daemon.Close()
		// A node that was down while rounds sealed recovers them now;
		// a failed backfill is not fatal — the next notice still pulls
		// its round here, and the operator can restart to retry.
		recovered, err := daemon.Backfill()
		if err != nil {
			log.Printf("backfill from %v: %v (recovered %d rounds)", peers, err, recovered)
		} else if recovered > 0 {
			log.Printf("backfilled %d rounds from %v", recovered, peers)
		}
	}

	readSrv := rpc.NewServer()
	rpc.RegisterCDNFrontend(readSrv, store)
	bound, err := readSrv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer readSrv.Close()
	log.Printf("alpenhorn-cdn listening on %s", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	if err := store.Close(); err != nil {
		log.Printf("closing store: %v", err)
	}
}
