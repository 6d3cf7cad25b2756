// Command alpenhorn-entry runs the client-facing frontend of an Alpenhorn
// deployment: the (untrusted) entry server, the mailbox CDN, and the round
// coordinator that drives the PKG and mixer daemons.
//
//	alpenhorn-entry -addr :7000 \
//	    -pkgs  localhost:7001,localhost:7002,localhost:7003 \
//	    -mixers localhost:7101,localhost:7102,localhost:7103 \
//	    -addfriend-interval 30s -dialing-interval 10s
//
// -mixers is a flat list: daemons are grouped into chain positions (and,
// when several daemons advertise the same position with -shard i/N, into
// that position's shard group) by what each daemon reports. Daemons
// started with -spare join their position's hot-spare pool instead: the
// coordinator's scheduler probes every member and spare at round-plan
// time, benches the members that fail (or breach -latency-slo), drafts
// spares into their slots, and re-admits them automatically once they
// recover — rounds keep closing with zero operator action. In round r
// each shard group's merge/build lead is member r % N. The mixers push
// batches to each other and the last position publishes the mailboxes to
// this daemon's cdn.publish listener (-cdn-addr). This daemon's entry
// server deals its own sub-batch into the first position, as every
// frontend does; the coordinator here moves control messages only.
// The scheduler's per-daemon scoreboard and the round-health ring are
// served read-only over the coordinator.status RPC on the client port.
//
// Clients connect here, fetch the deployment directory (server addresses
// and pinned keys), and then follow the entry.events stream to participate.
//
// # Multi-frontend topology
//
// The entry tier scales out horizontally: extra copies of this binary run
// as PURE frontends (-frontend-only) against the coordinator instance, and
// the coordinator replays every round announcement to each of them in the
// same order, so all frontends serve one shared event-cursor namespace and
// clients can fail over between them mid-round. Each frontend admits its
// own sub-batch of onions and, when the coordinator closes its intake,
// deals it into the first mix position directly (counted NumUpstream
// fan-in; every frontend deals at once, and the first position orders the
// sub-batches by frontend). A 2-frontend deployment:
//
//	# frontend B: pure frontend, no coordinator
//	alpenhorn-entry -frontend-only -addr feB:7000 \
//	    -replica-addr feB:7020 -coordinator-addr feA:7000
//
//	# frontend A: coordinator + first frontend
//	alpenhorn-entry -addr feA:7000 -pkgs ... -mixers ... \
//	    -frontends feB:7000=feB:7020
//
// Clients learn the full frontend list from the directory served by ANY
// frontend (frontend_addrs) and spread their connections across it.
// -replica-addr is a server-plane surface like -cdn-addr: it accepts the
// coordinator's announcements and intake closes, so it must not be
// exposed to clients.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7000", "TCP address to listen on")
	pkgAddrs := flag.String("pkgs", "", "comma-separated PKG daemon addresses")
	mixerAddrs := flag.String("mixers", "", "comma-separated mixer daemon addresses (chain order)")
	afInterval := flag.Duration("addfriend-interval", 30*time.Second, "add-friend round interval")
	dlInterval := flag.Duration("dialing-interval", 10*time.Second, "dialing round interval")
	submitWindow := flag.Duration("submit-window", 5*time.Second, "time clients have to submit before a round closes")
	cdnAddr := flag.String("cdn-addr", ":7010", "server-plane listen address for cdn.publish (kept OFF the client-facing -addr: the transport is unauthenticated)")
	cdnPublicAddr := flag.String("cdn-public-addr", "", "address mixers dial to reach cdn.publish (default: -cdn-addr; set host:port for multi-machine deployments)")
	frontendOnly := flag.Bool("frontend-only", false, "run as a pure entry frontend joined to an existing deployment (-coordinator-addr); no PKGs, mixers, CDN, or round timers here")
	coordinatorAddr := flag.String("coordinator-addr", "", "client-facing address of the coordinator frontend to join (with -frontend-only)")
	replicaAddr := flag.String("replica-addr", ":7020", "server-plane listen address for entry.replicate (with -frontend-only; kept OFF the client-facing -addr: the transport is unauthenticated)")
	frontendSpecs := flag.String("frontends", "", "comma-separated extra frontends joining this coordinator, each clientAddr=replicaAddr; announcements replay to all of them and each feeds its own sub-batch")
	cdnNodes := flag.String("cdns", "", "comma-separated client-facing addresses of dedicated alpenhorn-cdn nodes, published in the directory (cdn_addrs) so clients fetch mailboxes from the CDN tier with failover; point -cdn-public-addr at one node's -ingest so rounds publish there (this binary's embedded store is the degenerate single-node case)")
	roundDeadline := flag.Duration("round-deadline", 2*time.Minute, "per-round data-plane deadline pushed to every mixer (0 = none); a stalled round aborts instead of wedging the chain")
	latencySLO := flag.Duration("latency-slo", 0, "per-daemon round-duration SLO (0 = none); a daemon breaching it is benched and replaced by a hot spare until it recovers")
	flag.Parse()

	if *frontendOnly {
		if *coordinatorAddr == "" {
			log.Fatal("-frontend-only needs -coordinator-addr")
		}
		runFrontendOnly(*addr, *replicaAddr, *coordinatorAddr)
		return
	}

	if *pkgAddrs == "" || *mixerAddrs == "" {
		log.Fatal("need -pkgs and -mixers")
	}

	// Connect to the backend daemons and collect their pinned keys for
	// the client directory.
	dir := rpc.Directory{PKGAddrs: strings.Split(*pkgAddrs, ",")}
	var pkgs []coordinator.PKG
	for _, a := range dir.PKGAddrs {
		pc := rpc.DialPKG(a)
		info, err := pc.Info()
		if err != nil {
			log.Fatalf("connecting to PKG %s: %v", a, err)
		}
		log.Printf("PKG %s (%s) key %x…", a, info.Name, info.SigningKey[:8])
		dir.PKGKeys = append(dir.PKGKeys, info.SigningKey)
		dir.PKGBLSKeys = append(dir.PKGBLSKeys, info.BLSKey)
		pkgs = append(pkgs, pc)
	}
	// Group mixers into per-position shard sets by what each daemon
	// advertises (-position and -shard i/N). Clients only ever see one
	// key per POSITION — a shard group is one logical mixer, so the
	// directory and round settings are identical to an unsharded chain.
	byPosition := make(map[int]map[int]*rpc.MixerClient)
	sparesByPosition := make(map[int][]coordinator.Mixer)
	for _, a := range strings.Split(*mixerAddrs, ",") {
		mc, err := rpc.DialMixer(a)
		if err != nil {
			log.Fatalf("connecting to mixer %s: %v", a, err)
		}
		info := mc.Info()
		if info.Spare {
			// Hot spare: no fixed slot. The scheduler drafts it into a
			// benched member's slot at its position when a round needs it.
			log.Printf("mixer %s (%s, position %d) standing by as a hot spare", a, info.Name, info.Position)
			sparesByPosition[info.Position] = append(sparesByPosition[info.Position], mc)
			continue
		}
		count := info.ShardCount
		if count == 0 {
			count = 1
		}
		log.Printf("mixer %s (%s, position %d, shard %d/%d) key %x…", a, info.Name, info.Position, info.ShardIndex, count, info.SigningKey[:8])
		group := byPosition[info.Position]
		if group == nil {
			group = make(map[int]*rpc.MixerClient)
			byPosition[info.Position] = group
		}
		if _, dup := group[info.ShardIndex]; dup {
			log.Fatalf("two mixers advertise position %d shard %d", info.Position, info.ShardIndex)
		}
		group[info.ShardIndex] = mc
	}
	var mixers []coordinator.Mixer
	shards := make([][]coordinator.Mixer, len(byPosition))
	for i := 0; i < len(byPosition); i++ {
		group, ok := byPosition[i]
		if !ok {
			log.Fatalf("no mixer advertises position %d (positions must be contiguous from 0)", i)
		}
		for s := 0; s < len(group); s++ {
			mc, ok := group[s]
			if !ok {
				log.Fatalf("position %d: no mixer advertises shard %d (shard indices must be contiguous from 0)", i, s)
			}
			if want := mc.Info().ShardCount; want != 0 && want != len(group) {
				log.Fatalf("position %d: shard %d expects a group of %d, found %d", i, s, want, len(group))
			}
			if s == 0 {
				// Shard 0 is the position's announcer: it signs the round
				// announcements, so its key is the one clients pin. The
				// merge/build-lead role rotates separately each round.
				dir.MixerKeys = append(dir.MixerKeys, mc.Info().SigningKey)
				mixers = append(mixers, mc)
			} else {
				shards[i] = append(shards[i], mc)
			}
		}
		if len(group) > 1 {
			log.Printf("position %d is sharded across %d daemons (announcer %s)", i, len(group), group[0].Addr())
		}
	}
	dir.NumMixers = len(mixers)
	spares := make([][]coordinator.Mixer, len(mixers))
	for pos, pool := range sparesByPosition {
		if pos < 0 || pos >= len(mixers) {
			log.Fatalf("spare mixer advertises position %d, but the chain has positions 0..%d", pos, len(mixers)-1)
		}
		spares[pos] = pool
	}

	e := entry.New()
	store := cdn.NewStore(64)
	coord := &coordinator.Coordinator{
		Entry:                    e,
		Mixers:                   mixers,
		Shards:                   shards,
		Spares:                   spares,
		PKGs:                     pkgs,
		TargetRequestsPerMailbox: 24000,
		RoundDeadline:            *roundDeadline,
		LatencySLO:               *latencySLO,
		Logger:                   log.Default(),
	}
	// The publish surface gets its own listener: it is a WRITE surface
	// with no authentication, so it must not share the client-facing
	// server (a client could otherwise publish a round's mailboxes before
	// the real last mixer).
	cdnSrv := rpc.NewServer()
	rpc.RegisterCDN(cdnSrv, store)
	cdnBound, err := cdnSrv.Listen(*cdnAddr)
	if err != nil {
		log.Fatalf("cdn.publish listener: %v", err)
	}
	defer cdnSrv.Close()
	coord.CDNAddr = *cdnPublicAddr
	if coord.CDNAddr == "" {
		coord.CDNAddr = *cdnAddr
	}
	if strings.HasPrefix(coord.CDNAddr, ":") {
		log.Printf("warning: cdn public address %q has no host — last mixers will dial their own loopback; set -cdn-public-addr host:port for multi-machine deployments", coord.CDNAddr)
	}
	log.Printf("cdn.publish listening on %s, advertised to the last mixers as %s", cdnBound, coord.CDNAddr)

	if *frontendSpecs != "" {
		// Extra frontends: replay announcements to each one's replica
		// surface, and publish the full client-facing list in the
		// directory so clients can pool the tier and fail over.
		if strings.HasPrefix(*addr, ":") {
			log.Printf("warning: -addr %q has no host — the directory's frontend list will not resolve from other machines", *addr)
		}
		dir.FrontendAddrs = []string{*addr}
		for _, spec := range strings.Split(*frontendSpecs, ",") {
			clientAddr, replica, ok := strings.Cut(spec, "=")
			if !ok {
				log.Fatalf("-frontends entry %q: want clientAddr=replicaAddr", spec)
			}
			coord.Frontends = append(coord.Frontends, rpc.DialEntryReplica(replica))
			dir.FrontendAddrs = append(dir.FrontendAddrs, clientAddr)
			log.Printf("frontend %s joined (replica surface %s)", clientAddr, replica)
		}
	}

	if *cdnNodes != "" {
		dir.CDNAddrs = strings.Split(*cdnNodes, ",")
		log.Printf("directory advertises CDN tier %v", dir.CDNAddrs)
	}

	server := rpc.NewServer()
	rpc.RegisterFrontend(server, e, store, dir)
	// Read-only operator surface: the round-health ring plus the
	// scheduler's per-daemon scoreboard and bench/spare state.
	rpc.RegisterCoordinatorStatus(server, func() any {
		return struct {
			Health     []coordinator.RoundHealth `json:"health"`
			Scoreboard coordinator.Scoreboard    `json:"scoreboard"`
		}{coord.Status(), coord.Scoreboard()}
	})
	bound, err := server.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("alpenhorn-entry listening on %s", bound)

	stop := make(chan struct{})
	go runRounds(coord, wire.AddFriend, *afInterval, *submitWindow, stop)
	go runRounds(coord, wire.Dialing, *dlInterval, *submitWindow, stop)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	close(stop)
	log.Println("shutting down")
	server.Close()
}

// runFrontendOnly joins an existing deployment as an additional entry
// frontend: it serves the full client surface (directory, submits, the
// entry.events push stream, mailbox fetches) backed by a local entry
// server whose announcement log the coordinator replays over the
// entry.replicate surface. Mailbox fetches proxy to the coordinator
// frontend — a pure frontend holds no CDN store of its own.
func runFrontendOnly(addr, replicaAddr, coordinatorAddr string) {
	primary := rpc.DialFrontend(coordinatorAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	dir, err := primary.Directory(ctx)
	cancel()
	if err != nil {
		log.Fatalf("fetching directory from coordinator %s: %v", coordinatorAddr, err)
	}
	log.Printf("joined deployment at %s (client protocol version %d, %d PKGs, %d mixers)", coordinatorAddr, dir.ProtocolVersion, len(dir.PKGAddrs), dir.NumMixers)

	e := entry.New()

	// The replica surface is a WRITE surface with no authentication
	// (announcement replay + intake closes), so like cdn.publish it
	// gets its own listener off the client-facing port.
	replicaSrv := rpc.NewServer()
	rpc.RegisterEntryReplica(replicaSrv, e)
	replicaBound, err := replicaSrv.Listen(replicaAddr)
	if err != nil {
		log.Fatalf("entry.replicate listener: %v", err)
	}
	defer replicaSrv.Close()

	server := rpc.NewServer()
	rpc.RegisterFrontend(server, e, remoteMailboxes{c: primary}, *dir)
	bound, err := server.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("alpenhorn-entry frontend listening on %s (replica surface %s)", bound, replicaBound)
	log.Printf("note: this frontend must be listed in the coordinator's -frontends BEFORE rounds open — the replicated log has no history replay")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	server.Close()
}

// remoteMailboxes satisfies rpc.MailboxSource by proxying fetches to the
// coordinator frontend, which owns the deployment's CDN store.
type remoteMailboxes struct {
	c *rpc.FrontendClient
}

func (m remoteMailboxes) Fetch(service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	return m.c.Fetch(context.Background(), service, round, mailbox)
}

func (m remoteMailboxes) FetchRange(service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	return m.c.FetchRange(context.Background(), service, fromRound, toRound, mailbox)
}

// runRounds drives one protocol's rounds on a timer: open, wait for the
// submit window, then close — which runs the data plane, publishes the
// mailboxes, and (for add-friend) erases the PKG master keys, since
// clients extract only during the submit window. Open and published
// announcements flow through the entry server's event log, which the
// entry.events stream serves to clients.
func runRounds(c *coordinator.Coordinator, service wire.Service, interval, window time.Duration, stop <-chan struct{}) {
	round := uint32(1)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		var err error
		if service == wire.AddFriend {
			_, err = c.OpenAddFriendRound(round)
		} else {
			_, err = c.OpenDialingRound(round)
		}
		if err != nil {
			// Not fatal: an open can fail transiently (a frontend replica
			// briefly unreachable, a PKG restarting). The round number is
			// burned — the local entry server may already have announced
			// it — so move on to a fresh one at the next tick.
			log.Printf("%s round %d open: %v (retrying with round %d next interval)", service, round, err, round+1)
			round++
			select {
			case <-ticker.C:
			case <-stop:
				return
			}
			continue
		}
		log.Printf("%s round %d open (submit window %v)", service, round, window)

		select {
		case <-time.After(window):
		case <-stop:
			return
		}

		if _, err := c.CloseRound(service, round); err != nil {
			// A failed round is not fatal: its keys are erased, clients
			// requeue, and the next round carries the traffic.
			log.Printf("%s round %d close: %v (continuing with next round)", service, round, err)
		} else {
			log.Printf("%s round %d mailboxes published", service, round)
		}
		// PKG master keys for the round were already erased inside
		// CloseRound, concurrently with the mix: extraction can only
		// happen during the submit window.

		round++
		select {
		case <-ticker.C:
		case <-stop:
			return
		}
	}
}
