package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// The fleet has one shape for every workload, so that a number from one
// workload can be set beside the same number from another.
const (
	numPKGs      = 3
	numPositions = 3
	shardsPerPos = 2
	numCDNNodes  = 2
	numIntents   = 10 // the paper's evaluation default (§8.1)
)

// cdnNode is one node of the CDN tier: a store, the ingest listener that
// takes cdn.publish and cdn.replicate, and the read listener clients use.
type cdnNode struct {
	store      *cdn.Store
	daemon     *rpc.CDNDaemon
	ingestAddr string
	readAddr   string
}

// fleet is the whole deployment in one process, every tier behind its
// own loopback TCP listener: 3 PKG daemons, 3 mix positions of 2 shard
// daemons each, 2 entry frontends, 2 CDN nodes that replicate to each
// other, and the coordinator. It is wired from the same exported
// constructors the cmd/ daemons use.
type fleet struct {
	provider *email.InMemoryProvider
	pkgs     []*pkgserver.Server
	pkgAddrs []string
	// pkgBytes counts every byte the PKG listeners read or write.
	// rpc.PKGClient keeps no transport statistics, so this is how a
	// probe's extraction traffic is measured.
	pkgBytes atomic.Uint64

	mixers       [][]*mixnet.Server // [position][shard]
	mixerClients [][]*rpc.MixerClient

	entries       []*entry.Server // the coordinator's own, then the replica
	frontendAddrs []string

	cdns  []*cdnNode
	coord *coordinator.Coordinator

	mixerKeys  []ed25519.PublicKey
	pkgKeys    []ed25519.PublicKey
	pkgBLSKeys []*bls.PublicKey

	closers []func()
}

// fleetConfig is what differs between workloads: the per-position noise
// mean of each service, and where the CDN nodes keep their segments.
type fleetConfig struct {
	addFriendMu float64
	dialingMu   float64
	// dir is the directory the CDN nodes write under; "" selects the
	// memory backend, which only the smoke test may use.
	dir string
}

func (c fleetConfig) mu(service wire.Service) float64 {
	if service == wire.AddFriend {
		return c.addFriendMu
	}
	return c.dialingMu
}

// fleetConfig gives the workload's service its noise mean and the other
// service mu 2.
func (w workload) fleetConfig(dir string) fleetConfig {
	cfg := fleetConfig{addFriendMu: 2, dialingMu: 2, dir: dir}
	if w.service == wire.AddFriend {
		cfg.addFriendMu = w.mu
	} else {
		cfg.dialingMu = w.mu
	}
	return cfg
}

type countingListener struct {
	net.Listener
	n *atomic.Uint64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// listen serves srv on a fresh loopback port and closes it with the fleet.
func (f *fleet) listen(srv *rpc.Server) (string, error) {
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.closers = append(f.closers, srv.Close)
	return addr, nil
}

func startFleet(cfg fleetConfig) (f *fleet, err error) {
	f = &fleet{provider: email.NewInMemoryProvider()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	var coordPKGs []coordinator.PKG
	for i := 0; i < numPKGs; i++ {
		pkg, err := pkgserver.New(pkgserver.Config{Name: fmt.Sprintf("pkg%d", i), Provider: f.provider})
		if err != nil {
			return nil, err
		}
		srv := rpc.NewServer()
		rpc.RegisterPKG(srv, pkg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv.Serve(countingListener{ln, &f.pkgBytes})
		f.closers = append(f.closers, srv.Close)
		f.pkgs = append(f.pkgs, pkg)
		f.pkgAddrs = append(f.pkgAddrs, ln.Addr().String())
		f.pkgKeys = append(f.pkgKeys, pkg.SigningKey())
		f.pkgBLSKeys = append(f.pkgBLSKeys, pkg.BLSKey())
		coordPKGs = append(coordPKGs, rpc.DialPKG(ln.Addr().String()))
	}

	// Mixer randomness stays crypto/rand: a seeded source forces
	// Parallelism 1, which would measure a different program.
	afNoise := noise.Laplace{Mu: cfg.addFriendMu, B: 0}
	dlNoise := noise.Laplace{Mu: cfg.dialingMu, B: 0}
	var leads []coordinator.Mixer
	shards := make([][]coordinator.Mixer, numPositions)
	for pos := 0; pos < numPositions; pos++ {
		var servers []*mixnet.Server
		var clients []*rpc.MixerClient
		for s := 0; s < shardsPerPos; s++ {
			m, err := mixnet.New(mixnet.Config{
				Name: fmt.Sprintf("mix%d-%d", pos, s), Position: pos, ChainLength: numPositions,
				AddFriendNoise: &afNoise, DialingNoise: &dlNoise,
				ShardIndex: s, ShardCount: shardsPerPos,
			})
			if err != nil {
				return nil, err
			}
			srv := rpc.NewServer()
			rpc.RegisterMixer(srv, m)
			addr, err := f.listen(srv)
			if err != nil {
				return nil, err
			}
			mc, err := rpc.DialMixer(addr)
			if err != nil {
				return nil, err
			}
			servers = append(servers, m)
			clients = append(clients, mc)
			if s == 0 {
				// Shard 0 announces the position's round key; its
				// signing key is the one clients pin.
				leads = append(leads, mc)
				f.mixerKeys = append(f.mixerKeys, m.SigningKey())
			} else {
				shards[pos] = append(shards[pos], mc)
			}
		}
		f.mixers = append(f.mixers, servers)
		f.mixerClients = append(f.mixerClients, clients)
	}

	for i := 0; i < numCDNNodes; i++ {
		n := &cdnNode{}
		if cfg.dir == "" {
			n.store = cdn.NewStore(0)
		} else if n.store, err = cdn.OpenDiskStore(filepath.Join(cfg.dir, fmt.Sprintf("cdn%d", i)), 0); err != nil {
			return nil, err
		}
		f.closers = append(f.closers, func() { n.store.Close() })
		ingest := rpc.NewServer()
		n.daemon = rpc.RegisterCDN(ingest, n.store)
		f.closers = append(f.closers, n.daemon.Close)
		if n.ingestAddr, err = f.listen(ingest); err != nil {
			return nil, err
		}
		read := rpc.NewServer()
		rpc.RegisterCDNFrontend(read, n.store)
		if n.readAddr, err = f.listen(read); err != nil {
			return nil, err
		}
		f.cdns = append(f.cdns, n)
	}
	f.cdns[0].daemon.SetPeers(f.cdns[1].ingestAddr)
	f.cdns[1].daemon.SetPeers(f.cdns[0].ingestAddr)

	// Frontend 0 is the coordinator's own entry server; frontend 1 joins
	// over the entry.replicate surface and deals its sub-batch into
	// position 0 itself.
	f.entries = []*entry.Server{entry.New(), entry.New()}
	replicaSrv := rpc.NewServer()
	rpc.RegisterEntryReplica(replicaSrv, f.entries[1])
	replicaAddr, err := f.listen(replicaSrv)
	if err != nil {
		return nil, err
	}
	replica := rpc.DialEntryReplica(replicaAddr)
	f.closers = append(f.closers, replica.Close)
	dir := rpc.Directory{NumMixers: numPositions}
	for _, e := range f.entries {
		srv := rpc.NewServer()
		rpc.RegisterFrontend(srv, e, f.cdns[0].store, dir)
		addr, err := f.listen(srv)
		if err != nil {
			return nil, err
		}
		f.frontendAddrs = append(f.frontendAddrs, addr)
	}

	f.coord = &coordinator.Coordinator{
		Entry:         f.entries[0],
		Frontends:     []coordinator.Frontend{replica},
		Mixers:        leads,
		Shards:        shards,
		PKGs:          coordPKGs,
		CDN:           f.cdns[0].store,
		ChainForward:  true,
		CDNAddr:       f.cdns[0].ingestAddr,
		PairingV2:     true,
		RoundDeadline: time.Minute,
	}
	return f, nil
}

// close stops every listener and daemon, newest first, and waits for
// their goroutines.
func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}

// pinMailboxes makes the next round of service open with exactly k
// mailboxes: the coordinator sizes K as expected volume over (target minus
// the positions' noise), so a target one above the noise and an expected
// volume of k gives k. CloseRound overwrites the expected volume with the
// batch it saw, so this runs before every open.
func (f *fleet) pinMailboxes(service wire.Service, k uint32) {
	noise := 0.0
	for _, m := range f.coord.Mixers {
		noise += m.NoiseMu(service)
	}
	f.coord.TargetRequestsPerMailbox = int(noise) + 1
	f.coord.SetExpectedVolume(service, int(k))
}

// recorder is the core.Handler of a probe. It keeps what the client
// reported since the last take, so a round's events can be checked against
// exactly what that round should have delivered.
type recorder struct {
	mu     sync.Mutex
	events roundEvents
}

type roundEvents struct {
	newFriends []string
	confirmed  []string
	incoming   []core.Call
	outgoing   []core.Call
	errors     []error
}

func (r *recorder) NewFriend(email string, _ ed25519.PublicKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events.newFriends = append(r.events.newFriends, email)
	return true
}

func (r *recorder) ConfirmedFriend(email string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events.confirmed = append(r.events.confirmed, email)
}

func (r *recorder) IncomingCall(call core.Call) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events.incoming = append(r.events.incoming, call)
}

func (r *recorder) OutgoingCall(call core.Call) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events.outgoing = append(r.events.outgoing, call)
}

func (r *recorder) Error(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events.errors = append(r.events.errors, err)
}

func (r *recorder) take() roundEvents {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.events
	r.events = roundEvents{}
	return ev
}

// spanEntry is the probe's entry transport with a span around each
// submit, so a traced run can tell the TCP submit apart from the client
// work around it. With a nil tracer it only forwards.
type spanEntry struct {
	core.EntryServer
	tr     *tracer // set with parent by the driver before each submit
	parent int     // the probe's current core.submit span
}

func (e *spanEntry) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	id := e.tr.begin("entry.tcp_submit", e.parent, round)
	defer e.tr.end(id)
	return e.EntryServer.Submit(ctx, service, round, onion)
}

// probe is one real core.Client with its own connections to every tier,
// so its transport counters are its own.
type probe struct {
	email     string
	client    *core.Client
	events    *recorder
	entry     *spanEntry
	frontends *rpc.FrontendPool
	mailboxes *rpc.CDNPool
}

// transportBytes is what the probe has sent and received so far through
// its frontend and CDN pools.
func (p *probe) transportBytes() uint64 {
	fs, cs := p.frontends.TransportStats(), p.mailboxes.TransportStats()
	return fs.BytesSent + fs.BytesReceived + cs.BytesSent + cs.BytesReceived
}

func (p *probe) close() {
	p.frontends.Close()
	p.mailboxes.Close()
}

// newProbe registers a client at every PKG over TCP and confirms it with
// the tokens the PKGs mailed. Probe i starts on frontend i mod 2, so the
// probes spread over the entry tier.
func (f *fleet) newProbe(ctx context.Context, i int) (*probe, error) {
	p := &probe{email: fmt.Sprintf("probe%d@bench.example", i), events: &recorder{}}
	addrs := append([]string(nil), f.frontendAddrs...)
	if i%2 == 1 {
		addrs[0], addrs[1] = addrs[1], addrs[0]
	}
	p.frontends = rpc.DialFrontendPool(addrs...)
	p.mailboxes = rpc.DialCDNPool(f.cdns[0].readAddr, f.cdns[1].readAddr)
	p.entry = &spanEntry{EntryServer: p.frontends, parent: -1}
	f.closers = append(f.closers, p.close)
	pkgs := make([]core.PKG, numPKGs)
	for j, addr := range f.pkgAddrs {
		pkgs[j] = rpc.DialPKG(addr)
	}
	client, err := core.NewClient(core.Config{
		Email:      p.email,
		PKGs:       pkgs,
		Entry:      p.entry,
		Mailboxes:  p.mailboxes,
		MixerKeys:  f.mixerKeys,
		PKGKeys:    f.pkgKeys,
		PKGBLSKeys: f.pkgBLSKeys,
		NumIntents: numIntents,
		Handler:    p.events,
	})
	if err != nil {
		return nil, err
	}
	p.client = client
	if err := client.Register(ctx); err != nil {
		return nil, err
	}
	if err := confirmAll(ctx, f.provider, f.pkgs, client); err != nil {
		return nil, err
	}
	return p, nil
}

// confirmAll completes a registration by echoing each PKG's newest
// emailed token, standing in for the user clicking confirmation links.
func confirmAll(ctx context.Context, provider *email.InMemoryProvider, pkgs []*pkgserver.Server, client *core.Client) error {
	inbox := provider.Inbox(client.Email())
	for i, pkg := range pkgs {
		from := fmt.Sprintf("pkg-%s@", pkg.Name)
		confirmed := false
		for j := len(inbox) - 1; j >= 0 && !confirmed; j-- {
			if strings.HasPrefix(inbox[j].From, from) {
				if err := client.ConfirmRegistration(ctx, i, inbox[j].Body); err != nil {
					return fmt.Errorf("confirming %s at PKG %d: %w", client.Email(), i, err)
				}
				confirmed = true
			}
		}
		if !confirmed {
			return fmt.Errorf("no confirmation mail from PKG %d for %s", i, client.Email())
		}
	}
	return nil
}
