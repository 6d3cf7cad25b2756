// Package sim builds a complete Alpenhorn deployment in one process: PKGs,
// mixer shard groups with optional hot spares, a CDN node, entry
// frontends, a simulated email provider and a round coordinator.
//
// NewNetwork is the one builder of that deployment. Every daemon is served
// through the handlers the cmd/ daemons register (rpc.RegisterMixer,
// RegisterCDN, RegisterFrontend, RegisterEntryReplica), so a round that
// tests drive without timers runs the daemons' real data plane. Config.Listen
// picks the transport, in-memory ("mem:", the default) or loopback TCP, and
// on either Network.Kill and Network.Restart take a daemon off its address
// and serve it there again.
//
// Two networks built with the same nonzero Config.Seed draw the same round
// keys, noise and shuffles on either transport. A position lead's stream
// depends only on the seed and its position, so a round publishes the same
// mailbox bytes at one, two or three shards per position.
package sim

import (
	"context"
	"crypto/ed25519"
	"fmt"
	mathrand "math/rand"
	"strings"
	"sync"
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

// Config describes the simulated deployment.
type Config struct {
	// NumPKGs defaults to the paper's 3 servers.
	NumPKGs int

	// Shards lists how many mixer daemons serve each chain position
	// (default {1, 1, 1}, the paper's 3-server chain). Shard 0 of each
	// position is its lead: the daemon whose signing key clients pin.
	Shards []int

	// Spares adds one unpinned hot spare per position, which the
	// coordinator's scheduler drafts into a benched shard's slot.
	Spares bool

	// NumFrontends is the number of entry frontends (default 1): Entry,
	// then Network.Frontends. The coordinator replays every announcement
	// to all of them in one order, and each admits its own sub-batch.
	NumFrontends int

	// Noise distributions default to a small µ so tests run fast; pass
	// noise.AddFriendNoise / noise.DialingNoise for paper parameters.
	AddFriendNoise *noise.Laplace
	DialingNoise   *noise.Laplace

	// TargetRequestsPerMailbox controls mailbox sharding (default 24000,
	// as in the paper).
	TargetRequestsPerMailbox int

	// Seed 0 gives every mixer crypto/rand and full parallelism. Otherwise
	// the mixer at (position, shard) reads a stream derived from (Seed,
	// position, shard) at Parallelism 1; a spare is its position's last
	// shard plus one.
	Seed int64

	// Listen is the address every daemon listens on: "mem:" (the default)
	// for in-memory listeners, "127.0.0.1:0" for loopback TCP.
	Listen string

	// Now is the clock given to the PKGs (tests inject manual clocks to
	// exercise the 30-day policies).
	Now func() time.Time
}

// Mixer is one mixer daemon of a network.
type Mixer struct {
	Server *mixnet.Server
	// Daemon is the rpc registration serving Server; Restart replaces it.
	Daemon *rpc.MixerDaemon
	// Client is the coordinator's connection to the daemon.
	Client *rpc.MixerClient
	Addr   string
}

// Network is a running in-process deployment.
type Network struct {
	Provider *email.InMemoryProvider
	PKGs     []*pkgserver.Server
	// Mixers holds the pinned mixer daemons by [position][shard].
	Mixers [][]*Mixer
	// Spares holds each position's hot spare when Config.Spares is set.
	Spares []*Mixer
	Entry  *entry.Server
	// Frontends are the entry frontends after Entry.
	Frontends []*entry.Server
	// FrontendAddrs are the client-facing addresses of Entry, then Frontends.
	FrontendAddrs []string
	CDN           *cdn.Store
	// CDNDaemon serves CDN's publish surface at Coord.CDNAddr.
	CDNDaemon *rpc.CDNDaemon
	Coord     *coordinator.Coordinator

	MixerKeys  []ed25519.PublicKey
	PKGKeys    []ed25519.PublicKey
	PKGBLSKeys []*bls.PublicKey

	mu      sync.Mutex
	daemons map[string]*daemon
}

// daemon is one listener: the registration it serves and its current
// server (closed while the daemon is killed).
type daemon struct {
	register func(*rpc.Server)
	srv      *rpc.Server
}

// serve registers a fresh rpc server and records it under its address.
func (n *Network) serve(addr string, register func(*rpc.Server)) (string, error) {
	srv := rpc.NewServer()
	register(srv)
	bound, err := srv.Listen(addr)
	if err != nil {
		srv.Close()
		return "", err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.daemons[bound] = &daemon{register: register, srv: srv}
	return bound, nil
}

func (n *Network) lookup(addr string) *daemon {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.daemons[addr]
}

// Server returns the rpc server currently serving the network's daemon on
// addr. Tests override its handlers to sabotage a daemon.
func (n *Network) Server(addr string) *rpc.Server { return n.lookup(addr).srv }

// Kill takes the daemon on addr off the network: its listener and
// connections close, and peers get transport errors until Restart. Its
// in-process state survives, as on a machine that is up but unreachable.
func (n *Network) Kill(addr string) { n.Server(addr).Close() }

// Restart serves a killed daemon's registration again, on a fresh rpc
// server at the same address; cached connections to it redial lazily.
func (n *Network) Restart(addr string) error {
	_, err := n.serve(addr, n.lookup(addr).register)
	return err
}

// Close stops the deployment's listeners and waits for their handlers.
func (n *Network) Close() {
	n.mu.Lock()
	daemons := n.daemons
	n.daemons = nil
	n.mu.Unlock()
	for _, d := range daemons {
		d.srv.Close()
	}
}

// smallNoise is the default test noise: deterministic, 2 messages per
// mailbox per server.
var smallNoise = noise.Laplace{Mu: 2, B: 0}

// NewNetwork builds a deployment in a fixed order — PKGs, pinned shard
// groups and spares, the CDN node, frontends — and the coordinator over
// it. Close releases it.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.NumPKGs == 0 {
		cfg.NumPKGs = 3
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1, 1, 1}
	}
	if cfg.AddFriendNoise == nil {
		cfg.AddFriendNoise = &smallNoise
	}
	if cfg.DialingNoise == nil {
		cfg.DialingNoise = &smallNoise
	}
	if cfg.TargetRequestsPerMailbox == 0 {
		cfg.TargetRequestsPerMailbox = 24000
	}
	if cfg.Listen == "" {
		cfg.Listen = "mem:"
	}

	n := &Network{
		Provider: email.NewInMemoryProvider(),
		Entry:    entry.New(),
		CDN:      cdn.NewStore(0),
		daemons:  make(map[string]*daemon),
	}
	coord := &coordinator.Coordinator{
		Entry:                    n.Entry,
		TargetRequestsPerMailbox: cfg.TargetRequestsPerMailbox,
		Shards:                   make([][]coordinator.Mixer, len(cfg.Shards)),
	}
	fail := func(err error) (*Network, error) {
		n.Close()
		return nil, err
	}
	for i := 0; i < cfg.NumPKGs; i++ {
		pkg, err := pkgserver.New(pkgserver.Config{
			Name:     fmt.Sprintf("pkg%d", i),
			Provider: n.Provider,
			Now:      cfg.Now,
		})
		if err != nil {
			return fail(err)
		}
		n.PKGs = append(n.PKGs, pkg)
		n.PKGKeys = append(n.PKGKeys, pkg.SigningKey())
		n.PKGBLSKeys = append(n.PKGBLSKeys, pkg.BLSKey())
		coord.PKGs = append(coord.PKGs, pkg)
	}
	for pos, count := range cfg.Shards {
		if count < 1 {
			return fail(fmt.Errorf("sim: position %d has %d shards", pos, count))
		}
		// Shard index count is the position's spare.
		var group []*Mixer
		for shard := 0; shard < count || (cfg.Spares && shard == count); shard++ {
			m, err := n.startMixer(cfg, pos, shard)
			if err != nil {
				return fail(err)
			}
			switch {
			case shard == 0:
				coord.Mixers = append(coord.Mixers, m.Client)
				n.MixerKeys = append(n.MixerKeys, m.Server.SigningKey())
			case shard == count:
				coord.Spares = append(coord.Spares, []coordinator.Mixer{m.Client})
				n.Spares = append(n.Spares, m)
				continue
			default:
				coord.Shards[pos] = append(coord.Shards[pos], m.Client)
			}
			group = append(group, m)
		}
		n.Mixers = append(n.Mixers, group)
	}
	var err error
	if coord.CDNAddr, err = n.serve(cfg.Listen, func(s *rpc.Server) { n.CDNDaemon = rpc.RegisterCDN(s, n.CDN) }); err != nil {
		return fail(err)
	}
	// Frontends after the first also serve the replica surface the coordinator
	// drives. Clients pin keys from ClientConfig, not from the directory.
	for i := 0; i < max(cfg.NumFrontends, 1); i++ {
		e := n.Entry
		if i > 0 {
			e = entry.New()
			addr, err := n.serve(cfg.Listen, func(s *rpc.Server) { rpc.RegisterEntryReplica(s, e) })
			if err != nil {
				return fail(err)
			}
			n.Frontends = append(n.Frontends, e)
			coord.Frontends = append(coord.Frontends, rpc.DialEntryReplica(addr))
		}
		addr, err := n.serve(cfg.Listen, func(s *rpc.Server) { rpc.RegisterFrontend(s, e, n.CDN, rpc.Directory{}) })
		if err != nil {
			return fail(err)
		}
		n.FrontendAddrs = append(n.FrontendAddrs, addr)
	}
	n.Coord = coord
	return n, nil
}

// startMixer serves the mixer at (pos, shard); shard == cfg.Shards[pos] is
// the position's spare.
func (n *Network) startMixer(cfg Config, pos, shard int) (*Mixer, error) {
	mc := mixnet.Config{
		Name:           fmt.Sprintf("mixer%d.%d", pos, shard),
		Position:       pos,
		ChainLength:    len(cfg.Shards),
		AddFriendNoise: cfg.AddFriendNoise,
		DialingNoise:   cfg.DialingNoise,
		Spare:          shard == cfg.Shards[pos],
	}
	if count := cfg.Shards[pos]; count > 1 && !mc.Spare {
		mc.ShardIndex, mc.ShardCount = shard, count
	}
	if cfg.Seed != 0 {
		mc.Rand = mathrand.New(mathrand.NewSource(cfg.Seed + int64(pos)<<16 + int64(shard)<<32))
		mc.Parallelism = 1
	}
	srv, err := mixnet.New(mc)
	if err != nil {
		return nil, err
	}
	m := &Mixer{Server: srv}
	if m.Addr, err = n.serve(cfg.Listen, func(s *rpc.Server) { m.Daemon = rpc.RegisterMixer(s, srv) }); err != nil {
		return nil, err
	}
	m.Client, err = rpc.DialMixer(m.Addr)
	return m, err
}

// ClientConfig returns a core.Config wired to this network's servers
// through the in-process adapters, so a simulated client exercises the
// same context-aware interfaces (including the push-based round-event
// surface) as one talking to daemons over TCP.
func (n *Network) ClientConfig(addr string, handler core.Handler) core.Config {
	pkgs := make([]core.PKG, len(n.PKGs))
	for i, p := range n.PKGs {
		pkgs[i] = PKGAdapter{P: p}
	}
	return core.Config{
		Email:      addr,
		PKGs:       pkgs,
		Entry:      EntryAdapter{E: n.Entry},
		Mailboxes:  CDNAdapter{S: n.CDN},
		MixerKeys:  n.MixerKeys,
		PKGKeys:    n.PKGKeys,
		PKGBLSKeys: n.PKGBLSKeys,
		NumIntents: 10, // the paper's evaluation default (§8.1)
		Handler:    handler,
	}
}

// NewClient creates, registers, and confirms a client in one step. The
// email confirmation loop reads the simulated inbox and echoes each PKG's
// token, standing in for the user clicking confirmation links.
func (n *Network) NewClient(addr string, handler core.Handler) (*core.Client, error) {
	client, err := core.NewClient(n.ClientConfig(addr, handler))
	if err != nil {
		return nil, err
	}
	if err := client.Register(context.Background()); err != nil {
		return nil, err
	}
	if err := n.ConfirmAll(client); err != nil {
		return nil, err
	}
	return client, nil
}

// ConfirmAll completes registration at every PKG by reading the
// confirmation tokens from the simulated inbox.
func (n *Network) ConfirmAll(client *core.Client) error {
	inbox := n.Provider.Inbox(client.Email())
	confirmed := 0
	for i, pkg := range n.PKGs {
		// Scan the inbox newest-first for this PKG's latest token.
		prefix := fmt.Sprintf("pkg-%s@", pkg.Name)
		for j := len(inbox) - 1; j >= 0; j-- {
			if strings.HasPrefix(inbox[j].From, prefix) {
				if err := client.ConfirmRegistration(context.Background(), i, inbox[j].Body); err != nil {
					return fmt.Errorf("sim: confirming at PKG %d: %w", i, err)
				}
				confirmed++
				break
			}
		}
	}
	if confirmed != len(n.PKGs) {
		return fmt.Errorf("sim: confirmed at %d of %d PKGs", confirmed, len(n.PKGs))
	}
	return nil
}

// RunAddFriendRound drives one complete add-friend round for the given
// clients: announce, submit (every client, cover or real), mix, publish,
// scan (every client), and finally destroy the round's master keys.
func (n *Network) RunAddFriendRound(round uint32, clients []*core.Client) error {
	ctx := context.Background()
	if _, err := n.Coord.OpenAddFriendRound(round); err != nil {
		return err
	}
	for _, c := range clients {
		if err := c.SubmitAddFriendRound(ctx, round); err != nil {
			return fmt.Errorf("sim: %s submit: %w", c.Email(), err)
		}
	}
	if _, err := n.Coord.CloseRound(wire.AddFriend, round); err != nil {
		return err
	}
	for _, c := range clients {
		if err := c.ScanAddFriendRound(ctx, round); err != nil {
			return fmt.Errorf("sim: %s scan: %w", c.Email(), err)
		}
	}
	n.Coord.FinishAddFriendRound(round)
	return nil
}

// RunDialRound drives one complete dialing round for the given clients.
func (n *Network) RunDialRound(round uint32, clients []*core.Client) error {
	ctx := context.Background()
	if _, err := n.Coord.OpenDialingRound(round); err != nil {
		return err
	}
	for _, c := range clients {
		if err := c.SubmitDialRound(ctx, round); err != nil {
			return fmt.Errorf("sim: %s submit: %w", c.Email(), err)
		}
	}
	if _, err := n.Coord.CloseRound(wire.Dialing, round); err != nil {
		return err
	}
	for _, c := range clients {
		if err := c.ScanDialRound(ctx, round); err != nil {
			return fmt.Errorf("sim: %s scan: %w", c.Email(), err)
		}
	}
	return nil
}

// DirectUser is a bare registered identity against a single PKG, used by
// server-side benchmarks that need signed extraction requests without a
// full client.
type DirectUser struct {
	Email string
	Pub   ed25519.PublicKey
	priv  ed25519.PrivateKey
}

// RegisterDirect registers a fresh user at one PKG, confirming through the
// provider's inbox.
func RegisterDirect(pkg *pkgserver.Server, provider *email.InMemoryProvider, addr string) (*DirectUser, error) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	if err := pkg.Register(addr, pub); err != nil {
		return nil, err
	}
	inbox := provider.Inbox(addr)
	if len(inbox) == 0 {
		return nil, fmt.Errorf("sim: no confirmation email for %s", addr)
	}
	if err := pkg.ConfirmRegistration(addr, inbox[len(inbox)-1].Body); err != nil {
		return nil, err
	}
	return &DirectUser{Email: addr, Pub: pub, priv: priv}, nil
}

// SignExtract signs a key-extraction request for a round.
func (u *DirectUser) SignExtract(addr string, round uint32) []byte {
	return ed25519.Sign(u.priv, pkgserver.ExtractMessage(addr, round))
}

// Befriend runs the full two-round add-friend handshake between two
// clients (a initiates, b's handler must accept) and returns an error if
// the friendship did not complete. It is the programmatic equivalent of
// the paper's §3 walkthrough.
func (n *Network) Befriend(a, b *core.Client, startRound uint32) error {
	if err := a.AddFriend(b.Email(), nil); err != nil {
		return err
	}
	clients := []*core.Client{a, b}
	// Round 1: a's request reaches b; b's handler accepts and queues a
	// response. Round 2: b's response reaches a.
	if err := n.RunAddFriendRound(startRound, clients); err != nil {
		return err
	}
	if err := n.RunAddFriendRound(startRound+1, clients); err != nil {
		return err
	}
	if !a.IsFriend(b.Email()) || !b.IsFriend(a.Email()) {
		return fmt.Errorf("sim: friendship %s <-> %s did not complete", a.Email(), b.Email())
	}
	return nil
}
