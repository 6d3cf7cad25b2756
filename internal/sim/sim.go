// Package sim assembles a complete in-process Alpenhorn deployment: a
// configurable number of PKG servers and mixnet servers, an entry server, a
// CDN store, a simulated email provider, and a round coordinator.
//
// It exists so that integration tests, the examples, and the benchmark
// harness all exercise the REAL protocol stack — real IBE, real onions,
// real mixing and noise — with rounds driven deterministically instead of
// on timers. The mixers, the CDN's publish surface and any extra entry
// frontends are served through the handlers the cmd/ daemons register
// (rpc.RegisterMixer, RegisterCDN, RegisterEntryReplica), on in-memory
// listeners instead of TCP ports, so a simulated round runs the daemons'
// data plane, not a second implementation of it.
package sim

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"strings"
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
	// NumPKGs and NumMixers default to the paper's 3-server setup.
	NumPKGs   int
	NumMixers int

	// NumFrontends is the number of entry frontends (default 1). With
	// more than one, Network.Entry is frontend 0 and the rest live in
	// Network.Frontends; the coordinator replays every announcement to
	// all of them in the same order (one shared cursor namespace), and
	// each frontend admits — and, at close, contributes — its own
	// sub-batch.
	NumFrontends int

	// Noise distributions; defaults are deliberately small so tests run
	// fast (the paper-scale µ=4000/25000 values generate millions of
	// messages). Pass noise.AddFriendNoise / noise.DialingNoise for
	// paper parameters.
	AddFriendNoise *noise.Laplace
	DialingNoise   *noise.Laplace

	// TargetRequestsPerMailbox controls mailbox sharding (default 24000,
	// as in the paper).
	TargetRequestsPerMailbox int

	// Now is the clock given to the PKGs (tests inject manual clocks to
	// exercise the 30-day policies).
	Now func() time.Time
}

// Network is a running in-process deployment.
type Network struct {
	Provider *email.InMemoryProvider
	PKGs     []*pkgserver.Server
	Mixers   []*mixnet.Server
	Entry    *entry.Server
	// Frontends holds the extra entry frontends beyond Entry when
	// Config.NumFrontends > 1. Clients may track rounds and submit
	// through any of them.
	Frontends []*entry.Server
	CDN       *cdn.Store
	Coord     *coordinator.Coordinator

	MixerKeys  []ed25519.PublicKey
	PKGKeys    []ed25519.PublicKey
	PKGBLSKeys []*bls.PublicKey

	servers []*rpc.Server
}

// listen serves srv on a fresh in-memory address until Close.
func (n *Network) listen(srv *rpc.Server) string {
	n.servers = append(n.servers, srv)
	return srv.ListenMem()
}

// Close stops the deployment's listeners and waits for their handlers.
func (n *Network) Close() {
	for _, srv := range n.servers {
		srv.Close()
	}
	n.servers = nil
}

// smallNoise is the default test noise: deterministic, 2 messages per
// mailbox per server.
var smallNoise = noise.Laplace{Mu: 2, B: 0}

// NewNetwork builds a deployment. Close releases it.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.NumPKGs == 0 {
		cfg.NumPKGs = 3
	}
	if cfg.NumMixers == 0 {
		cfg.NumMixers = 3
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

	n := &Network{
		Provider: email.NewInMemoryProvider(),
		Entry:    entry.New(),
		CDN:      cdn.NewStore(0),
	}
	fail := func(err error) (*Network, error) {
		n.Close()
		return nil, err
	}
	n.Coord = &coordinator.Coordinator{
		Entry:                    n.Entry,
		TargetRequestsPerMailbox: cfg.TargetRequestsPerMailbox,
	}
	cdnSrv := rpc.NewServer()
	rpc.RegisterCDN(cdnSrv, n.CDN)
	n.Coord.CDNAddr = n.listen(cdnSrv)
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
		n.Coord.PKGs = append(n.Coord.PKGs, pkg)
		n.PKGKeys = append(n.PKGKeys, pkg.SigningKey())
		n.PKGBLSKeys = append(n.PKGBLSKeys, pkg.BLSKey())
	}
	for i := 0; i < cfg.NumMixers; i++ {
		m, err := mixnet.New(mixnet.Config{
			Name:           fmt.Sprintf("mixer%d", i),
			Position:       i,
			ChainLength:    cfg.NumMixers,
			AddFriendNoise: cfg.AddFriendNoise,
			DialingNoise:   cfg.DialingNoise,
		})
		if err != nil {
			return fail(err)
		}
		srv := rpc.NewServer()
		rpc.RegisterMixer(srv, m)
		mc, err := rpc.DialMixer(n.listen(srv))
		if err != nil {
			return fail(err)
		}
		n.Mixers = append(n.Mixers, m)
		n.MixerKeys = append(n.MixerKeys, m.SigningKey())
		n.Coord.Mixers = append(n.Coord.Mixers, mc)
	}
	for i := 1; i < cfg.NumFrontends; i++ {
		f := entry.New()
		srv := rpc.NewServer()
		rpc.RegisterEntryReplica(srv, f)
		n.Frontends = append(n.Frontends, f)
		n.Coord.Frontends = append(n.Coord.Frontends, rpc.DialEntryReplica(n.listen(srv)))
	}
	return n, nil
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
