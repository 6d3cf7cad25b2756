package rpc_test

import (
	"context"
	"crypto/ed25519"
	"errors"
	"net"
	"testing"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

func TestBasicCall(t *testing.T) {
	s := rpc.NewServer()
	rpc.HandleFunc(s, "echo", func(arg struct {
		X int `json:"x"`
	}) (any, error) {
		return map[string]int{"x": arg.X + 1}, nil
	})
	rpc.HandleFunc(s, "fail", func(struct{}) (any, error) {
		return nil, errors.New("intentional failure")
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := rpc.Dial(addr)
	defer c.Close()
	var out struct {
		X int `json:"x"`
	}
	if err := c.Call("echo", map[string]int{"x": 41}, &out); err != nil {
		t.Fatal(err)
	}
	if out.X != 42 {
		t.Fatalf("echo returned %d", out.X)
	}
	if err := c.Call("fail", struct{}{}, nil); err == nil || err.Error() != "intentional failure" {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := c.Call("missing", struct{}{}, nil); err == nil {
		t.Fatal("unknown method did not error")
	}
}

// TestFullDeploymentOverTCP runs the complete Alpenhorn protocol — PKG
// registration, add-friend handshake, and a dialed call — with every
// client↔server interaction crossing real localhost TCP connections.
func TestFullDeploymentOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full TCP deployment is slow")
	}
	provider := email.NewInMemoryProvider()
	nz := noise.Laplace{Mu: 1, B: 0}

	// Start 2 PKG daemons and 2 mixer daemons on ephemeral ports.
	const numPKGs, numMixers = 2, 2
	var pkgClients []*rpc.PKGClient
	var pkgServers []*pkgserver.Server
	var pkgKeys []ed25519.PublicKey
	var pkgBLS []*bls.PublicKey
	for i := 0; i < numPKGs; i++ {
		pkg, err := pkgserver.New(pkgserver.Config{Name: "pkg", Provider: provider})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		rpc.RegisterPKG(srv, pkg)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		pkgClients = append(pkgClients, rpc.DialPKG(addr))
		pkgServers = append(pkgServers, pkg)
		pkgKeys = append(pkgKeys, pkg.SigningKey())
		pkgBLS = append(pkgBLS, pkg.BLSKey())
	}

	var mixerClients []*rpc.MixerClient
	var mixerKeys []ed25519.PublicKey
	for i := 0; i < numMixers; i++ {
		m, err := mixnet.New(mixnet.Config{
			Name: "mix", Position: i, ChainLength: numMixers,
			AddFriendNoise: &nz, DialingNoise: &nz,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		rpc.RegisterMixer(srv, m)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		mc, err := rpc.DialMixer(addr)
		if err != nil {
			t.Fatal(err)
		}
		mixerClients = append(mixerClients, mc)
		mixerKeys = append(mixerKeys, m.SigningKey())
	}

	// Frontend daemon: entry + CDN + coordinator over the RPC backends.
	e := entry.New()
	store, cdnAddr := startCDN(t)
	coord := &coordinator.Coordinator{
		Entry: e, CDNAddr: cdnAddr,
		TargetRequestsPerMailbox: 24000,
	}
	for _, mc := range mixerClients {
		coord.Mixers = append(coord.Mixers, mc)
	}
	for _, pc := range pkgClients {
		coord.PKGs = append(coord.PKGs, pc)
	}
	feSrv := rpc.NewServer()
	rpc.RegisterFrontend(feSrv, e, store, rpc.Directory{})
	feAddr, err := feSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feSrv.Close()
	frontend := rpc.DialFrontend(feAddr)

	// Two clients, each talking to the daemons only via RPC.
	newTCPClient := func(addr string, h core.Handler) *core.Client {
		cfg := core.Config{
			Email:      addr,
			Entry:      frontend,
			Mailboxes:  frontend,
			MixerKeys:  mixerKeys,
			PKGKeys:    pkgKeys,
			PKGBLSKeys: pkgBLS,
			NumIntents: 3,
			Handler:    h,
		}
		for _, pc := range pkgClients {
			cfg.PKGs = append(cfg.PKGs, pc)
		}
		c, err := core.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Confirm with the emailed tokens (token i is from PKG i).
		inbox := provider.Inbox(addr)
		if len(inbox) < numPKGs {
			t.Fatalf("only %d confirmation mails", len(inbox))
		}
		start := len(inbox) - numPKGs
		for i := 0; i < numPKGs; i++ {
			if err := c.ConfirmRegistration(context.Background(), i, inbox[start+i].Body); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice := newTCPClient("alice@tcp.example", ha)
	bob := newTCPClient("bob@tcp.example", hb)
	clients := []*core.Client{alice, bob}

	runAddFriendRound := func(round uint32) {
		if _, err := coord.OpenAddFriendRound(round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.SubmitAddFriendRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := coord.CloseRound(wire.AddFriend, round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.ScanAddFriendRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
		coord.FinishAddFriendRound(round)
	}
	runDialRound := func(round uint32) {
		if _, err := coord.OpenDialingRound(round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.SubmitDialRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := coord.CloseRound(wire.Dialing, round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.ScanDialRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	runAddFriendRound(1)
	runAddFriendRound(2)
	if !alice.IsFriend(bob.Email()) || !bob.IsFriend(alice.Email()) {
		t.Fatal("friendship did not complete over TCP")
	}

	if err := alice.Call(bob.Email(), 1); err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 6; r++ {
		runDialRound(r)
		if len(hb.IncomingCalls()) > 0 {
			break
		}
	}
	in := hb.IncomingCalls()
	out := ha.OutgoingCalls()
	if len(in) != 1 || len(out) != 1 || in[0].SessionKey != out[0].SessionKey {
		t.Fatal("call did not complete over TCP")
	}

	// Forward secrecy across the wire: PKG round keys are gone.
	for _, p := range pkgServers {
		if p.RoundOpen(1) || p.RoundOpen(2) {
			t.Fatal("PKG round keys survive over TCP deployment")
		}
	}
}

// TestMemTransport pins what internal/sim relies on when it serves its
// daemons on in-memory listeners: a "mem:" address behaves like a loopback
// TCP one — calls round-trip, a peer-aware handler sees a host:port
// address, cancelling the context interrupts a parked call promptly, and a
// closed listener is refused as a transport failure. Listen("mem:") hands
// out a fresh address every time; Listen("mem:<n>") rebinds n once its
// listener has closed, as a restarted daemon rebinds its port, and is
// refused while n is live.
func TestMemTransport(t *testing.T) {
	listen := func(s *rpc.Server, addr string) string {
		t.Helper()
		bound, err := s.Listen(addr)
		if err != nil {
			t.Fatalf("Listen(%q): %v", addr, err)
		}
		return bound
	}
	s := rpc.NewServer()
	parked := make(chan struct{})
	rpc.HandlePeerFunc(s, "peer", func(peerAddr string, _ struct{}) (any, error) {
		return peerAddr, nil
	})
	rpc.HandleFunc(s, "park", func(struct{}) (any, error) {
		<-parked
		return nil, nil
	})
	addr := listen(s, "mem:")
	other := rpc.NewServer()
	defer other.Close()
	if otherAddr := listen(other, "mem:"); otherAddr == addr {
		t.Fatalf("two listeners share the address %s", addr)
	}
	if _, err := rpc.NewServer().Listen(addr); err == nil {
		t.Fatalf("a second listener bound the live address %s", addr)
	}

	c := rpc.Dial(addr)
	defer c.Close()
	var peer string
	if err := c.Call("peer", struct{}{}, &peer); err != nil {
		t.Fatal(err)
	}
	if host, _, err := net.SplitHostPort(peer); err != nil || host != "mem" {
		t.Fatalf("peer address %q does not parse as host mem: %v", peer, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	err := c.CallContext(ctx, "park", struct{}{}, nil)
	if !errors.Is(err, context.Canceled) || time.Since(start) > 5*time.Second {
		t.Fatalf("parked call returned %v after %v, want a prompt cancellation", err, time.Since(start))
	}
	// The cancelled call dropped its connection; the next one redials.
	if err := c.Call("peer", struct{}{}, &peer); err != nil {
		t.Fatalf("call after a cancelled one: %v", err)
	}

	close(parked)
	s.Close()
	if err := c.Call("peer", struct{}{}, &peer); !errors.Is(err, rpc.ErrTransport) {
		t.Fatalf("call to a closed in-memory listener returned %v, want a transport failure", err)
	}
	fresh := rpc.NewServer()
	defer fresh.Close()
	if freshAddr := listen(fresh, "mem:"); freshAddr == addr {
		t.Fatalf("a fresh listener reused the closed address %s", addr)
	}

	restarted := rpc.NewServer()
	defer restarted.Close()
	rpc.HandlePeerFunc(restarted, "peer", func(peerAddr string, _ struct{}) (any, error) {
		return peerAddr, nil
	})
	if got := listen(restarted, addr); got != addr {
		t.Fatalf("rebinding %s bound %s", addr, got)
	}
	if err := c.Call("peer", struct{}{}, &peer); err != nil {
		t.Fatalf("call to the rebound address: %v", err)
	}
}
