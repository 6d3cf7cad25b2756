package rpc_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"alpenhorn/internal/core"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
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

// TestConcurrentCloseWaits: a Close that finds another under way returns
// only once every connection is closed and every handler has returned, as
// the first does. A caller that serves the same address again after its
// own Close then cannot race calls still arriving at the old server.
func TestConcurrentCloseWaits(t *testing.T) {
	s := rpc.NewServer()
	parked, release := make(chan struct{}), make(chan struct{})
	rpc.HandleFunc(s, "park", func(struct{}) (any, error) {
		close(parked)
		<-release
		return nil, nil
	})
	addr, err := s.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.Dial(addr)
	defer c.Close()
	go c.Call("park", struct{}{}, nil) // fails when the server drops the connection
	<-parked

	first, second := make(chan struct{}), make(chan struct{})
	go func() { s.Close(); close(first) }()
	<-s.Closing() // the first Close is under way, waiting for the handler
	go func() { s.Close(); close(second) }()
	select {
	case <-second:
		t.Fatal("a second Close returned while a handler was still running")
	case <-first:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	for _, done := range []chan struct{}{first, second} {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close still waiting 5 s after the handler returned")
		}
	}
}

// TestFullDeploymentOverTCP runs the complete Alpenhorn protocol — PKG
// registration, add-friend handshake, and a dialed call — with every
// client↔server and coordinator↔server interaction crossing real
// localhost TCP connections.
func TestFullDeploymentOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full TCP deployment is slow")
	}
	network := newNetwork(t, sim.Config{NumPKGs: 2, Shards: []int{1, 1}, Listen: loopback})
	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice, err := network.NewClient("alice@tcp.example", ha)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := network.NewClient("bob@tcp.example", hb)
	if err != nil {
		t.Fatal(err)
	}

	if err := network.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	if err := alice.Call(bob.Email(), 1); err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 6 && len(hb.IncomingCalls()) == 0; r++ {
		if err := network.RunDialRound(r, []*core.Client{alice, bob}); err != nil {
			t.Fatal(err)
		}
	}
	in := hb.IncomingCalls()
	out := ha.OutgoingCalls()
	if len(in) != 1 || len(out) != 1 || in[0].SessionKey != out[0].SessionKey {
		t.Fatal("call did not complete over TCP")
	}

	// Forward secrecy across the wire: PKG round keys are gone.
	for _, p := range network.PKGs {
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
