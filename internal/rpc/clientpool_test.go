package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// TestClientPoolRules pins how a Client keeps its connections: sequential
// calls share one, a server restart costs one Call exactly one retry and
// leaves no stale connection behind, a CallOnce is never sent twice, and a
// call made after Close dials again.
func TestClientPoolRules(t *testing.T) {
	var (
		mu    sync.Mutex
		peers = map[string]bool{}
	)
	hold := make(chan struct{})
	var held atomic.Int32
	register := func(s *Server) {
		HandlePeerFunc(s, "peer", func(peerAddr string, _ struct{}) (any, error) {
			mu.Lock()
			peers[peerAddr] = true
			mu.Unlock()
			return nil, nil
		})
		HandleFunc(s, "hold", func(struct{}) (any, error) {
			held.Add(1)
			<-hold
			return nil, nil
		})
	}
	srv := NewServer()
	register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	defer c.Close()
	pooled := func() (idle, busy int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.idle), len(c.busy)
	}
	conns := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(peers)
	}

	// Without concurrency the pool never grows: no dial per call.
	for i := 0; i < 100; i++ {
		if err := c.Call("peer", struct{}{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if idle, busy := pooled(); conns() != 1 || idle != 1 || busy != 0 {
		t.Fatalf("100 sequential calls came from %d connections and left %d idle, %d busy; want 1, 1, 0", conns(), idle, busy)
	}

	// Three calls in flight at once hold three connections, which stay
	// pooled once they return.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Call("hold", struct{}{}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); held.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 concurrent calls reached the server", held.Load())
		}
	}
	close(hold)
	wg.Wait()
	if idle, busy := pooled(); idle != 3 || busy != 0 {
		t.Fatalf("after 3 concurrent calls the pool holds %d idle, %d busy; want 3, 0", idle, busy)
	}

	// The server restarts under all three. One Call fails on a stale
	// connection, drops every idle one, and succeeds on a fresh dial: two
	// request frames, one new connection.
	srv.Close()
	restarted := NewServer()
	register(restarted)
	if _, err := restarted.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	frame := func() uint64 {
		sent := c.Stats().BytesSent
		if err := c.Call("peer", struct{}{}, nil); err != nil {
			t.Fatal(err)
		}
		return c.Stats().BytesSent - sent
	}
	mu.Lock()
	clear(peers)
	mu.Unlock()
	retried := frame()
	if idle, busy := pooled(); conns() != 1 || idle != 1 || busy != 0 {
		t.Fatalf("the call after a restart used %d connections and left %d idle, %d busy; want 1, 1, 0", conns(), idle, busy)
	}
	for i := 0; i < 3; i++ {
		if sent := frame(); 2*sent != retried {
			t.Fatalf("call %d after the restart sent %d B, the retried one %d B: a stale connection was left", i+1, sent, retried)
		}
	}

	// A call after Close dials again.
	c.Close()
	if err := c.Call("peer", struct{}{}, nil); err != nil {
		t.Fatalf("call after Close: %v", err)
	}

	// A CallOnce whose reply is lost is not re-sent; a Call is, once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var received atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := readFrame(conn); err == nil {
				received.Add(1)
			}
			conn.Close()
		}
	}()
	lossy := Dial(ln.Addr().String())
	defer lossy.Close()
	if err := lossy.CallOnce("sink", struct{}{}, nil); !errors.Is(err, ErrTransport) {
		t.Fatalf("CallOnce with its reply lost returned %v, want a transport failure", err)
	}
	if n := received.Load(); n != 1 {
		t.Fatalf("CallOnce reached the server %d times, want 1", n)
	}
	if err := lossy.Call("sink", struct{}{}, nil); !errors.Is(err, ErrTransport) {
		t.Fatalf("Call with its replies lost returned %v, want a transport failure", err)
	}
	if n := received.Load(); n != 3 {
		t.Fatalf("the server received %d requests, want 3: the CallOnce and the Call's two attempts", n)
	}
}

// gatedSource is a mailbox store whose fetches all park until release
// closes, so a test can hold a burst of them in flight at once.
type gatedSource struct {
	arrived chan<- struct{}
	release <-chan struct{}
}

func (g gatedSource) Fetch(wire.Service, uint32, uint32) ([]byte, error) {
	g.arrived <- struct{}{}
	<-g.release
	return []byte("box"), nil
}

func (g gatedSource) FetchRange(wire.Service, uint32, uint32, uint32) (map[uint32][]byte, error) {
	return nil, errors.New("not served")
}

// proxySource is what a frontend-only entry daemon hands RegisterFrontend:
// every client's fetch goes to the coordinator through one FrontendClient.
type proxySource struct{ c *FrontendClient }

func (p proxySource) Fetch(service wire.Service, round, mailbox uint32) ([]byte, error) {
	return p.c.Fetch(context.Background(), service, round, mailbox)
}

func (p proxySource) FetchRange(service wire.Service, from, to, mailbox uint32) (map[uint32][]byte, error) {
	return p.c.FetchRange(context.Background(), service, from, to, mailbox)
}

// TestFetchProxyBurst: a frontend that proxies its clients' fetches to
// the coordinator holds one upstream connection per fetch in flight, and
// once the burst is over keeps at most maxIdle of them open.
func TestFetchProxyBurst(t *testing.T) {
	const clients = 16
	arrived := make(chan struct{}, clients)
	release := make(chan struct{})
	coord := NewServer()
	RegisterCDNFrontend(coord, gatedSource{arrived, release})
	coordAddr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	upstream := DialFrontend(coordAddr)
	defer upstream.Close()
	proxy := NewServer()
	RegisterFrontend(proxy, entry.New(), proxySource{upstream}, Directory{})
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	open := func() int {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.conns)
	}

	fetched := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			f := DialFrontend(proxyAddr)
			defer f.Close()
			_, err := f.Fetch(context.Background(), wire.Dialing, 1, 0)
			fetched <- err
		}()
	}
	for i := 0; i < clients; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d fetches reached the coordinator", i, clients)
		}
	}
	if n := open(); n != clients {
		t.Fatalf("%d fetches in flight came over %d coordinator connections, want one each", clients, n)
	}
	close(release)
	for i := 0; i < clients; i++ {
		if err := <-fetched; err != nil {
			t.Fatal(err)
		}
	}
	upstream.c.mu.Lock()
	idle, busy := len(upstream.c.idle), len(upstream.c.busy)
	upstream.c.mu.Unlock()
	if idle > maxIdle || busy != 0 {
		t.Fatalf("after a burst of %d fetches the proxy keeps %d idle, %d busy connections; want at most %d, 0", clients, idle, busy, maxIdle)
	}
	for deadline := time.Now().Add(5 * time.Second); open() > maxIdle; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the coordinator still serves %d of the proxy's connections after the burst, want at most %d", open(), maxIdle)
		}
	}
}

// TestCallDeadlineBesideSlowCall: a call in flight does not hold up
// another call on the same Client, so a 200 ms deadline is met while a
// 1.5 s handler runs.
func TestCallDeadlineBesideSlowCall(t *testing.T) {
	srv := NewServer()
	HandleFunc(srv, "sleep", func(ms int) (any, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return nil, nil
	})
	addr, err := srv.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := Dial(addr)
	defer c.Close()

	slow := make(chan error, 1)
	go func() { slow <- c.Call("sleep", 1500, nil) }()
	time.Sleep(50 * time.Millisecond) // the slow call is in its handler

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.CallContext(ctx, "sleep", 1500, nil)
	if d := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || d > 400*time.Millisecond {
		t.Fatalf("a call with a 200ms deadline returned %v after %v beside a 1.5s call", err, d)
	}
	if err := <-slow; err != nil {
		t.Fatalf("the slow call: %v", err)
	}
}

// TestCloseUnparksWatchRounds: closing a FrontendClient does not wait for
// its parked entry.events call. Close returns at once, the parked
// WatchRounds returns an error, and the call is not re-sent.
func TestCloseUnparksWatchRounds(t *testing.T) {
	srv := NewServer()
	RegisterFrontend(srv, entry.New(), cdn.NewStore(0), Directory{})
	var parks atomic.Int32
	HandleFunc(srv, "entry.events", func(eventsArgs) (any, error) {
		parks.Add(1)
		<-srv.Closing()
		return nil, errors.New("closing")
	})
	addr, err := srv.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f := DialFrontend(addr)
	watched := make(chan error, 1)
	go func() {
		_, _, err := f.WatchRounds(context.Background(), 0)
		watched <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); parks.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("WatchRounds never parked")
		}
	}

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("Close still blocked 100ms into a parked WatchRounds")
	}
	select {
	case err := <-watched:
		if err == nil {
			t.Fatal("WatchRounds returned no error after Close")
		}
	case <-time.After(100*time.Millisecond - time.Since(start)):
		t.Fatal("the parked WatchRounds still blocked 100ms after Close")
	}
	time.Sleep(50 * time.Millisecond)
	if n := parks.Load(); n != 1 {
		t.Fatalf("entry.events parked %d times, want 1: the call was re-sent after Close", n)
	}
}
