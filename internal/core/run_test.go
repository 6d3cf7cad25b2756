package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"alpenhorn/internal/core"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// countingEntry wraps the in-process entry transport and counts
// SUCCESSFUL submissions per (service, round); the Run loop must never
// land two submissions from one client in the same round.
type countingEntry struct {
	sim.EntryAdapter
	mu      sync.Mutex
	submits map[wire.Service]map[uint32]int
}

func newCountingEntry(a sim.EntryAdapter) *countingEntry {
	return &countingEntry{EntryAdapter: a, submits: make(map[wire.Service]map[uint32]int)}
}

func (e *countingEntry) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	err := e.EntryAdapter.Submit(ctx, service, round, onion)
	if err == nil {
		e.mu.Lock()
		if e.submits[service] == nil {
			e.submits[service] = make(map[uint32]int)
		}
		e.submits[service][round]++
		e.mu.Unlock()
	}
	return err
}

func (e *countingEntry) maxSubmits() (wire.Service, uint32, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ms wire.Service
	var mr uint32
	var mn int
	for service, rounds := range e.submits {
		for round, n := range rounds {
			if n > mn {
				ms, mr, mn = service, round, n
			}
		}
	}
	return ms, mr, mn
}

// countingStore wraps the in-process CDN transport and records ranged vs
// per-round fetches.
type countingStore struct {
	sim.CDNAdapter
	mu      sync.Mutex
	fetches []uint32    // rounds fetched one at a time
	ranges  [][2]uint32 // [from, to] spans fetched with one request
}

func (s *countingStore) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	s.mu.Lock()
	s.fetches = append(s.fetches, round)
	s.mu.Unlock()
	return s.CDNAdapter.Fetch(ctx, service, round, mailbox)
}

func (s *countingStore) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	s.mu.Lock()
	s.ranges = append(s.ranges, [2]uint32{fromRound, toRound})
	s.mu.Unlock()
	return s.CDNAdapter.FetchRange(ctx, service, fromRound, toRound, mailbox)
}

// waitUntil polls cond until it holds or the timeout expires.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunLifecycle drives the full event-driven API end to end in
// process: two Run clients complete a friendship handshake and a call
// purely from round announcements, no client ever double-submits a
// round, and cancelling the context returns promptly without leaking
// goroutines.
func TestRunLifecycle(t *testing.T) {
	skipIfShort(t)
	baseline := runtime.NumGoroutine()

	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	counting := newCountingEntry(sim.EntryAdapter{E: net.Entry})
	newRunClient := func(addr string, h *sim.Handler) *core.Client {
		cfg := net.ClientConfig(addr, h)
		cfg.Entry = counting
		c, err := core.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := net.ConfirmAll(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice := newRunClient("alice@example.org", ha)
	bob := newRunClient("bob@example.org", hb)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net.StartRounds(ctx, sim.RoundDriver{WaitSubmissions: 2})
	errc := make(chan error, 2)
	go func() { errc <- alice.Run(ctx) }()
	go func() { errc <- bob.Run(ctx) }()

	if err := alice.AddFriend("bob@example.org", nil); err != nil {
		t.Fatal(err)
	}
	if !ha.WaitConfirmed("bob@example.org", time.Minute) || !hb.WaitConfirmed("alice@example.org", time.Minute) {
		t.Fatal("friendship did not complete under Run")
	}
	if err := alice.Call("bob@example.org", 3); err != nil {
		t.Fatal(err)
	}
	in, ok := hb.WaitIncoming(1, time.Minute)
	if !ok {
		t.Fatal("call not received under Run")
	}
	out, _ := ha.WaitOutgoing(1, time.Minute)
	if in[0].SessionKey != out[0].SessionKey {
		t.Fatal("session keys differ")
	}

	// No round was ever double-submitted by a client: with two clients,
	// a round carries at most two successful submissions.
	if service, round, n := counting.maxSubmits(); n > 2 {
		t.Fatalf("%s round %d has %d submissions from 2 clients", service, round, n)
	}

	// Cancelling mid-round returns promptly — well within one network
	// timeout — and tears down every loop goroutine.
	start := time.Now()
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Run did not return within 5s of cancellation")
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
	net.Close()
	waitUntil(t, 5*time.Second, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestRunDialBacklogRangedDrain pins the ranged-fetch drain: a client
// connecting after many dialing rounds were published catches up with ONE
// ranged CDN request per consecutive span, in order, instead of one fetch
// per round.
func TestRunDialBacklogRangedDrain(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	h := &sim.Handler{AcceptAll: true}
	cfg := net.ClientConfig("late@example.org", h)
	store := &countingStore{CDNAdapter: sim.CDNAdapter{S: net.CDN}}
	cfg.Mailboxes = store
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := net.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}

	// Six dialing rounds come and go while the client is offline.
	const published = 6
	for r := uint32(1); r <= published; r++ {
		if _, err := net.Coord.OpenDialingRound(r); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handle, err := client.ConnectDialing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()

	waitUntil(t, 10*time.Second, "backlog to drain", func() bool {
		return client.DialBacklog() == 0 && client.DialRound() == published+1
	})

	store.mu.Lock()
	defer store.mu.Unlock()
	if len(store.ranges) == 0 {
		t.Fatal("catch-up used no ranged fetches")
	}
	if got := store.ranges[0]; got[0] != 1 || got[1] != published {
		t.Fatalf("first ranged fetch covered [%d, %d], want [1, %d]", got[0], got[1], published)
	}
	for _, r := range store.fetches {
		t.Errorf("round %d fetched individually during a consecutive catch-up", r)
	}
}

// TestRunRequiresRoundSource pins the misconfiguration error: Run follows
// rounds through the event stream only, so an Entry transport that is not
// a core.RoundWatcher is rejected up front, by name, instead of stalling.
func TestRunRequiresRoundSource(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	h := &sim.Handler{AcceptAll: true}
	cfg := net.ClientConfig("bare@example.org", h)
	cfg.Entry = bareEntry{a: sim.EntryAdapter{E: net.Entry}}
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, connect := range map[string]func() error{
		"Run":            func() error { return client.Run(ctx) },
		"ConnectDialing": func() error { _, err := client.ConnectDialing(ctx); return err },
	} {
		err := connect()
		if err == nil || !strings.Contains(err.Error(), "RoundWatcher") || !strings.Contains(err.Error(), "bareEntry") {
			t.Fatalf("%s on a transport without an event stream: %v, want an error naming RoundWatcher and the offending type", name, err)
		}
	}
}

// bareEntry satisfies only core.EntryServer.
type bareEntry struct {
	a sim.EntryAdapter
}

func (b bareEntry) Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error) {
	return b.a.Settings(ctx, service, round)
}

func (b bareEntry) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	return b.a.Submit(ctx, service, round, onion)
}

// TestBacklogPersistsAcrossRestart pins the backlog cursor satellite: a
// client restarted mid-catch-up resumes its queued scans from persisted
// state instead of rebuilding them from the frontend.
func TestBacklogPersistsAcrossRestart(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	h := &sim.Handler{AcceptAll: true}
	persister := &memPersister{}
	cfg := net.ClientConfig("restart@example.org", h)
	cfg.Persister = persister
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := net.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}

	client.QueueDialScans(10)
	if got := client.DialBacklog(); got != 10 {
		t.Fatalf("backlog %d, want 10", got)
	}

	// "Restart": rebuild the client from the persisted bytes.
	restored, err := core.LoadClient(net.ClientConfig("restart@example.org", h), persister.last())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.DialBacklog(); got != 10 {
		t.Fatalf("restored backlog %d, want 10", got)
	}
	// The cursor survived too: re-announcing round 10 queues nothing new.
	restored.QueueDialScans(10)
	if got := restored.DialBacklog(); got != 10 {
		t.Fatalf("backlog after idempotent re-announce: %d, want 10", got)
	}
}

type memPersister struct {
	mu    sync.Mutex
	state []byte
}

func (p *memPersister) Save(state []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state = append(p.state[:0], state...)
	return nil
}

func (p *memPersister) last() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.state...)
}
