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

// countingEntry wraps one client's entry transport and counts its
// SUCCESSFUL submissions per (service, round); the Run loop must never
// land two submissions from one client in the same round.
type countingEntry struct {
	core.EntryServer
	mu      sync.Mutex
	submits map[wire.Service]map[uint32]int
}

func newCountingEntry(e core.EntryServer) *countingEntry {
	return &countingEntry{EntryServer: e, submits: make(map[wire.Service]map[uint32]int)}
}

func (e *countingEntry) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	err := e.EntryServer.Submit(ctx, service, round, onion)
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

// countingStore wraps a client's mailbox transport and records ranged vs
// per-round fetches.
type countingStore struct {
	core.MailboxStore
	mu      sync.Mutex
	fetches []uint32    // rounds fetched one at a time
	ranges  [][2]uint32 // [from, to] spans fetched with one request
}

func (s *countingStore) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	s.mu.Lock()
	s.fetches = append(s.fetches, round)
	s.mu.Unlock()
	return s.MailboxStore.Fetch(ctx, service, round, mailbox)
}

func (s *countingStore) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	s.mu.Lock()
	s.ranges = append(s.ranges, [2]uint32{fromRound, toRound})
	s.mu.Unlock()
	return s.MailboxStore.FetchRange(ctx, service, fromRound, toRound, mailbox)
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
	var counting []*countingEntry
	newRunClient := func(addr string, h *sim.Handler) *core.Client {
		cfg := net.ClientConfig(addr, h)
		ce := newCountingEntry(cfg.Entry)
		counting = append(counting, ce)
		cfg.Entry = ce
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

	// No round was ever double-submitted by a client.
	for i, ce := range counting {
		if service, round, n := ce.maxSubmits(); n > 1 {
			t.Fatalf("%s round %d has %d submissions from client %d", service, round, n, i)
		}
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
	store := &countingStore{MailboxStore: cfg.Mailboxes}
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
	runDone := make(chan error, 1)
	go func() { runDone <- client.Run(ctx) }()
	defer func() {
		cancel()
		<-runDone
	}()

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

// TestRunTwiceSubmitsOnce pins Run's claim on its client: a second Run
// started while the first is active returns ErrRunning instead of starting
// a second pair of service loops, so no round carries two submissions from
// one client; once the first Run returns, the client can run again.
func TestRunTwiceSubmitsOnce(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	cfg := net.ClientConfig("twice@example.org", &sim.Handler{AcceptAll: true})
	counting := newCountingEntry(cfg.Entry)
	cfg.Entry = counting
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

	// driveRound opens a dialing round, waits for the client's
	// submission, leaves a second loop time to land one too, and closes.
	driveRound := func(r uint32) {
		t.Helper()
		if _, err := net.Coord.OpenDialingRound(r); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 10*time.Second, "a submission", func() bool {
			return net.Entry.BatchSize(wire.Dialing, r) >= 1
		})
		time.Sleep(50 * time.Millisecond)
		if _, err := net.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errc <- client.Run(ctx) }()
	}
	select {
	case err := <-errc:
		if !errors.Is(err, core.ErrRunning) {
			t.Fatalf("concurrent Run returned %v, want ErrRunning", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("neither of two concurrent Run calls returned ErrRunning")
	}
	const rounds = 5
	for r := uint32(1); r <= rounds; r++ {
		driveRound(r)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}

	// The claim is released: a new Run takes part in the next round.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { errc <- client.Run(ctx2) }()
	driveRound(rounds + 1)
	cancel2()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after the first returned %v, want context.Canceled", err)
	}

	if service, round, n := counting.maxSubmits(); n != 1 {
		t.Fatalf("%s round %d has %d submissions from one client, want 1", service, round, n)
	}
}

// withholdingStore serves a client's mailboxes except one round's, which
// it reports unavailable, as a CDN that evicted the round would.
type withholdingStore struct {
	core.MailboxStore
	service wire.Service
	round   uint32
}

func (s withholdingStore) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	if service == s.service && round == s.round {
		return nil, errors.New("mailbox withheld")
	}
	return s.MailboxStore.Fetch(ctx, service, round, mailbox)
}

func (s withholdingStore) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	boxes, err := s.MailboxStore.FetchRange(ctx, service, fromRound, toRound, mailbox)
	if service == s.service {
		delete(boxes, s.round)
	}
	return boxes, err
}

// errorLog is a sim.Handler that also keeps the text of every error, for
// reading while the client still runs.
type errorLog struct {
	*sim.Handler
	mu   sync.Mutex
	errs []string
}

func (l *errorLog) Error(err error) {
	l.mu.Lock()
	l.errs = append(l.errs, err.Error())
	l.mu.Unlock()
	l.Handler.Error(err)
}

// count returns how many logged errors contain every part.
func (l *errorLog) count(parts ...string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, msg := range l.errs {
		matched := true
		for _, part := range parts {
			matched = matched && strings.Contains(msg, part)
		}
		if matched {
			n++
		}
	}
	return n
}

func (l *errorLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.errs, "; ")
}

// TestRunGivesUpOnWithheldDialRound pins the §5.1 give-up: a dialing round
// whose mailbox the CDN never serves is retried for the budget, then the
// keywheels advance past it and the backlog keeps draining, so a call
// placed in the round after it still arrives.
func TestRunGivesUpOnWithheldDialRound(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	ha := &sim.Handler{AcceptAll: true}
	alice, err := net.NewClient("alice@example.org", ha)
	if err != nil {
		t.Fatal(err)
	}
	hb := &errorLog{Handler: &sim.Handler{AcceptAll: true}}
	cfg := net.ClientConfig("bob@example.org", hb)
	const withheld = 3
	cfg.Mailboxes = withholdingStore{MailboxStore: cfg.Mailboxes, service: wire.Dialing, round: withheld}
	bob, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := bob.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := net.ConfirmAll(bob); err != nil {
		t.Fatal(err)
	}
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}
	bob.SetScanRetryBudget(300 * time.Millisecond)

	runCtx, cancel := context.WithCancel(ctx)
	runDone := make(chan error, 1)
	go func() { runDone <- bob.Run(runCtx) }()
	defer func() {
		cancel()
		<-runDone
	}()

	// Alice takes part by hand and calls in round 4, after the withheld
	// round.
	const rounds, callRound = 5, 4
	for r := uint32(1); r <= rounds; r++ {
		if r == callRound {
			if err := alice.Call(bob.Email(), 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.Coord.OpenDialingRound(r); err != nil {
			t.Fatal(err)
		}
		if err := alice.SubmitDialRound(ctx, r); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 10*time.Second, "bob's submission", func() bool {
			return net.Entry.BatchSize(wire.Dialing, r) >= 2
		})
		if _, err := net.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
		if err := alice.ScanDialRound(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	waitUntil(t, 10*time.Second, "the backlog to drain past the withheld round", func() bool {
		return bob.DialRound() == rounds+1 && bob.DialBacklog() == 0
	})
	in, ok := hb.WaitIncoming(1, 5*time.Second)
	if !ok {
		t.Fatal("the call placed after the withheld round never arrived")
	}
	out := ha.OutgoingCalls()
	if len(out) != 1 || out[0].Round != callRound || in[0].Round != callRound || in[0].SessionKey != out[0].SessionKey {
		t.Fatalf("call in round %d: outgoing %+v, incoming %+v", callRound, out, in)
	}
	if n := hb.count("dialing round 3", "retrying"); n != 1 {
		t.Errorf("%d retrying errors for the withheld round, want 1: %v", n, hb)
	}
	if n := hb.count("dialing round 3", "giving up"); n != 1 {
		t.Errorf("%d giving-up errors for the withheld round, want 1: %v", n, hb)
	}
}

// TestRunGivesUpOnAddFriendScan pins the add-friend half of the §5.1
// budget: while a published round's scan fails, the loop holds further
// submissions (a later submission would gate that scan off for good), and
// it resumes them once the budget runs out.
func TestRunGivesUpOnAddFriendScan(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	h := &errorLog{Handler: &sim.Handler{AcceptAll: true}}
	cfg := net.ClientConfig("held@example.org", h)
	cfg.Mailboxes = withholdingStore{MailboxStore: cfg.Mailboxes, service: wire.AddFriend, round: 1}
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
	const budget = time.Second
	client.SetScanRetryBudget(budget)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- client.Run(ctx) }()
	defer func() {
		cancel()
		<-runDone
	}()

	if _, err := net.Coord.OpenAddFriendRound(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the round 1 submission", func() bool {
		return net.Entry.BatchSize(wire.AddFriend, 1) >= 1
	})
	if _, err := net.Coord.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
	published := time.Now()
	net.Coord.FinishAddFriendRound(1)
	if _, err := net.Coord.OpenAddFriendRound(2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, budget+10*time.Second, "the round 2 submission", func() bool {
		return net.Entry.BatchSize(wire.AddFriend, 2) >= 1
	})
	// The scan failed after round 1 published, so a loop that held the
	// round 2 submission for the budget submits no sooner than this.
	if held := time.Since(published); held < budget {
		t.Fatalf("round 2 submitted %v after round 1 published, want the submission held for the %v budget", held, budget)
	}
	if n := h.count("add-friend round 1", "retrying"); n != 1 {
		t.Errorf("%d retrying errors for round 1, want 1: %v", n, h)
	}
	if n := h.count("add-friend round 1", "giving up"); n != 1 {
		t.Errorf("%d giving-up errors for round 1, want 1: %v", n, h)
	}
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
