package rpc_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"alpenhorn/internal/core"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

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

// oneMixerOverTCP is a deployment of one PKG and one mixer whose
// client-facing frontend serves over real TCP.
var oneMixerOverTCP = sim.Config{NumPKGs: 1, Shards: []int{1}, Listen: loopback}

// newRunClient registers a client on the network's client plane and
// returns it with its frontend pool, which network.Close closes.
func newRunClient(t *testing.T, network *sim.Network, email string) (*core.Client, *rpc.FrontendPool) {
	t.Helper()
	cfg := network.ClientConfig(email, &sim.Handler{AcceptAll: true})
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := network.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}
	return client, cfg.Entry.(*rpc.FrontendPool)
}

// startRun runs client.Run on its own goroutine until the returned stop
// is called (or the test ends); stop cancels the run, waits for Run to
// return and returns its error. The test's cleanup stops the run before
// the network's Close, which newNetwork registered first, closes the
// client's transport: a Close under a running feed fails its parked
// entry.events call, and the feed redials.
func startRun(t *testing.T, client *core.Client) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- client.Run(ctx) }()
	var once sync.Once
	var err error
	stop = func() error {
		once.Do(func() {
			cancel()
			err = <-done
		})
		return err
	}
	t.Cleanup(func() { stop() })
	return stop
}

// driveDialRounds opens and closes dialing rounds [from, to], waiting up
// to window for want submissions per round, and asserts no round ever
// carries more submissions than want (the no-double-submit pin: the
// entry server sees every accepted onion, so a client re-submitting a
// round would exceed the budget).
func driveDialRounds(t *testing.T, network *sim.Network, from, to uint32, want int, window time.Duration) {
	t.Helper()
	for r := from; r <= to; r++ {
		if _, err := network.Coord.OpenDialingRound(r); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) && network.Entry.BatchSize(wire.Dialing, r) < want {
			time.Sleep(2 * time.Millisecond)
		}
		if got := network.Entry.BatchSize(wire.Dialing, r); got > want {
			t.Fatalf("dialing round %d carries %d submissions, want at most %d — a client double-submitted", r, got, want)
		}
		if _, err := network.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunSurvivesFrontendRestart kills the frontend's TCP listener
// mid-round under Client.Run and restarts it on the same address: the
// client reconnects with backoff, no round is ever double-submitted, the
// rounds missed during the outage drain from the backlog in order, and
// cancelling the context returns promptly with no leaked goroutines.
func TestRunSurvivesFrontendRestart(t *testing.T) {
	network := newNetwork(t, oneMixerOverTCP)
	addr := network.FrontendAddrs[0]
	baseline := runtime.NumGoroutine()

	client, _ := newRunClient(t, network, "restart@tcp.example")

	stop := startRun(t, client)

	// Phase 1: rounds flow normally over TCP.
	driveDialRounds(t, network, 1, 3, 1, 5*time.Second)
	waitUntil(t, 10*time.Second, "pre-restart rounds to be scanned", func() bool {
		return client.DialRound() >= 4
	})

	// Phase 2: the frontend dies mid-round. Rounds keep happening — the
	// deployment does not stop for one frontend — but this client cannot
	// see or reach them (its submissions fail; that is what cover-traffic
	// continuity costs when the network is down).
	network.Kill(addr)
	driveDialRounds(t, network, 4, 5, 0, 30*time.Millisecond)

	// Phase 3: a new frontend process binds the same address and serves
	// the same deployment. The client's feed reconnects by itself.
	waitUntil(t, 5*time.Second, "frontend address to rebind", func() bool {
		return network.Restart(addr) == nil
	})

	driveDialRounds(t, network, 6, 8, 1, 10*time.Second)

	// The outage rounds (4, 5) and the post-restart rounds all get
	// scanned, oldest-first, through the backlog.
	waitUntil(t, 15*time.Second, "post-restart rounds to be scanned", func() bool {
		return client.DialRound() >= 9 && client.DialBacklog() == 0
	})

	// Cancelling mid-round returns well within one network timeout.
	start := time.Now()
	err := stop()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v, want well under one network timeout", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}

	// Every loop goroutine is gone once Run returns and the
	// client's connections drop. The frontend server is closed too:
	// Server.Close unparks its entry.events waiters via Closing, so a
	// handler parked on behalf of the now-gone client does not count as
	// a (time-bounded) straggler here.
	network.Close() // the client's transport, then the daemons
	waitUntil(t, 5*time.Second, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestEventStreamTrackingLoad pins what following rounds costs the
// frontend: a client on the entry.events stream issues a BOUNDED number of
// tracking requests per round — every call returns at least one of the
// round's two announcements (open, published), whatever the round length —
// and never fetches settings separately.
func TestEventStreamTrackingLoad(t *testing.T) {
	network := newNetwork(t, oneMixerOverTCP)
	client, fe := newRunClient(t, network, "streamer@tcp.example")

	stop := startRun(t, client)

	const rounds = 5
	driveDialRounds(t, network, 1, rounds, 1, 10*time.Second)
	waitUntil(t, 15*time.Second, "the client to scan all rounds", func() bool {
		return client.DialRound() >= rounds+1
	})
	stop()

	// Two announcements per round, at least one per reply, plus the park
	// the shutdown interrupted (and one spare for a call racing it).
	tracking := fe.CallCount("entry.events")
	t.Logf("round-tracking requests over %d rounds: %d (%.1f per round)", rounds, tracking, float64(tracking)/rounds)
	if tracking == 0 || tracking > 2*rounds+2 {
		t.Fatalf("client issued %d entry.events calls over %d rounds, want 1..%d", tracking, rounds, 2*rounds+2)
	}
}

// TestRunClientsKeepUp drives 8 Run clients, each on its own frontend
// pool over TCP, through 60 back-to-back rounds per service. A round's
// intake closes once all 8 have submitted or after 3 s, and no round may
// close short: a client that missed a round announcement would leave its
// round waiting out the window. Under -short only dialing rounds run,
// because add-friend extraction is slow under the race detector.
func TestRunClientsKeepUp(t *testing.T) {
	network := newNetwork(t, sim.Config{Seed: 7, Listen: loopback})
	const clients, rounds = 8, 60
	const window = 3 * time.Second
	for i := 0; i < clients; i++ {
		client, _ := newRunClient(t, network, fmt.Sprintf("keepup%d@tcp.example", i))
		startRun(t, client)
	}

	services := []wire.Service{wire.Dialing}
	if !testing.Short() {
		services = append(services, wire.AddFriend)
	}
	var wg sync.WaitGroup
	for _, service := range services {
		service := service
		wg.Add(1)
		go func() {
			defer wg.Done()
			waits := make([]time.Duration, 0, rounds)
			start := time.Now()
			for r := uint32(1); r <= rounds; r++ {
				var err error
				if service == wire.AddFriend {
					_, err = network.Coord.OpenAddFriendRound(r)
				} else {
					_, err = network.Coord.OpenDialingRound(r)
				}
				if err != nil {
					t.Errorf("%v round %d: open: %v", service, r, err)
					return
				}
				opened := time.Now()
				for network.Entry.BatchSize(service, r) < clients && time.Since(opened) < window {
					time.Sleep(time.Millisecond)
				}
				got := network.Entry.BatchSize(service, r)
				waits = append(waits, time.Since(opened))
				if _, err := network.Coord.CloseRound(service, r); err != nil {
					t.Errorf("%v round %d: close: %v", service, r, err)
					return
				}
				if service == wire.AddFriend {
					network.Coord.FinishAddFriendRound(r)
				}
				if got < clients {
					t.Errorf("%v round %d closed short: %d of %d clients submitted within %v", service, r, got, clients, window)
				}
			}
			sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
			t.Logf("%v: %d rounds in %v; intake wait p50 %v, max %v", service, rounds, time.Since(start).Round(time.Millisecond),
				waits[len(waits)/2].Round(time.Millisecond), waits[len(waits)-1].Round(time.Millisecond))
		}()
	}
	wg.Wait()
}

// TestFetchRangeOverTCP pins the ranged mailbox fetch over TCP: a span of
// rounds costs ONE cdn.fetchrange request and no per-round fetches, and
// rounds the store does not hold are absent from the reply.
func TestFetchRangeOverTCP(t *testing.T) {
	network := newNetwork(t, oneMixerOverTCP)

	// Publish three dialing rounds (noise-only batches are fine).
	for r := uint32(1); r <= 3; r++ {
		if _, err := network.Coord.OpenDialingRound(r); err != nil {
			t.Fatal(err)
		}
		if _, err := network.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
	}

	fe := rpc.DialFrontend(network.FrontendAddrs[0])
	defer fe.Close()
	got, err := fe.FetchRange(context.Background(), wire.Dialing, 1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ranged fetch returned %d rounds, want 3 (rounds 4-5 unpublished)", len(got))
	}
	for r := uint32(1); r <= 3; r++ {
		if len(got[r]) == 0 {
			t.Fatalf("round %d mailbox empty", r)
		}
	}
	if ranged, single := fe.CallCount("cdn.fetchrange"), fe.CallCount("cdn.fetch"); ranged != 1 || single != 0 {
		t.Fatalf("span cost %d cdn.fetchrange + %d cdn.fetch calls, want 1 + 0", ranged, single)
	}
}
