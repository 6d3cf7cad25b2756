package coordinator_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"testing"
	"time"

	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// TestFailedRoundLeaksNoStash: a round that fails leaves no frontend
// holding its sub-batch. Round 1 fails at frontend 1's close, which never
// reaches it, while frontend 0 (the coordinator's own entry server) closes
// and deals; round 2 fails at position 0, after both frontends closed.
// Once round 3 has published, closing either failed round again fails at
// the entry server, whose round is long closed, and deals nothing. Round 1
// is closed at both frontends, frontend 1's by its close of round 2, so
// neither takes another onion for it nor holds one.
func TestFailedRoundLeaksNoStash(t *testing.T) {
	n, err := sim.NewNetwork(sim.Config{NumPKGs: 1, NumFrontends: 2, TargetRequestsPerMailbox: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	open := func(r uint32) {
		t.Helper()
		settings, err := n.Coord.OpenDialingRound(r)
		if err != nil {
			t.Fatal(err)
		}
		hops := make([]*onionbox.PublicKey, len(settings.Mixers))
		for i, rk := range settings.Mixers {
			if hops[i], err = onionbox.UnmarshalPublicKey(rk.OnionKey); err != nil {
				t.Fatal(err)
			}
		}
		// One onion at each frontend, so each holds a sub-batch.
		for _, e := range []*entry.Server{n.Entry, n.Frontends[0]} {
			payload := (&wire.MixPayload{Body: make([]byte, keywheel.TokenSize)}).Marshal()
			onion, err := onionbox.WrapOnion(rand.Reader, hops, payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Submit(wire.Dialing, r, onion); err != nil {
				t.Fatal(err)
			}
		}
	}
	failWithDown := func(r uint32, addr string) {
		t.Helper()
		open(r)
		n.Kill(addr)
		if _, err := n.Coord.CloseRound(wire.Dialing, r); err == nil {
			t.Fatalf("round %d closed with %s down", r, addr)
		}
		if err := n.Restart(addr); err != nil {
			t.Fatal(err)
		}
	}

	failWithDown(1, n.Coord.Frontends[0].(*rpc.EntryReplicaClient).Addr())
	failWithDown(2, n.Mixers[0][0].Addr)
	open(3)
	if _, err := n.Coord.CloseRound(wire.Dialing, 3); err != nil {
		t.Fatalf("round 3: %v", err)
	}
	if !n.CDN.Published(wire.Dialing, 3) {
		t.Fatal("round 3 not published")
	}
	first := []string{n.Mixers[0][0].Addr}
	for i, f := range n.Coord.FrontendList() {
		failed := uint32(i + 1) // the failed round whose close frontend i took last
		if size, err := f.CloseIntake(wire.Dialing, failed, first, i); err == nil {
			t.Errorf("frontend %d closed failed round %d again and dealt %d onions", i, failed, size)
		}
	}
	for i, e := range []*entry.Server{n.Entry, n.Frontends[0]} {
		if err := e.Submit(wire.Dialing, 1, make([]byte, wire.OnionSize(wire.Dialing, len(n.Mixers)))); !errors.Is(err, entry.ErrRoundClosed) {
			t.Errorf("frontend %d: submit to failed round 1: %v, want entry.ErrRoundClosed", i, err)
		}
		if size := e.BatchSize(wire.Dialing, 1); size != 0 {
			t.Errorf("frontend %d holds %d onions of failed round 1", i, size)
		}
	}
}

// TestFailedCloseClosesEveryIntake: with frontend 1 of three down at the
// close, the round fails, and every other frontend's intake of it is
// closed by the time CloseRound returns.
func TestFailedCloseClosesEveryIntake(t *testing.T) {
	n, err := sim.NewNetwork(sim.Config{NumPKGs: 1, NumFrontends: 3, TargetRequestsPerMailbox: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Coord.OpenDialingRound(1); err != nil {
		t.Fatal(err)
	}
	n.Kill(n.Coord.Frontends[0].(*rpc.EntryReplicaClient).Addr())
	if _, err := n.Coord.CloseRound(wire.Dialing, 1); err == nil {
		t.Fatal("round 1 closed with frontend 1 down")
	}
	onion := make([]byte, wire.OnionSize(wire.Dialing, len(n.Mixers)))
	for i, e := range []*entry.Server{n.Entry, n.Frontends[1]} {
		if err := e.Submit(wire.Dialing, 1, onion); !errors.Is(err, entry.ErrRoundClosed) {
			t.Errorf("frontend %d: submit after the failed close: %v, want entry.ErrRoundClosed", 2*i, err)
		}
	}
}

// erasureWaiter is a frontend whose close first waits, up to 5 s, until no
// PKG holds the round's master key.
type erasureWaiter struct {
	coordinator.Frontend
	pkgs []*pkgserver.Server
}

func (f erasureWaiter) CloseIntake(service wire.Service, round uint32, shards []string, upstream int) (int, error) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		open := 0
		for _, p := range f.pkgs {
			if p.RoundOpen(round) {
				open++
			}
		}
		if open == 0 {
			return f.Frontend.CloseIntake(service, round, shards, upstream)
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%d PKGs still hold round %d's master key 5 s into the close", open, round)
		}
	}
}

// TestPKGErasedBesideClose: an add-friend round's PKG master keys are
// erased while the frontends' closes are still under way, not after the
// slowest close and deal returns. Frontend 1's close waits for the
// erasure, so the round closes only if the erasure started beside it.
func TestPKGErasedBesideClose(t *testing.T) {
	n, err := sim.NewNetwork(sim.Config{NumFrontends: 2, TargetRequestsPerMailbox: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Coord.Frontends[0] = erasureWaiter{Frontend: n.Coord.Frontends[0], pkgs: n.PKGs}
	if _, err := n.Coord.OpenAddFriendRound(1); err != nil {
		t.Fatal(err)
	}
	for i, p := range n.PKGs {
		if !p.RoundOpen(1) {
			t.Fatalf("PKG %d holds no master key for the open round", i)
		}
	}
	if _, err := n.Coord.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
}
