package rpc_test

import (
	mathrand "math/rand"
	"sync/atomic"
	"testing"
	"time"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// newOpenFleet is a 3-position × 2-shard fleet over mem: with noise off.
func newOpenFleet(t *testing.T) *sim.Network {
	nz := noise.Laplace{}
	return newNetwork(t, sim.Config{
		NumPKGs: 1, Shards: []int{2, 2, 2}, AddFriendNoise: &nz, DialingNoise: &nz,
		TargetRequestsPerMailbox: 40,
	})
}

// TestRoundOpenCalls pins what opening a round costs the fleet: on a 3×2
// fleet, a dialing round's open sends each daemon one mix.info probe and
// one mix.round.open, and each announcer one mix.newround — 6, 6 and 3
// calls, and not one other. The close's peel-stage begins at position 0
// come from the entry frontend's intake, one to each of its two shards,
// and none from the coordinator; position 0's depositor sends its lead one
// merge-stage begin.
func TestRoundOpenCalls(t *testing.T) {
	n := newOpenFleet(t)
	var begins [3]atomic.Int32 // by stage
	for _, m := range n.Mixers[0] {
		m := m
		rpc.HandleFunc(n.Server(m.Addr), "mix.stream.begin", func(a rpc.StreamArgs) (any, error) {
			begins[a.Stage].Add(1)
			return nil, m.Daemon.Stream("mix.stream.begin", a)
		})
	}
	var clients []*rpc.MixerClient
	for _, group := range n.Mixers {
		for _, m := range group {
			clients = append(clients, m.Client)
		}
	}
	methods := []string{"mix.info", "mix.newround", "mix.round.open", "mix.stream.begin"}
	counts := func() map[string]uint64 {
		out := make(map[string]uint64)
		for _, c := range clients {
			for _, method := range methods {
				out[method] += c.CallCount(method)
			}
			out[""] += c.TransportStats().Calls
		}
		return out
	}

	before := counts()
	settings, err := n.Coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	opened := counts()
	want := map[string]uint64{"mix.info": 6, "mix.newround": 3, "mix.round.open": 6, "mix.stream.begin": 0, "": 15}
	for method, w := range want {
		if got := opened[method] - before[method]; got != w {
			t.Errorf("open sent %d %q calls, want %d", got, method, w)
		}
	}

	tokens := makeTestTokens(20)
	submitTokens(t, n.Entry, settings, tokens, mathrand.New(mathrand.NewSource(1)))
	if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	assertTokensDelivered(t, n.CDN, 1, settings, tokens)
	if got := counts()["mix.stream.begin"] - opened["mix.stream.begin"]; got != 0 {
		t.Errorf("the coordinator sent %d mix.stream.begin calls, want 0", got)
	}
	if got := begins[rpc.StagePeel].Load(); got != 2 {
		t.Errorf("position 0 received %d peel-stage begins, want 2", got)
	}
	if got := begins[rpc.StageMerge].Load(); got != 1 {
		t.Errorf("position 0 received %d merge-stage begins, want 1", got)
	}
	if got := begins[rpc.StageBuild].Load(); got != 0 {
		t.Errorf("position 0 received %d build-stage begins, want 0", got)
	}
}

// TestRoundCloseCalls pins what closing a round costs the entry tier: with
// three frontends, every round sends each of the two remote ones one
// entry.replicate.close, which also deals its sub-batch, and no
// entry.replicate.feed.
func TestRoundCloseCalls(t *testing.T) {
	n := newNetwork(t, sim.Config{NumPKGs: 1, NumFrontends: 3, TargetRequestsPerMailbox: 40})
	for r := uint32(1); r <= 3; r++ {
		settings, err := n.Coord.OpenDialingRound(r)
		if err != nil {
			t.Fatal(err)
		}
		tokens := makeTestTokens(30)
		submitSplitTokens(t, append([]*entry.Server{n.Entry}, n.Frontends...), settings, tokens, mathrand.New(mathrand.NewSource(int64(r))))
		if _, err := n.Coord.CloseRound(wire.Dialing, r); err != nil {
			t.Fatal(err)
		}
		assertTokensDelivered(t, n.CDN, r, settings, tokens)
		for i, f := range n.Coord.Frontends {
			c := f.(*rpc.EntryReplicaClient)
			if got := c.CallCount("entry.replicate.close"); got != uint64(r) {
				t.Errorf("after round %d frontend %d got %d entry.replicate.close calls, want %d", r, i+1, got, r)
			}
			if got := c.CallCount("entry.replicate.feed"); got != 0 {
				t.Errorf("after round %d frontend %d got %d entry.replicate.feed calls, want 0", r, i+1, got)
			}
		}
	}
}

// TestRoundClockStartsAtFirstBegin: a daemon's round clock — the duration
// it reports and the deadline its dial retries honour — starts at its
// first mix.stream.begin, not at its open, so the clients' submit window
// counts against neither. With RoundDeadline shorter than the gap between
// open and close, the round still publishes, and every daemon reports a
// duration shorter than that gap.
func TestRoundClockStartsAtFirstBegin(t *testing.T) {
	n := newOpenFleet(t)
	n.Coord.RoundDeadline = time.Second
	const window = 3 * time.Second / 2

	start := time.Now()
	settings, err := n.Coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	tokens := makeTestTokens(20)
	submitTokens(t, n.Entry, settings, tokens, mathrand.New(mathrand.NewSource(1)))
	time.Sleep(window - time.Since(start))
	gap := time.Since(start)
	if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatalf("a submit window longer than the round deadline failed the round: %v", err)
	}
	assertTokensDelivered(t, n.CDN, 1, settings, tokens)

	status := n.Coord.Status()
	h := status[len(status)-1]
	if len(h.Daemons) != 6 {
		t.Fatalf("health record has %d daemons, want 6", len(h.Daemons))
	}
	for _, d := range h.Daemons {
		if d.Stats.Duration >= gap {
			t.Errorf("daemon %d/%d reports %v, longer than the %v since open", d.Position, d.Shard, d.Stats.Duration, gap)
		}
	}
}

// TestRoundOpenResent: mix.round.open is safe to re-send, even while the
// first copy is still running: identical opens racing on one daemon all
// succeed and install one route, and an open that conflicts with it is
// refused.
func TestRoundOpenResent(t *testing.T) {
	rd := startRoutedDaemon(t, 0)
	spec := wire.RouteSpec{
		NumMailboxes: routedMailboxes, CDNAddr: "cdn:1", NumUpstream: 1,
		Group: []string{rd.addr},
	}
	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		mc, err := rpc.DialMixer(rd.addr)
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- mc.OpenRound(wire.Dialing, 1, spec) }()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Errorf("re-sent open refused: %v", err)
		}
	}
	if n := rd.daemon.PendingRounds(); n != 1 {
		t.Fatalf("%d rounds after identical opens, want 1", n)
	}
	spec.NumUpstream = 2
	if err := rd.mc.OpenRound(wire.Dialing, 1, spec); err == nil {
		t.Fatal("conflicting open accepted")
	}
	rd.mc.CloseRound(wire.Dialing, 1)
	if n := rd.daemon.PendingRounds(); n != 0 {
		t.Fatalf("%d rounds leak after close", n)
	}
}
