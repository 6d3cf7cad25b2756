package rpc_test

import (
	"crypto/rand"
	"testing"

	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// TestStreamRefusals: on a 3×2 fleet over mem:, a round's mix.stream calls
// are refused, and change nothing, when they name a stage the daemon's
// route lacks, a slot outside the stage's fan-in, the lead's own merge
// slot, or a chunk before its stage's first begin or after its slot's
// end. The round then runs honestly and publishes every token.
func TestStreamRefusals(t *testing.T) {
	n := newOpenFleet(t)
	settings, err := n.Coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	// The lead role sits at slot round % len(group): shard 1 of each
	// group in round 1.
	const lead, member = 1, 0
	call := func(round uint32, pos, shard int, method string, a rpc.StreamArgs) (before, after string, err error) {
		t.Helper()
		d := n.Mixers[pos][shard]
		c := rpc.Dial(d.Addr)
		defer c.Close()
		a.Service, a.Round = wire.Dialing, round
		before = d.Daemon.IntakeState(wire.Dialing, round)
		err = c.CallOnce(method, a, nil)
		return before, d.Daemon.IntakeState(wire.Dialing, round), err
	}
	chunk := [][]byte{make([]byte, wire.OnionSize(wire.Dialing, len(n.Mixers)))}
	const begin, chunkCall, end = "mix.stream.begin", "mix.stream.chunk", "mix.stream.end"

	for _, tc := range []struct {
		name       string
		pos, shard int
		method     string
		args       rpc.StreamArgs
	}{
		{"merge at a depositor", 0, member, begin, rpc.StreamArgs{Stage: rpc.StageMerge, Upstream: lead}},
		{"merge end at a depositor", 1, member, end, rpc.StreamArgs{Stage: rpc.StageMerge, Upstream: lead}},
		{"build at the lead", 2, lead, begin, rpc.StreamArgs{Stage: rpc.StageBuild}},
		{"build end at the lead", 2, lead, end, rpc.StreamArgs{Stage: rpc.StageBuild}},
		{"build at a position-0 member", 0, member, begin, rpc.StreamArgs{Stage: rpc.StageBuild}},
		{"stage past the last", 1, lead, begin, rpc.StreamArgs{Stage: 3}},
		{"negative stage", 1, lead, end, rpc.StreamArgs{Stage: -1}},
		{"peel upstream out of range", 0, member, begin, rpc.StreamArgs{Stage: rpc.StagePeel, Upstream: 1}},
		{"negative peel upstream", 0, lead, end, rpc.StreamArgs{Stage: rpc.StagePeel, Upstream: -1}},
		{"merge upstream out of range", 1, lead, begin, rpc.StreamArgs{Stage: rpc.StageMerge, Upstream: 2}},
		{"build upstream out of range", 2, member, end, rpc.StreamArgs{Stage: rpc.StageBuild, Upstream: 1}},
		{"lead's own merge slot: begin", 1, lead, begin, rpc.StreamArgs{Stage: rpc.StageMerge, Upstream: lead}},
		{"lead's own merge slot: end", 2, lead, end, rpc.StreamArgs{Stage: rpc.StageMerge, Upstream: lead}},
		{"peel chunk before begin", 0, member, chunkCall, rpc.StreamArgs{Stage: rpc.StagePeel}},
		{"merge chunk before begin", 1, lead, chunkCall, rpc.StreamArgs{Stage: rpc.StageMerge, Upstream: member}},
		{"build chunk before begin", 2, member, chunkCall, rpc.StreamArgs{Stage: rpc.StageBuild}},
	} {
		if tc.method == chunkCall {
			tc.args = tc.args.WithBlobs(chunk)
		}
		before, after, err := call(1, tc.pos, tc.shard, tc.method, tc.args)
		if err == nil {
			t.Errorf("%s: daemon %d/%d accepted %s", tc.name, tc.pos, tc.shard, tc.method)
		}
		if after != before {
			t.Errorf("%s: refused call moved daemon %d/%d from %q to %q", tc.name, tc.pos, tc.shard, before, after)
		}
	}

	// A chunk after its slot's end, on a route the test opens by hand on
	// position 1's announcer as round 2: a two-member lead whose own slot
	// stays open, so the member's end completes nothing.
	a := n.Mixers[1][0]
	if _, err := a.Client.NewRound(wire.Dialing, 2, nil); err != nil {
		t.Fatal(err)
	}
	pub, _, err := onionbox.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Client.OpenRound(wire.Dialing, 2, wire.RouteSpec{
		NumMailboxes: 1, Group: []string{a.Addr, n.Mixers[1][1].Addr}, NumUpstream: 1,
		Successors: []string{n.Mixers[2][0].Addr}, DownstreamKeys: [][]byte{pub.Bytes()},
	}); err != nil {
		t.Fatal(err)
	}
	slot := rpc.StreamArgs{Stage: rpc.StageMerge, Upstream: 1}
	for _, method := range []string{begin, end} {
		if _, _, err := call(2, 1, 0, method, slot); err != nil {
			t.Fatalf("%s of member 1's deposit: %v", method, err)
		}
	}
	if before, after, err := call(2, 1, 0, chunkCall, slot.WithBlobs(chunk)); err == nil || after != before {
		t.Errorf("chunk after its slot's end: err %v, daemon moved from %q to %q", err, before, after)
	}
	a.Client.CloseRound(wire.Dialing, 2)

	tokens := makeTestTokens(20)
	submitTokens(t, n.Entry, settings, tokens, nil)
	if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatalf("the round after the refusals: %v", err)
	}
	assertTokensDelivered(t, n.CDN, 1, settings, tokens)
	assertFleetClean(t, n, 1, nil)
}
