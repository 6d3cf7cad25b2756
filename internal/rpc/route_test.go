package rpc

import (
	"encoding/json"
	"testing"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/wire"
)

// FuzzRouteArgs feeds mix.round.route whatever an unauthenticated peer
// might send for an open round. The handler must never panic, and whatever
// it installs must be a route the data plane can run: the daemon is its
// group's lead or a depositor, never both; successors and build shards sit
// only on the lead, which either forwards or publishes; the build list is
// exactly the group; and re-announcing the same bytes changes nothing.
//
// layout picks one of three open rounds with different shard layouts, so
// routes for a group of one and for real groups can both get past the
// layout check.
func FuzzRouteArgs(f *testing.F) {
	for _, a := range []routeArgs{
		{ShardCount: 1, NumUpstream: 1, NumMailboxes: 2, CDNAddr: "c:1", BuildShards: []string{"m:1"}},
		{ShardCount: 1, NumUpstream: 2, NumMailboxes: 2, Successors: []string{"m:2", "m:3"}, DeadlineMs: 5},
		{ShardIndex: 1, ShardCount: 3, NumUpstream: 1, MergeAddr: "m:1", CDNAddr: "c:1"},
		{ShardIndex: 0, ShardCount: 2, NumUpstream: 1, CDNAddr: "c:1", BuildShards: []string{"m:1", "m:2"}},
		// Refused: lead and depositor at once, successors with a CDN
		// address, a short build list, no upstream.
		{ShardIndex: 1, ShardCount: 3, NumUpstream: 1, MergeAddr: "m:1", Successors: []string{"m:2"}},
		{ShardCount: 1, NumUpstream: 1, Successors: []string{"m:2"}, CDNAddr: "c:1"},
		{ShardIndex: 0, ShardCount: 2, NumUpstream: 1, CDNAddr: "c:1", BuildShards: []string{"m:1"}},
		{ShardCount: 1, CDNAddr: "c:1", BuildShards: []string{"m:1"}},
	} {
		seed, err := json.Marshal(a)
		if err != nil {
			f.Fatal(err)
		}
		for layout := uint8(0); layout < 3; layout++ {
			f.Add(seed, layout)
		}
	}
	f.Add([]byte(`{"shard_count":1e9,"num_upstream":1e9,"cdn_addr":"c"}`), uint8(0))
	f.Add([]byte(`{"successors":"x"}`), uint8(1))

	m, err := mixnet.New(mixnet.Config{Name: "m", ChainLength: 1})
	if err != nil {
		f.Fatal(err)
	}
	layouts := [][2]int{{0, 1}, {1, 3}, {0, 2}}
	for i, l := range layouts {
		round := uint32(i + 1)
		if _, err := m.NewRound(wire.Dialing, round); err != nil {
			f.Fatal(err)
		}
		if err := m.SetRoundShard(wire.Dialing, round, l[0], l[1]); err != nil {
			f.Fatal(err)
		}
	}
	s := NewServer()
	d := RegisterMixer(s, m)
	route := func(params []byte, bs [][]byte) (any, error) { return s.handlers["mix.round.route"]("", params, bs) }

	f.Fuzz(func(t *testing.T, data []byte, layout uint8) {
		// Aim the params at one of the open rounds; everything else is the
		// fuzzer's.
		var fields map[string]json.RawMessage
		if json.Unmarshal(data, &fields) != nil {
			return // the transport rejects the frame before the handler runs
		}
		round := uint32(layout%3) + 1
		fields["service"] = json.RawMessage(`2`)
		fields["round"] = json.RawMessage([]byte{'0' + byte(round)})
		params, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		k := outKey{wire.Dialing, round}
		defer delete(d.routes, k)

		_, err = route(params, nil)
		rt := d.routes[k]
		if (err == nil) != (rt != nil) {
			t.Fatalf("handler returned %v but route installed = %v", err, rt != nil)
		}
		if rt == nil {
			return
		}
		lead := rt.MergeAddr == ""
		switch {
		case rt.ShardIndex < 0 || rt.ShardIndex >= rt.ShardCount:
			t.Fatalf("installed shard %d/%d", rt.ShardIndex, rt.ShardCount)
		case len(rt.endedUpstreams) < 1:
			t.Fatal("installed a route no upstream can end")
		case !lead && (len(rt.Successors) > 0 || len(rt.BuildShards) > 0 || rt.mergeEnded != nil):
			t.Fatalf("installed a route that is both merge lead and depositor: %+v", rt)
		case lead && len(rt.mergeEnded) != rt.ShardCount:
			t.Fatalf("lead expects %d deposits from a group of %d", len(rt.mergeEnded), rt.ShardCount)
		case lead && len(rt.Successors) > 0 && (rt.CDNAddr != "" || len(rt.BuildShards) > 0):
			t.Fatalf("installed a lead that both forwards and publishes: %+v", rt)
		case lead && len(rt.Successors) == 0 && (rt.CDNAddr == "" || len(rt.BuildShards) != rt.ShardCount):
			t.Fatalf("installed a last-position lead with %d build shards for a group of %d, CDN %q", len(rt.BuildShards), rt.ShardCount, rt.CDNAddr)
		}
		if _, err := route(params, nil); err != nil {
			t.Fatalf("byte-identical re-announce refused: %v", err)
		}
		if d.routes[k] != rt {
			t.Fatal("byte-identical re-announce replaced the route")
		}
	})
}
