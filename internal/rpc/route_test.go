package rpc

import (
	"crypto/rand"
	"encoding/json"
	"reflect"
	"testing"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// FuzzRouteArgs feeds mix.round.open whatever an unauthenticated peer
// might send for a round the daemon has announced. The handler must never
// panic, and whatever it installs must be a route the data plane can run:
// the daemon is its group's lead or a depositor, never both; successors and
// build shards sit only on the lead, which either forwards or publishes;
// the build list is exactly the group; and re-sending the same bytes
// changes nothing. An open carrying the wrong number of downstream keys is
// refused, a refused open leaves neither a route nor noise generation
// behind, and an accepted one has started its noise.
//
// pick chooses the daemon's chain position (of three) and how many valid
// downstream keys (0-3) the open carries, so opens at every position, with
// the right count and with a wrong one, are all reached. The daemon is its
// position's announcer: the open names no key source, so it dials nobody.
func FuzzRouteArgs(f *testing.F) {
	for i, spec := range []wire.RouteSpec{
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
		seed, err := json.Marshal(openArgs{RouteSpec: spec})
		if err != nil {
			f.Fatal(err)
		}
		// The right key count at positions 2, 1 and 0.
		for _, pick := range []uint8{2, 4, 6} {
			f.Add(seed, pick)
		}
		if i == 0 {
			// Too few keys at position 0, one too many at position 2.
			f.Add(seed, uint8(0))
			f.Add(seed, uint8(5))
		}
	}
	f.Add([]byte(`{"shard_count":1e9,"num_upstream":1e9,"cdn_addr":"c"}`), uint8(2))
	f.Add([]byte(`{"successors":"x"}`), uint8(4))
	f.Add([]byte(`{"num_mailboxes":4294967295,"shard_count":1,"num_upstream":1,"cdn_addr":"c","build_shards":["m"]}`), uint8(2))

	var keys [][]byte
	for i := 0; i < 3; i++ {
		pub, _, err := onionbox.GenerateKey(rand.Reader)
		if err != nil {
			f.Fatal(err)
		}
		keys = append(keys, pub.Bytes())
	}
	nz := noise.Laplace{}

	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		pos, nkeys := int(pick%3), int(pick/3%4)
		// Aim the params at the announced round with the picked keys;
		// everything else is the fuzzer's.
		var fields map[string]json.RawMessage
		if json.Unmarshal(data, &fields) != nil {
			return // the transport rejects the frame before the handler runs
		}
		fields["service"] = json.RawMessage(`2`)
		fields["round"] = json.RawMessage(`1`)
		fields["key_addr"] = json.RawMessage(`""`)
		var err error
		if fields["downstream_keys"], err = json.Marshal(keys[:nkeys]); err != nil {
			t.Fatal(err)
		}
		params, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		// JSON keys match case-insensitively, so a field the fuzzer spells
		// differently can still override ours; such opens are not this
		// test's (and one naming a key source would dial it).
		var a openArgs
		if json.Unmarshal(params, &a) != nil || a.Service != wire.Dialing || a.Round != 1 ||
			a.KeyAddr != "" || !reflect.DeepEqual(a.DownstreamKeys, keys[:nkeys]) {
			return
		}

		m, err := mixnet.New(mixnet.Config{Name: "m", Position: pos, ChainLength: 3, AddFriendNoise: &nz, DialingNoise: &nz})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.NewRound(wire.Dialing, 1); err != nil {
			t.Fatal(err)
		}
		defer m.CloseRound(wire.Dialing, 1)
		s := NewServer()
		d := RegisterMixer(s, m)
		open := func() error { _, err := s.handlers["mix.round.open"]("", params, nil); return err }
		// noiseStarted re-applies the round's own shard layout, which
		// mixnet refuses once the round's noise generation has begun.
		noiseStarted := func() bool {
			idx, count := m.RoundShard(wire.Dialing, 1)
			return m.SetRoundShard(wire.Dialing, 1, idx, count) != nil
		}

		k := outKey{wire.Dialing, 1}
		err = open()
		rt := d.routes[k]
		if (err == nil) != (rt != nil) {
			t.Fatalf("handler returned %v but route installed = %v", err, rt != nil)
		}
		if rt == nil {
			if noiseStarted() {
				t.Fatalf("refused open (%v) started noise generation", err)
			}
			return
		}
		lead := rt.MergeAddr == ""
		switch {
		case nkeys != 2-pos:
			t.Fatalf("open with %d downstream keys accepted at position %d of 3", nkeys, pos)
		case !noiseStarted():
			t.Fatal("accepted open did not start noise generation")
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
		if err := open(); err != nil {
			t.Fatalf("byte-identical re-send refused: %v", err)
		}
		if d.routes[k] != rt {
			t.Fatal("byte-identical re-send replaced the route")
		}
	})
}
