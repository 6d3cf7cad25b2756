package rpc

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"reflect"
	"strings"
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
// refused, and a refused open leaves neither a route nor noise generation
// behind.
//
// pick chooses the daemon's chain position (of three) and how many valid
// downstream keys (0-3) the open carries, so opens at every position, with
// the right count and with a wrong one, are all reached. The daemon is its
// position's announcer (mix.newround): the open names no key source, so it
// dials nobody.
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
		s := NewServer()
		d := RegisterMixer(s, m)
		call := func(method string, params []byte) error { _, err := s.handlers[method]("", params, nil); return err }
		round := []byte(`{"service":2,"round":1}`)
		if err := call("mix.newround", round); err != nil {
			t.Fatal(err)
		}
		defer call("mix.closeround", round)
		open := func() error { return call("mix.round.open", params) }

		// The round's noise lives in its mixnet.Round alone, which an
		// accepted open makes (and Open starts the noise before it
		// returns) and a refused one does not.
		err = open()
		rt := d.rounds[outKey{wire.Dialing, 1}]
		mix := rt.mix
		if (err == nil) != (mix != nil) {
			t.Fatalf("handler returned %v but route installed = %v", err, mix != nil)
		}
		if mix == nil {
			return
		}
		lead := rt.MergeAddr == ""
		switch {
		case nkeys != 2-pos:
			t.Fatalf("open with %d downstream keys accepted at position %d of 3", nkeys, pos)
		case rt.ShardIndex < 0 || rt.ShardIndex >= rt.ShardCount:
			t.Fatalf("installed shard %d/%d", rt.ShardIndex, rt.ShardCount)
		case len(rt.intakes[stagePeel].ended) < 1:
			t.Fatal("installed a route no upstream can end")
		case !lead && (len(rt.Successors) > 0 || len(rt.BuildShards) > 0 || rt.intakes[stageMerge] != nil):
			t.Fatalf("installed a route that is both merge lead and depositor: %+v", rt)
		case lead && len(rt.intakes[stageMerge].ended) != rt.ShardCount:
			t.Fatalf("lead expects %d deposits from a group of %d", len(rt.intakes[stageMerge].ended), rt.ShardCount)
		case lead && len(rt.Successors) > 0 && (rt.CDNAddr != "" || len(rt.BuildShards) > 0):
			t.Fatalf("installed a lead that both forwards and publishes: %+v", rt)
		case lead && len(rt.Successors) == 0 && (rt.CDNAddr == "" || len(rt.BuildShards) != rt.ShardCount):
			t.Fatalf("installed a last-position lead with %d build shards for a group of %d, CDN %q", len(rt.BuildShards), rt.ShardCount, rt.CDNAddr)
		}
		if err := open(); err != nil {
			t.Fatalf("byte-identical re-send refused: %v", err)
		}
		if d.rounds[outKey{wire.Dialing, 1}] != rt || rt.mix != mix {
			t.Fatal("byte-identical re-send replaced the route")
		}
	})
}

// TestAnnouncedKeyErasedAtClose: a key announced by mix.newround that never
// reaches an open is the daemon's alone to erase. mix.closeround takes the
// round out of the daemon's map and zeroes the key.
func TestAnnouncedKeyErasedAtClose(t *testing.T) {
	nz := noise.Laplace{}
	m, err := mixnet.New(mixnet.Config{Name: "m", ChainLength: 1, AddFriendNoise: &nz, DialingNoise: &nz})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	d := RegisterMixer(s, m)
	round := []byte(`{"service":2,"round":1}`)
	if _, err := s.handlers["mix.newround"]("", round, nil); err != nil {
		t.Fatal(err)
	}
	key := d.rounds[outKey{wire.Dialing, 1}].key
	if kb := key.Bytes(); bytes.Equal(kb, make([]byte, len(kb))) {
		t.Fatal("newround announced an all-zero key")
	}
	if _, err := s.handlers["mix.closeround"]("", round, nil); err != nil {
		t.Fatal(err)
	}
	if kb := key.Bytes(); !bytes.Equal(kb, make([]byte, len(kb))) {
		t.Fatalf("the announced key reads %x after mix.closeround", kb)
	}
	if n := d.PendingRounds(); n != 0 {
		t.Fatalf("%d rounds after close", n)
	}
}

// TestRefusedOpenAfterImport: a shard member pulls the round key from its
// announcer and then refuses the open, its layout conflicting with the
// member's pinned identity. The member keeps nothing — no round, no key:
// mixnet.Server.Open zeroes the pulled key's bytes, which
// TestImportRoundKeyErasesInput holds it to — and the announcer's key is
// zeroed by the round's close.
func TestRefusedOpenAfterImport(t *testing.T) {
	nz := noise.Laplace{}
	serve := func(index int) (*MixerDaemon, *Server, string) {
		m, err := mixnet.New(mixnet.Config{
			Name: "m", ChainLength: 1, AddFriendNoise: &nz, DialingNoise: &nz,
			ShardIndex: index, ShardCount: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		d := RegisterMixer(s, m)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return d, s, addr
	}
	announcer, announcerSrv, announcerAddr := serve(0)
	member, memberSrv, memberAddr := serve(1)
	round := []byte(`{"service":2,"round":1}`)
	peers := []byte(`{"service":2,"round":1,"peers":["127.0.0.1:1"]}`)
	if _, err := announcerSrv.handlers["mix.newround"]("", peers, nil); err != nil {
		t.Fatal(err)
	}
	key := announcer.rounds[outKey{wire.Dialing, 1}].key

	open, err := json.Marshal(openArgs{Service: wire.Dialing, Round: 1, RouteSpec: wire.RouteSpec{
		KeyAddr: announcerAddr, ShardIndex: 0, ShardCount: 2, NumUpstream: 1, NumMailboxes: 1,
		CDNAddr: "c:1", BuildShards: []string{announcerAddr, memberAddr},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memberSrv.handlers["mix.round.open"]("", open, nil); err == nil || !strings.Contains(err.Error(), "pinned identity") {
		t.Fatalf("open with a conflicting layout returned %v, want the pinned-identity refusal after the key pull", err)
	}
	if n := member.PendingRounds(); n != 0 {
		t.Fatalf("the refused open left %d rounds on the member", n)
	}
	if _, err := announcerSrv.handlers["mix.closeround"]("", round, nil); err != nil {
		t.Fatal(err)
	}
	if kb := key.Bytes(); !bytes.Equal(kb, make([]byte, len(kb))) {
		t.Fatalf("the announcer's key reads %x after mix.closeround", kb)
	}
}
