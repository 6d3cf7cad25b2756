package rpc

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// FuzzRouteArgs feeds mix.round.open whatever an unauthenticated peer
// might send for a round the daemon has announced. The handler must never
// panic, and whatever it installs must be a route the data plane can run:
// a group of 1 to maxFanIn addresses holding the daemon's slot and the
// lead's, successors or a CDN address but not both, the CDN address
// exactly at the chain's last position, no list longer than
// maxFanIn or holding an empty address, the lead's merge sized to the
// group and a build stage only on the last position's other members; and
// re-sending the same bytes changes nothing. An open carrying the wrong
// number of downstream keys is refused, and a refused open leaves neither
// a route nor noise generation behind.
//
// pick chooses the daemon's chain position (of three) and how many valid
// downstream keys (0-3) the open carries, so opens at every position, with
// the right count and with a wrong one, are all reached. The daemon has
// announced the round (mix.newround). Group[0] is always a live announcer
// on an in-memory listener, so an open at any other slot pulls a real key
// and dials nothing else.
func FuzzRouteArgs(f *testing.F) {
	tooMany := make([]string, maxFanIn+1)
	for i := range tooMany {
		tooMany[i] = "m:9"
	}
	for i, spec := range []wire.RouteSpec{
		// Each seed is tried at every position: one whose output points
		// the other way (successors at pick 2, the CDN at picks 4 and 6)
		// is refused.
		{Group: []string{"m:1"}, NumUpstream: 1, NumMailboxes: 2, CDNAddr: "c:1"},
		{Group: []string{"m:1"}, NumUpstream: 2, NumMailboxes: 2, Successors: []string{"m:2", "m:3"}, DeadlineMs: 5},
		// A build member at slot 1 whose lead is slot 0, a last-position
		// lead, a mid-chain member at slot 2 depositing at slot 1.
		{Group: []string{"m:1", "m:2", "m:3"}, ShardIndex: 1, NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"m:1", "m:2"}, NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"m:1", "m:2", "m:3"}, ShardIndex: 2, Lead: 1, NumUpstream: 1, Successors: []string{"m:4"}},
		// Refused: successors with a CDN address, neither, no upstream, a
		// slot or a lead outside the group, no group, an empty address in
		// the group or the successors, and lists one past maxFanIn.
		{Group: []string{"m:1"}, NumUpstream: 1, Successors: []string{"m:2"}, CDNAddr: "c:1"},
		{Group: []string{"m:1"}, NumUpstream: 1},
		{Group: []string{"m:1"}, CDNAddr: "c:1"},
		{Group: []string{"m:1", "m:2"}, ShardIndex: 2, NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"m:1", "m:2"}, Lead: -1, NumUpstream: 1, CDNAddr: "c:1"},
		{NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"m:1", ""}, ShardIndex: 1, NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"m:1"}, NumUpstream: 1, Successors: []string{"m:2", ""}},
		{Group: tooMany, NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"m:1"}, NumUpstream: 1, Successors: tooMany},
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
	f.Add([]byte(`{"group":["m"],"shard_index":1e9,"lead":-1e9,"num_upstream":1e9,"cdn_addr":"c"}`), uint8(2))
	f.Add([]byte(`{"successors":"x"}`), uint8(4))
	f.Add([]byte(`{"num_mailboxes":4294967295,"group":["m"],"num_upstream":1,"cdn_addr":"c"}`), uint8(2))

	var keys [][]byte
	for i := 0; i < 3; i++ {
		pub, _, err := onionbox.GenerateKey(rand.Reader)
		if err != nil {
			f.Fatal(err)
		}
		keys = append(keys, pub.Bytes())
	}
	nz := noise.Laplace{}
	// Both ends are spares: unpinned, so any layout opens, yet allowed to
	// exchange round keys.
	announcer, err := mixnet.New(mixnet.Config{Name: "a", ChainLength: 3, AddFriendNoise: &nz, DialingNoise: &nz, Spare: true})
	if err != nil {
		f.Fatal(err)
	}
	as := NewServer()
	RegisterMixer(as, announcer)
	announcerAddr, err := as.Listen("mem:")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(as.Close)
	// Every in-memory caller is host "mem".
	if _, err := as.handlers["mix.newround"]("", []byte(`{"service":2,"round":1,"peers":["mem:0"]}`), nil); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		pos, nkeys := int(pick%3), int(pick/3%4)
		// Aim the params at the announced round with the picked keys and
		// the live announcer at slot 0; everything else is the fuzzer's.
		var fields map[string]json.RawMessage
		if json.Unmarshal(data, &fields) != nil {
			return // the transport rejects the frame before the handler runs
		}
		if fields == nil { // the params were null
			fields = map[string]json.RawMessage{}
		}
		fields["service"] = json.RawMessage(`2`)
		fields["round"] = json.RawMessage(`1`)
		var group []string
		if json.Unmarshal(fields["group"], &group) == nil && len(group) > 0 {
			group[0] = announcerAddr
			fields["group"], _ = json.Marshal(group)
		}
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
		// test's (and one naming another slot 0 would dial it).
		var a openArgs
		if json.Unmarshal(params, &a) != nil || a.Service != wire.Dialing || a.Round != 1 ||
			(len(a.Group) > 0 && a.Group[0] != announcerAddr) || !reflect.DeepEqual(a.DownstreamKeys, keys[:nkeys]) {
			return
		}

		m, err := mixnet.New(mixnet.Config{Name: "m", Position: pos, ChainLength: 3, AddFriendNoise: &nz, DialingNoise: &nz, Spare: true})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		d := RegisterMixer(s, m)
		defer func() {
			for _, c := range d.peers {
				c.Close()
			}
		}()
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
		n := len(rt.Group)
		wantMerge, wantBuild := 0, 0
		if rt.lead() {
			wantMerge = n
		} else if rt.last() {
			wantBuild = 1
		}
		slots := func(in *intake) int {
			if in == nil {
				return 0
			}
			return len(in.ended)
		}
		switch {
		case nkeys != 2-pos:
			t.Fatalf("open with %d downstream keys accepted at position %d of 3", nkeys, pos)
		case n < 1 || n > maxFanIn || slices.Contains(rt.Group, ""):
			t.Fatalf("installed a group of %d, empty address %v", n, slices.Contains(rt.Group, ""))
		case rt.ShardIndex < 0 || rt.ShardIndex >= n || rt.Lead < 0 || rt.Lead >= n:
			t.Fatalf("installed slot %d, lead %d in a group of %d", rt.ShardIndex, rt.Lead, n)
		case len(rt.Successors) > maxFanIn || slices.Contains(rt.Successors, ""):
			t.Fatalf("installed %d successors, empty address %v", len(rt.Successors), slices.Contains(rt.Successors, ""))
		case (len(rt.Successors) > 0) == rt.last():
			t.Fatalf("installed a route with %d successors and CDN %q", len(rt.Successors), rt.CDNAddr)
		case rt.last() != (pos == 2):
			t.Fatalf("installed a route with CDN %q at position %d of 3", rt.CDNAddr, pos)
		case slots(rt.intakes[stagePeel]) < 1:
			t.Fatal("installed a route no upstream can end")
		case slots(rt.intakes[stageMerge]) != wantMerge || slots(rt.intakes[stageBuild]) != wantBuild:
			t.Fatalf("slot %d, lead %d, last %v: %d merge slots, %d build slots", rt.ShardIndex, rt.Lead, rt.last(),
				slots(rt.intakes[stageMerge]), slots(rt.intakes[stageBuild]))
		}
		if err := open(); err != nil {
			t.Fatalf("byte-identical re-send refused: %v", err)
		}
		if d.rounds[outKey{wire.Dialing, 1}] != rt || rt.mix != mix {
			t.Fatal("byte-identical re-send replaced the route")
		}
	})
}

// TestRouteRoles: every member of a position gets the same route but for
// its slot, and works out its roles from it. Over groups of one to three,
// every lead slot and every slot, at the first, a middle and the last
// position, the roles must be the ones the coordinator handed out when it
// sent roles rather than the plan: the announcer to pull the key from, the
// lead to deposit at, the group the last lead deals its build across, the
// successors the lead deals to, and the daemons a failure aborts. Each
// letter is an address: the group is "abc"[:size], the next position's
// set "xy".
func TestRouteRoles(t *testing.T) {
	const first, middle, last = 0, 1, 2
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, "")
	}
	for _, tc := range []struct {
		pos                            int
		group                          string
		lead, slot                     int
		key, merge, build, succ, abort string
	}{
		{first, "a", 0, 0, "", "", "", "xy", "xy"},
		{first, "ab", 0, 0, "", "", "", "xy", "xy"},
		{first, "ab", 0, 1, "a", "a", "", "", "a"},
		{first, "ab", 1, 0, "", "b", "", "", "b"},
		{first, "ab", 1, 1, "a", "", "", "xy", "xy"},
		{first, "abc", 0, 0, "", "", "", "xy", "xy"},
		{first, "abc", 0, 1, "a", "a", "", "", "a"},
		{first, "abc", 0, 2, "a", "a", "", "", "a"},
		{first, "abc", 1, 0, "", "b", "", "", "b"},
		{first, "abc", 1, 1, "a", "", "", "xy", "xy"},
		{first, "abc", 1, 2, "a", "b", "", "", "b"},
		{first, "abc", 2, 0, "", "c", "", "", "c"},
		{first, "abc", 2, 1, "a", "c", "", "", "c"},
		{first, "abc", 2, 2, "a", "", "", "xy", "xy"},
		{middle, "a", 0, 0, "", "", "", "xy", "xy"},
		{middle, "ab", 0, 0, "", "", "", "xy", "xy"},
		{middle, "ab", 0, 1, "a", "a", "", "", "a"},
		{middle, "ab", 1, 0, "", "b", "", "", "b"},
		{middle, "ab", 1, 1, "a", "", "", "xy", "xy"},
		{middle, "abc", 0, 0, "", "", "", "xy", "xy"},
		{middle, "abc", 0, 1, "a", "a", "", "", "a"},
		{middle, "abc", 0, 2, "a", "a", "", "", "a"},
		{middle, "abc", 1, 0, "", "b", "", "", "b"},
		{middle, "abc", 1, 1, "a", "", "", "xy", "xy"},
		{middle, "abc", 1, 2, "a", "b", "", "", "b"},
		{middle, "abc", 2, 0, "", "c", "", "", "c"},
		{middle, "abc", 2, 1, "a", "c", "", "", "c"},
		{middle, "abc", 2, 2, "a", "", "", "xy", "xy"},
		{last, "a", 0, 0, "", "", "a", "", ""},
		{last, "ab", 0, 0, "", "", "ab", "", "b"},
		{last, "ab", 0, 1, "a", "a", "", "", "a"},
		{last, "ab", 1, 0, "", "b", "", "", "b"},
		{last, "ab", 1, 1, "a", "", "ab", "", "a"},
		{last, "abc", 0, 0, "", "", "abc", "", "bc"},
		{last, "abc", 0, 1, "a", "a", "", "", "a"},
		{last, "abc", 0, 2, "a", "a", "", "", "a"},
		{last, "abc", 1, 0, "", "b", "", "", "b"},
		{last, "abc", 1, 1, "a", "", "abc", "", "ac"},
		{last, "abc", 1, 2, "a", "b", "", "", "b"},
		{last, "abc", 2, 0, "", "c", "", "", "c"},
		{last, "abc", 2, 1, "a", "c", "", "", "c"},
		{last, "abc", 2, 2, "a", "", "abc", "", "ab"},
	} {
		a := openArgs{RouteSpec: wire.RouteSpec{Group: split(tc.group), ShardIndex: tc.slot, Lead: tc.lead}}
		if tc.pos == last {
			a.CDNAddr = "cdn"
		} else {
			a.Successors = split("xy")
		}
		var succ []string
		if a.lead() && !a.last() {
			succ = a.Successors
		}
		j := func(addrs []string) string { return strings.Join(addrs, "") }
		got := []string{a.keySource(), a.mergeTarget(), j(a.buildSet()), j(succ), j(a.abortTargets())}
		want := []string{tc.key, tc.merge, tc.build, tc.succ, tc.abort}
		if !slices.Equal(got, want) {
			t.Errorf("position %d, group %q, lead %d, slot %d: (key, merge, build, successors, aborts) = %q, want %q",
				tc.pos, tc.group, tc.lead, tc.slot, got, want)
		}
	}
}

// TestRouteDirectionMatchesPosition: a route's output goes to the CDN
// exactly at the chain's last position. A last-position daemon opened with
// successors, and a middle one opened with a CDN address, are each refused
// and leave no route and no noise behind (the noise lives in the round's
// mixnet.Round, which only an accepted open makes); the same daemon then
// opens the route that points the right way.
func TestRouteDirectionMatchesPosition(t *testing.T) {
	pub, _, err := onionbox.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	toCDN := wire.RouteSpec{Group: []string{"mem:1"}, NumUpstream: 1, NumMailboxes: 1, CDNAddr: "mem:2"}
	toSuccessors := wire.RouteSpec{Group: []string{"mem:1"}, NumUpstream: 1, NumMailboxes: 1, Successors: []string{"mem:3"}}
	nz := noise.Laplace{}
	for _, tc := range []struct {
		pos          int
		wrong, right wire.RouteSpec
	}{
		{2, toSuccessors, toCDN},
		{1, toCDN, toSuccessors},
	} {
		m, err := mixnet.New(mixnet.Config{Name: "m", Position: tc.pos, ChainLength: 3, AddFriendNoise: &nz, DialingNoise: &nz})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		d := RegisterMixer(s, m)
		round := []byte(`{"service":2,"round":1}`)
		if _, err := s.handlers["mix.newround"]("", round, nil); err != nil {
			t.Fatal(err)
		}
		keys := [][]byte{pub.Bytes()}[:2-tc.pos]
		open := func(spec wire.RouteSpec) error {
			spec.DownstreamKeys = keys
			return d.openRound(openArgs{Service: wire.Dialing, Round: 1, RouteSpec: spec})
		}
		if err := open(tc.wrong); err == nil {
			t.Errorf("position %d of 3: a route with successors %v and CDN %q accepted", tc.pos, tc.wrong.Successors, tc.wrong.CDNAddr)
		}
		if rt := d.rounds[outKey{wire.Dialing, 1}]; rt.mix != nil {
			t.Fatalf("position %d of 3: the refused open installed a route", tc.pos)
		}
		if err := open(tc.right); err != nil {
			t.Errorf("position %d of 3: %v", tc.pos, err)
		}
		s.handlers["mix.closeround"]("", round, nil)
	}
}

// TestAddressListsBounded: mix.round.open, mix.newround and
// entry.replicate.close refuse an address list one past maxFanIn, each
// entry of which would cost a goroutine or a dial, and one holding an
// empty address. A refused call leaves no route, no announced round and
// no closed intake. The padding address, mem:0, is one no listener ever
// binds, so a call that wrongly went ahead would dial nobody.
func TestAddressListsBounded(t *testing.T) {
	tooMany := make([]string, maxFanIn+1)
	for i := range tooMany {
		tooMany[i] = "mem:0"
	}
	nz := noise.Laplace{}
	m, err := mixnet.New(mixnet.Config{Name: "m", ChainLength: 1, AddFriendNoise: &nz, DialingNoise: &nz})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	d := RegisterMixer(s, m)
	call := func(method string, params any) error {
		raw, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.handlers[method]("", raw, nil)
		return err
	}
	for _, peers := range [][]string{tooMany, {"mem:1", ""}} {
		if err := call("mix.newround", newRoundArgs{Service: wire.Dialing, Round: 1, Peers: peers}); err == nil {
			t.Errorf("mix.newround with %d peers accepted", len(peers))
		}
		if n := d.PendingRounds(); n != 0 {
			t.Fatalf("a refused mix.newround left %d rounds", n)
		}
	}
	if err := call("mix.newround", newRoundArgs{Service: wire.Dialing, Round: 1}); err != nil {
		t.Fatal(err)
	}
	defer call("mix.closeround", roundArgs{Service: wire.Dialing, Round: 1})
	for _, spec := range []wire.RouteSpec{
		{Group: tooMany, NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"mem:1"}, NumUpstream: 1, Successors: tooMany},
		{Group: []string{"mem:1", ""}, NumUpstream: 1, CDNAddr: "c:1"},
		{Group: []string{"mem:1"}, NumUpstream: 1, Successors: []string{""}},
	} {
		if err := call("mix.round.open", openArgs{Service: wire.Dialing, Round: 1, RouteSpec: spec}); err == nil {
			t.Errorf("open with a group of %d and %d successors accepted", len(spec.Group), len(spec.Successors))
		}
		if rt := d.rounds[outKey{wire.Dialing, 1}]; rt.mix != nil {
			t.Fatal("a refused open installed a route")
		}
	}

	e := entry.New()
	rs := &wire.RoundSettings{Service: wire.Dialing, Round: 1, NumMailboxes: 1}
	if err := e.OpenRound(rs); err != nil {
		t.Fatal(err)
	}
	r := NewEntryReplica(e)
	for _, shards := range [][]string{tooMany, {"mem:1", ""}} {
		if _, err := r.CloseIntake(wire.Dialing, 1, shards, 0); err == nil {
			t.Errorf("close dealing to %d shards accepted", len(shards))
		}
	}
	if err := e.Submit(wire.Dialing, 1, make([]byte, wire.OnionSize(wire.Dialing, 0))); err != nil {
		t.Fatalf("the refused closes closed the round: %v", err)
	}
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
// announcer and then refuses the open, its layout (slot 1 of a group of
// three) conflicting with the member's pinned identity (shard 1 of 2). The member keeps nothing — no round, no key:
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
		Group: []string{announcerAddr, memberAddr, "127.0.0.1:1"}, ShardIndex: 1, NumUpstream: 1, NumMailboxes: 1,
		CDNAddr: "c:1",
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
