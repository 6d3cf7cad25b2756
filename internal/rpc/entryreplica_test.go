package rpc

import (
	"encoding/json"
	"reflect"
	"testing"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// FuzzReplicateArgs drives the four entry.replicate handlers with
// arbitrary params against a frontend that holds one stashed sub-batch
// (dialing round 1) and one open round (add-friend round 2). pick selects
// the handler and, for a feed, how many of position 0's shards it names;
// the shards are in-memory listeners that take every stream call, so a
// feed the handler accepts really deals. data is the settings blob of an
// open and the JSON params of every other call. The properties:
//   - no handler panics;
//   - a refused call changes neither the stash nor the event log;
//   - an accepted open re-sent byte for byte is acknowledged, and one
//     re-sent with different settings is refused;
//   - an accepted feed is not accepted twice.
func FuzzReplicateArgs(f *testing.F) {
	methods := []string{"entry.replicate.open", "entry.replicate.close", "entry.replicate.feed", "entry.replicate.published"}
	settings := func(service wire.Service, round uint32) []byte {
		rs := &wire.RoundSettings{Service: service, Round: round, NumMailboxes: 2}
		for i := 0; i < 3; i++ {
			rs.Mixers = append(rs.Mixers, wire.MixerRoundKey{OnionKey: make([]byte, 32), Sig: make([]byte, 64)})
		}
		return rs.Marshal()
	}
	f.Add(uint8(0), settings(wire.Dialing, 3))
	f.Add(uint8(0), settings(wire.Dialing, 1))            // the open round, byte for byte
	f.Add(uint8(0), settings(wire.AddFriend, 1))          // same round number, other service
	f.Add(uint8(0), append(settings(wire.Dialing, 4), 0)) // trailing byte
	f.Add(uint8(1), []byte(`{"service":2,"round":1}`))    // already stashed
	f.Add(uint8(1), []byte(`{"service":1,"round":2}`))    // open: stashes it
	f.Add(uint8(1), []byte(`{"service":2,"round":9}`))    // never announced
	f.Add(uint8(2+4), []byte(`{"service":2,"round":1,"num_mailboxes":2,"chunk_size":2}`))
	f.Add(uint8(2+4*3), []byte(`{"service":2,"round":1,"num_mailboxes":2,"chunk_size":1,"upstream":1}`))
	f.Add(uint8(2+4), []byte(`{"service":2,"round":1,"num_mailboxes":2,"chunk_size":0}`))
	f.Add(uint8(2+4*3), []byte(`{"service":2,"round":1,"num_mailboxes":2,"chunk_size":9223372036854775807}`))
	f.Add(uint8(2+4), []byte(`{"service":2,"round":1,"chunk_size":-3}`))
	f.Add(uint8(2), []byte(`{"service":2,"round":1,"num_mailboxes":2,"chunk_size":2}`)) // no shards
	f.Add(uint8(2+4), []byte(`{"service":1,"round":2,"chunk_size":2}`))                 // not closed
	f.Add(uint8(3), []byte(`{"service":2,"round":1}`))
	f.Add(uint8(3), []byte(`{"service":2,"round":7}`))

	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		e := entry.New()
		s := NewServer()
		RegisterEntryReplica(s, e)
		call := func(method string, params any) (any, error) {
			raw, err := json.Marshal(params)
			if err != nil {
				t.Fatal(err)
			}
			return s.handlers[method]("", raw, nil)
		}
		must := func(method string, params any) {
			if _, err := call(method, params); err != nil {
				t.Fatalf("setup %s: %v", method, err)
			}
		}
		must("entry.replicate.open", replicateOpenArgs{Settings: settings(wire.Dialing, 1)})
		for i := 0; i < 5; i++ {
			if err := e.Submit(wire.Dialing, 1, make([]byte, wire.OnionSize(wire.Dialing, 3))); err != nil {
				t.Fatal(err)
			}
		}
		must("entry.replicate.close", roundArgs{Service: wire.Dialing, Round: 1})
		must("entry.replicate.open", replicateOpenArgs{Settings: settings(wire.AddFriend, 2)})

		// state is what a refused call must leave alone: the event log's
		// head cursor and the stash, read through the idempotent close
		// (-1 once the stash is gone).
		state := func() [2]int {
			_, head, _ := e.EventsSince(0, 0)
			stashed := -1
			if reply, err := call("entry.replicate.close", roundArgs{Service: wire.Dialing, Round: 1}); err == nil {
				stashed = reply.(replicateCloseReply).Size
			}
			return [2]int{int(head), stashed}
		}
		refused := func(what string, before [2]int, err error) {
			if err == nil {
				return
			}
			if after := state(); after != before {
				t.Fatalf("refused %s (%v) moved (log head, stash) from %v to %v", what, err, before, after)
			}
		}

		method := methods[pick%4]
		var params any = json.RawMessage(data)
		switch method {
		case "entry.replicate.open":
			params = replicateOpenArgs{Settings: data}
		case "entry.replicate.feed":
			var fields map[string]json.RawMessage
			if json.Unmarshal(data, &fields) != nil {
				return
			}
			shards := []string{}
			for i := 0; i < int(pick/4%4); i++ {
				sink := NewServer()
				for _, m := range []string{"mix.stream.begin", "mix.stream.chunk", "mix.stream.end"} {
					sink.handlers[m] = func(string, json.RawMessage, [][]byte) (any, error) { return nil, nil }
				}
				addr, err := sink.Listen("mem:")
				if err != nil {
					t.Fatal(err)
				}
				defer sink.Close()
				shards = append(shards, addr)
			}
			var err error
			if fields["shards"], err = json.Marshal(shards); err != nil {
				t.Fatal(err)
			}
			// JSON keys match case-insensitively, so a field the fuzzer
			// spells differently can still override the shards; such
			// feeds would dial hosts that are not listening.
			var a replicateFeedArgs
			raw, _ := json.Marshal(fields)
			if json.Unmarshal(raw, &a) != nil || !reflect.DeepEqual(a.Shards, shards) {
				return
			}
			params = json.RawMessage(raw)
		default:
			if !json.Valid(data) {
				return // the transport rejects the frame before the handler runs
			}
		}

		before := state()
		_, err := call(method, params)
		refused(method, before, err)
		if err != nil {
			return
		}
		switch method {
		case "entry.replicate.open":
			rs, derr := wire.UnmarshalRoundSettings(data)
			if derr != nil {
				t.Fatalf("open of undecodable settings accepted: %v", derr)
			}
			before := state()
			if _, err := call(method, params); err != nil {
				t.Fatalf("byte-identical re-open refused: %v", err)
			}
			if after := state(); after != before {
				t.Fatalf("byte-identical re-open moved (log head, stash) from %v to %v", before, after)
			}
			rs.NumMailboxes++
			_, err := call(method, replicateOpenArgs{Settings: rs.Marshal()})
			if err == nil {
				t.Fatal("conflicting re-open acknowledged")
			}
			refused("conflicting re-open", before, err)
		case "entry.replicate.feed":
			before := state()
			_, err := call(method, params)
			if err == nil {
				t.Fatal("a sub-batch was fed twice")
			}
			refused("re-sent feed", before, err)
		}
	})
}
