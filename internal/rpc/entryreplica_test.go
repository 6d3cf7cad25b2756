package rpc

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// FuzzReplicateArgs drives the three entry.replicate handlers with
// arbitrary params against a frontend that holds two open rounds with
// onions in them (dialing round 1, add-friend round 2). pick selects the
// handler and, for a close, how many of position 0's shards it names and
// whether the list is padded one past maxFanIn or carries an empty
// address; the shards are in-memory listeners that take every stream call
// and count the onions their chunks carry, so a close the handler accepts
// really deals. data is the settings blob of an open and the JSON params
// of every other call. The properties:
//   - no handler panics;
//   - a refused call moves neither the event log, nor an open round's
//     batch, nor a shard's count;
//   - a close naming more than maxFanIn shards or an empty address is
//     refused;
//   - an accepted open re-sent byte for byte is acknowledged, and one
//     re-sent with different settings is refused;
//   - an accepted close deals exactly its batch, and its re-send is
//     refused and deals nothing.
func FuzzReplicateArgs(f *testing.F) {
	methods := []string{"entry.replicate.open", "entry.replicate.close", "entry.replicate.published"}
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
	f.Add(uint8(1+3), []byte(`{"service":2,"round":1}`))
	f.Add(uint8(1+3*3), []byte(`{"service":2,"round":1,"upstream":1}`))
	f.Add(uint8(1+3*2), []byte(`{"service":1,"round":2}`))
	f.Add(uint8(1+3), []byte(`{"service":2,"round":1,"num_mailboxes":2,"chunk_size":0}`)) // an older close's fields, ignored
	f.Add(uint8(1+3*3), []byte(`{"service":1,"round":2,"upstream":2}`))
	f.Add(uint8(1+3*2), []byte(`{"service":2,"round":1,"upstream":-1}`))
	f.Add(uint8(1), []byte(`{"service":2,"round":1}`))                   // no shards
	f.Add(uint8(1+3), []byte(`{"service":2,"round":9}`))                 // never announced
	f.Add(uint8(1+3*2), []byte(`{"service":2,"round":1,"shards":[""]}`)) // shards replaced
	f.Add(uint8(1+3+12), []byte(`{"service":2,"round":1}`))              // maxFanIn+1 shards
	f.Add(uint8(1+3*2+24), []byte(`{"service":2,"round":1}`))            // an empty address
	f.Add(uint8(2), []byte(`{"service":2,"round":1}`))
	f.Add(uint8(2), []byte(`{"service":2,"round":7}`))
	f.Add(uint8(2), []byte(`{"service":1,"round":2}`))
	f.Add(uint8(1+3), []byte(`null`))

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
		for i, service := range []wire.Service{wire.Dialing, wire.AddFriend} {
			round := uint32(i + 1)
			if _, err := call("entry.replicate.open", replicateOpenArgs{Settings: settings(service, round)}); err != nil {
				t.Fatalf("setup open: %v", err)
			}
			for j := 0; j < 5-2*i; j++ {
				if err := e.Submit(service, round, make([]byte, wire.OnionSize(service, 3))); err != nil {
					t.Fatal(err)
				}
			}
		}

		var dealt atomic.Int64
		shards := []string{}
		for i := 0; i < int(pick/3%4); i++ {
			sink := NewServer()
			for _, m := range []string{"mix.stream.begin", "mix.stream.chunk", "mix.stream.end"} {
				sink.handlers[m] = func(_ string, _ json.RawMessage, blobs [][]byte) (any, error) {
					dealt.Add(int64(len(blobs)))
					return nil, nil
				}
			}
			addr, err := sink.Listen("mem:")
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			shards = append(shards, addr)
		}
		switch pick / 12 % 3 {
		case 1:
			// Never dialed: the close must be refused first.
			for len(shards) <= maxFanIn {
				shards = append(shards, "mem:0")
			}
		case 2:
			shards = append(shards, "")
		}
		malformed := pick/12%3 != 0

		// state is what a refused call must leave alone: the event log's
		// head cursor, the open rounds' batches and the onions dealt.
		state := func() [4]int {
			_, head, _ := e.EventsSince(0, 0)
			return [4]int{int(head), e.BatchSize(wire.Dialing, 1), e.BatchSize(wire.AddFriend, 2), int(dealt.Load())}
		}
		refused := func(what string, before [4]int, err error) {
			if err == nil {
				return
			}
			if after := state(); after != before {
				t.Fatalf("refused %s (%v) moved (log head, batches, dealt) from %v to %v", what, err, before, after)
			}
		}

		method := methods[pick%3]
		var params any = json.RawMessage(data)
		switch method {
		case "entry.replicate.open":
			params = replicateOpenArgs{Settings: data}
		case "entry.replicate.close":
			var fields map[string]json.RawMessage
			if json.Unmarshal(data, &fields) != nil {
				return
			}
			if fields == nil { // the params were null
				fields = map[string]json.RawMessage{}
			}
			var err error
			if fields["shards"], err = json.Marshal(shards); err != nil {
				t.Fatal(err)
			}
			// JSON keys match case-insensitively, so a field the fuzzer
			// spells differently can still override the shards; such
			// closes would dial hosts that are not listening.
			var a replicateCloseArgs
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
		reply, err := call(method, params)
		refused(method, before, err)
		if err != nil {
			return
		}
		if method == "entry.replicate.close" && malformed {
			t.Fatalf("a close naming %d shards, the last %q, accepted", len(shards), shards[len(shards)-1])
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
				t.Fatalf("byte-identical re-open moved (log head, batches, dealt) from %v to %v", before, after)
			}
			rs.NumMailboxes++
			_, err := call(method, replicateOpenArgs{Settings: rs.Marshal()})
			if err == nil {
				t.Fatal("conflicting re-open acknowledged")
			}
			refused("conflicting re-open", before, err)
		case "entry.replicate.close":
			size := reply.(int)
			if got := state()[3] - before[3]; got != size {
				t.Fatalf("a close of %d onions dealt %d", size, got)
			}
			before := state()
			_, err := call(method, params)
			if err == nil {
				t.Fatal("a sub-batch was dealt twice")
			}
			refused("re-sent close", before, err)
		}
	})
}
