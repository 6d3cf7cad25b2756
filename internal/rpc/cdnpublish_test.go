package rpc

import (
	"bytes"
	"slices"
	"testing"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/wire"
)

// publishModel is what cdn.publish promises, without the staging order or
// the TTL: per round, the shard count its first stream fixed, which
// streams sent Done and the per-ID concatenation of the fragments staged
// so far; and what every sealed round must hold.
type publishModel struct {
	staged map[outKey]*stagedRound
	sealed map[outKey]map[uint32][]byte
}

// apply runs one call through the model and reports whether cdn.publish
// must refuse it.
func (m *publishModel) apply(a cdnStreamArgs) (refused bool) {
	k := outKey{a.Service, a.Round}
	switch {
	case len(a.Keys) != len(a.blobs):
		return true
	case a.Abort:
		delete(m.staged, k)
		return false
	case a.NumShards < 1 || a.NumShards > maxFanIn || a.Shard < 0 || a.Shard >= a.NumShards:
		return true
	}
	st := m.staged[k]
	if st == nil {
		st = &stagedRound{boxes: make(map[uint32][]byte), numShards: a.NumShards, shardDone: make([]bool, a.NumShards)}
		m.staged[k] = st
	}
	if a.NumShards != st.numShards {
		delete(m.staged, k)
		return true
	}
	st.add(a.keyedBlobs)
	if !a.Done {
		return false
	}
	st.shardDone[a.Shard] = true
	if slices.Contains(st.shardDone, false) {
		return false
	}
	delete(m.staged, k)
	if _, ok := m.sealed[k]; ok {
		return true // the store refuses a second seal
	}
	m.sealed[k] = st.boxes
	return false
}

// publishCalls decodes a sequence of cdn.publish calls from fuzz input.
// Each call takes a header byte (bit 0 the service, add-friend or
// dialing; bits 1-2 the round; bit 3 Done; bit 4 Abort; bits 5-7 the
// fragment count), a shard byte (bits 0-2 the shard index plus one, so −1
// to 6; bits 3-5 the shard count, 0 to 7; bit 6 an unpaired key; bit 7 a
// count past maxFanIn), and per fragment an ID byte (mod 8), a length byte
// (mod 8) and that many content bytes. Two services and four rounds make
// eight staged rounds at most, stagingLimit, so the count cap never
// evicts one.
func publishCalls(data []byte) []cdnStreamArgs {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var calls []cdnStreamArgs
	for len(data) > 0 {
		h, s := next(), next()
		a := cdnStreamArgs{
			Service:   wire.AddFriend + wire.Service(h&1),
			Round:     uint32(h>>1) & 3,
			Done:      h&8 != 0,
			Abort:     h&16 != 0,
			Shard:     int(s&7) - 1,
			NumShards: int(s>>3) & 7,
		}
		if s&0x80 != 0 {
			a.NumShards = maxFanIn + 1
		}
		for n := h >> 5; n > 0; n-- {
			id := uint32(next() % 8)
			frag := make([]byte, min(int(next()%8), len(data)))
			copy(frag, data)
			data = data[len(frag):]
			a.add(id, frag)
		}
		if s&0x40 != 0 {
			a.Keys = append(a.Keys, 99)
		}
		calls = append(calls, a)
	}
	return calls
}

// FuzzCDNPublishArgs drives a CDN node's publish surface with calls whose
// shard index and count, mailbox IDs, fragments, Done and Abort come from
// the input, against publishModel. After every call: nothing panicked;
// the call was refused exactly when the model refuses it; a round is
// sealed exactly when every stream of its one shard count has sent Done;
// a sealed round holds exactly the per-ID concatenation of what was
// staged; and a sealed round never changes, even though every call's
// fragment buffers are overwritten once it returns, as a transport reusing
// its frame buffers would.
func FuzzCDNPublishArgs(f *testing.F) {
	f.Add([]byte{0x28, 0x08, 1, 3, 'a', 'b', 'c'})                          // one stream, Done
	f.Add([]byte{0x20, 0x11, 2, 2, 'a', 'b', 0x28, 0x12, 2, 1, 'c'})        // two shards
	f.Add([]byte{0x20, 0x11, 2, 2, 'a', 'b', 0x18, 0x11, 0x28, 0x12, 0, 0}) // abort between
	f.Add([]byte{0x20, 0x11, 1, 1, 'x', 0x28, 0x1a, 1, 1, 'y'})             // shard count changes
	f.Add([]byte{0x28, 0x08, 1, 1, 'a', 0x28, 0x08, 1, 1, 'b'})             // a second seal
	f.Add([]byte{0x28, 0x48, 1, 1, 'a', 0x08, 0x80, 0x08, 0x00, 0x08, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &CDNDaemon{store: cdn.NewStore(0), staging: make(map[outKey]*stagedRound), ttl: defaultStagingTTL}
		m := publishModel{staged: make(map[outKey]*stagedRound), sealed: make(map[outKey]map[uint32][]byte)}
		for i, a := range publishCalls(data) {
			// The model stages its own copy of the fragments.
			want := a
			want.blobs = make(blobs, len(a.blobs))
			for j, frag := range a.blobs {
				want.blobs[j] = bytes.Clone(frag)
			}
			refused := m.apply(want)
			if err := d.publish(a); (err != nil) != refused {
				t.Fatalf("call %d (%+v): error %v, model refuses %v", i, want, err, refused)
			}
			for _, frag := range a.blobs {
				for j := range frag {
					frag[j] = 0xee
				}
			}
			for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
				for round := uint32(0); round < 4; round++ {
					checkSealed(t, i, d.store, service, round, m.sealed[outKey{service, round}])
				}
			}
		}
	})
}

// checkSealed holds one round of the store to the model after call i:
// unpublished when want is nil, else holding exactly want's mailboxes.
func checkSealed(t *testing.T, i int, store *cdn.Store, service wire.Service, round uint32, want map[uint32][]byte) {
	t.Helper()
	if store.Published(service, round) != (want != nil) {
		t.Fatalf("after call %d: round %d (%s) published %v, model %v", i, round, service, want == nil, want != nil)
	}
	if want == nil {
		return
	}
	sizes, err := store.MailboxSizes(service, round)
	if err != nil || len(sizes) != len(want) {
		t.Fatalf("after call %d: round %d (%s) holds %d mailboxes (%v), model %d", i, round, service, len(sizes), err, len(want))
	}
	for id, box := range want {
		got, err := store.Fetch(service, round, id)
		if err != nil || !bytes.Equal(got, box) {
			t.Fatalf("after call %d: round %d (%s) mailbox %d is %x (%v), model %x", i, round, service, id, got, err, box)
		}
	}
}
