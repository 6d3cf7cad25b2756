package rpc

import (
	"encoding/json"
	"testing"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// FuzzWatchRoundsReply feeds the client's entry.events decode whatever an
// untrusted frontend might send. It must never panic, every event must
// come through with its own cursor/service/round/kind, and an embedded
// settings blob is kept exactly when it decodes — a bad blob is dropped
// (nil Settings), which is what sends the client to entry.settings for
// that round (TestBadEventSettingsFallBackToFetch).
func FuzzWatchRoundsReply(f *testing.F) {
	settings := (&wire.RoundSettings{
		Service: wire.Dialing, Round: 7, NumMailboxes: 3,
		Mixers: []wire.MixerRoundKey{{OnionKey: make([]byte, 32), Sig: make([]byte, 64)}},
	}).Marshal()
	for _, reply := range []eventsReply{
		{},
		{Next: 2, Events: []wireEvent{
			{Cursor: 1, Service: wire.Dialing, Round: 7, Kind: int(entry.RoundOpen), Settings: settings},
			{Cursor: 2, Service: wire.Dialing, Round: 7, Kind: int(entry.RoundPublished)},
		}},
		{Next: 9, Gap: true, Events: []wireEvent{
			{Cursor: 9, Service: wire.AddFriend, Round: 4, Kind: int(entry.RoundOpen), Settings: settings[:len(settings)-1]},
			{Cursor: 9, Service: 200, Round: 1 << 31, Kind: -5, Settings: []byte{0xff}},
		}},
	} {
		seed, err := json.Marshal(reply)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"events":[{"settings":"AAAA"}],"next":18446744073709551615}`))
	f.Add([]byte(`{"events":null,"next":"x"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var reply eventsReply
		if json.Unmarshal(data, &reply) != nil {
			return // the transport rejects the frame before the decode runs
		}
		anns := reply.announcements()
		if len(anns) != len(reply.Events) {
			t.Fatalf("%d events decoded to %d announcements", len(reply.Events), len(anns))
		}
		for i, ev := range reply.Events {
			ann := anns[i]
			if ann.Cursor != ev.Cursor || ann.Service != ev.Service || ann.Round != ev.Round || int(ann.Kind) != ev.Kind {
				t.Fatalf("event %d %+v decoded to %+v", i, ev, ann)
			}
			_, err := wire.UnmarshalRoundSettings(ev.Settings)
			if want := len(ev.Settings) > 0 && err == nil; (ann.Settings != nil) != want {
				t.Fatalf("event %d: settings kept=%v, want %v (blob decode error: %v)", i, ann.Settings != nil, want, err)
			}
		}
	})
}
