package rpc

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"alpenhorn/internal/cdn"
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

// TestReplicaPublishOrder pins one cursor namespace across the entry tier
// when publishes arrive out of order or twice: the coordinator's own log
// and a frontend's log behind entry.replicate stamp the same events with
// the same cursors, and a duplicated publish is logged once.
func TestReplicaPublishOrder(t *testing.T) {
	local, remote := entry.New(), entry.New()
	srv := NewServer()
	RegisterEntryReplica(srv, remote)
	addr, err := srv.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	replica := DialEntryReplica(addr)
	defer replica.Close()

	for r := uint32(1); r <= 2; r++ {
		settings := &wire.RoundSettings{
			Service: wire.Dialing, Round: r, NumMailboxes: 1,
			Mixers: []wire.MixerRoundKey{{OnionKey: make([]byte, 32), Sig: make([]byte, 64)}},
		}
		if err := local.OpenRound(settings); err != nil {
			t.Fatal(err)
		}
		if err := replica.OpenRound(settings); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []uint32{2, 1, 1, 2} {
		local.AnnouncePublished(wire.Dialing, r)
		replica.AnnouncePublished(wire.Dialing, r)
	}

	want, _, _ := local.EventsSince(0, 0)
	got, _, _ := remote.EventsSince(0, 0)
	if len(want) != 4 {
		t.Fatalf("local log holds %d events, want 2 opens and 2 publishes: %+v", len(want), want)
	}
	if len(got) != len(want) {
		t.Fatalf("replica logged %d events, local %d:\nreplica %+v\nlocal   %+v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Cursor != want[i].Cursor || got[i].Round != want[i].Round || got[i].Kind != want[i].Kind {
			t.Fatalf("event %d: replica %+v, local %+v", i, got[i], want[i])
		}
	}
}

// TestEventsLongPollGoroutines pins the server's cost of a tracked client:
// each parked entry.events long-poll holds its connection's goroutine and
// nothing more, and Close unparks every one of them at once.
func TestEventsLongPollGoroutines(t *testing.T) {
	const polls = 50
	srv := NewServer()
	RegisterFrontend(srv, entry.New(), cdn.NewStore(0), Directory{})
	addr, err := srv.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	errs := make(chan error, polls)
	clients := make([]*FrontendClient, polls)
	defer func() {
		srv.Close() // unparks every handler
		for _, f := range clients {
			f.Close()
		}
	}()
	for i := range clients {
		f := DialFrontend(addr)
		clients[i] = f
		go func() {
			_, _, err := f.WatchRounds(context.Background(), 0)
			errs <- err
		}()
	}
	// Wait until every poll holds its caller goroutine here and its
	// connection goroutine in the server, then give any further per-poll
	// goroutine time to show.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() < baseline+2*polls && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n, limit := runtime.NumGoroutine()-baseline, 2*polls+4; n > limit {
		t.Fatalf("%d parked long-polls added %d goroutines, want at most %d (the callers, one connection goroutine each, and a few)", polls, n, limit)
	}

	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with %d parked long-polls", d, polls)
	}
	for i := 0; i < polls; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a long-poll returned no error from a closed server")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d long-polls still parked after Close", polls-i)
		}
	}
}
