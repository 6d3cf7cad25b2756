package entry

import (
	"bytes"
	"context"
	"errors"
	mathrand "math/rand"
	"reflect"
	"testing"
	"time"

	"alpenhorn/internal/wire"
)

func testSettings(round uint32) *wire.RoundSettings {
	return &wire.RoundSettings{
		Service:      wire.Dialing,
		Round:        round,
		NumMailboxes: 1,
		Mixers: []wire.MixerRoundKey{
			{OnionKey: make([]byte, 32), Sig: make([]byte, 64)},
			{OnionKey: make([]byte, 32), Sig: make([]byte, 64)},
		},
	}
}

func TestRoundLifecycle(t *testing.T) {
	s := New()
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Settings(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 1 {
		t.Fatal("wrong settings")
	}

	onion := make([]byte, wire.OnionSize(wire.Dialing, 2))
	if err := s.Submit(wire.Dialing, 1, onion); err != nil {
		t.Fatal(err)
	}
	if s.BatchSize(wire.Dialing, 1) != 1 {
		t.Fatal("batch size wrong")
	}
	batch, err := s.CloseRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || !bytes.Equal(batch[0], onion) {
		t.Fatal("batch contents wrong")
	}
	// After close, submissions fail.
	if err := s.Submit(wire.Dialing, 1, onion); err == nil {
		t.Fatal("submission accepted after close")
	}
	// Double close fails.
	if _, err := s.CloseRound(wire.Dialing, 1); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New()
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	// Unknown round.
	if err := s.Submit(wire.Dialing, 99, make([]byte, 10)); err == nil {
		t.Fatal("unknown round accepted")
	}
	// Wrong size: metadata-safe batching requires exact sizes.
	if err := s.Submit(wire.Dialing, 1, make([]byte, 10)); err == nil {
		t.Fatal("wrong-size onion accepted")
	}
	if err := s.Submit(wire.Dialing, 1, make([]byte, wire.OnionSize(wire.Dialing, 2)+1)); err == nil {
		t.Fatal("oversized onion accepted")
	}
}

func TestMaxBatch(t *testing.T) {
	s := New()
	s.MaxBatch = 2
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	onion := make([]byte, wire.OnionSize(wire.Dialing, 2))
	for i := 0; i < 2; i++ {
		if err := s.Submit(wire.Dialing, 1, onion); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow is an admission signal, not a generic failure: clients
	// detect it with errors.Is and retry next round.
	if err := s.Submit(wire.Dialing, 1, onion); !errors.Is(err, ErrRoundFull) {
		t.Fatalf("batch overflow: got %v, want ErrRoundFull", err)
	}
	// The deferral does not disturb the round: the admitted batch closes
	// normally at its cap.
	batch, err := s.CloseRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batch size %d after deferrals, want 2", len(batch))
	}
}

// TestSubscribeAnnouncements pins what a reader of the log receives: an
// open and a publish, in order, with consecutive cursors, and the open
// carrying the round's settings.
func TestSubscribeAnnouncements(t *testing.T) {
	s := New()
	if err := s.OpenRound(testSettings(5)); err != nil {
		t.Fatal(err)
	}
	s.AnnouncePublished(wire.Dialing, 5)
	got, next, gap := s.WaitEvents(context.Background(), 0, 0)
	if len(got) != 2 || gap {
		t.Fatalf("read %d announcements (gap %v), want 2", len(got), gap)
	}
	if got[0].Kind != RoundOpen || got[0].Round != 5 || got[0].Settings == nil || got[0].Settings.Round != 5 {
		t.Fatalf("open announcement: %+v", got[0])
	}
	if got[1].Kind != RoundPublished || got[1].Round != 5 {
		t.Fatalf("published announcement: %+v", got[1])
	}
	// Cursors are consecutive: no gap means nothing was missed.
	if got[1].Cursor != got[0].Cursor+1 || next != got[1].Cursor {
		t.Fatalf("cursors %d then %d, next %d", got[0].Cursor, got[1].Cursor, next)
	}
}

// TestSubscriberGapDetectAndRefill pins resumption: a reader idle for 70
// announcements resumes from its cursor with every one of them, in order
// and with no gap, and a reader left behind the retained window gets the
// coalesced snapshot with gap set.
func TestSubscriberGapDetectAndRefill(t *testing.T) {
	s := New()
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	_, cursor, _ := s.EventsSince(0, 0)
	for r := uint32(2); r <= 71; r++ {
		if err := s.OpenRound(testSettings(r)); err != nil {
			t.Fatal(err)
		}
	}
	refill, next, gap := s.EventsSince(cursor, 0)
	if gap || len(refill) != 70 {
		t.Fatalf("idle reader resumed with %d events (gap %v), want 70", len(refill), gap)
	}
	for i, ann := range refill {
		if ann.Cursor != cursor+uint64(i)+1 || ann.Round != uint32(i+2) {
			t.Fatalf("refill event %d: %+v", i, ann)
		}
	}
	if next != refill[len(refill)-1].Cursor {
		t.Fatal("resume cursor does not match last refilled event")
	}

	for r := uint32(72); r <= eventLogSize+72; r++ {
		if err := s.OpenRound(testSettings(r)); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, gap := s.EventsSince(next, 0)
	if !gap || len(snap) != 1 || snap[0].Round != eventLogSize+72 {
		t.Fatalf("reader behind the window got %+v (gap %v), want the newest open with gap", snap, gap)
	}
}

// TestStatusFoldsEvents pins that a reader can fold round progress from
// the log: the full replay and the coalesced snapshot give the same
// newest open and newest published round.
func TestStatusFoldsEvents(t *testing.T) {
	fold := func(events []Announcement) RoundStatus {
		var st RoundStatus
		for _, ann := range events {
			switch ann.Kind {
			case RoundOpen:
				st.CurrentOpen = max(st.CurrentOpen, ann.Round)
			case RoundPublished:
				st.LatestPublished = max(st.LatestPublished, ann.Round)
			}
		}
		return st
	}
	s := New()
	if events, _, _ := s.EventsSince(0, 0); len(events) != 0 {
		t.Fatalf("fresh log: %+v", events)
	}
	for r := uint32(1); r <= 3; r++ {
		if err := s.OpenRound(testSettings(r)); err != nil {
			t.Fatal(err)
		}
	}
	s.AnnouncePublished(wire.Dialing, 2)
	replay, _, _ := s.EventsSince(0, 0)
	// A cursor past the head (a previous log incarnation's) gets the
	// coalesced snapshot.
	snap, _, _ := s.EventsSince(1<<40, 0)
	if len(snap) != 2 {
		t.Fatalf("coalesced snapshot holds %d events, want one open and one publish", len(snap))
	}
	want := RoundStatus{CurrentOpen: 3, LatestPublished: 2}
	if st := fold(replay); st != want {
		t.Fatalf("replay folds to %+v, want %+v", st, want)
	}
	if st := fold(snap); st != want {
		t.Fatalf("snapshot folds to %+v, want %+v", st, want)
	}
}

// TestEventsSinceCoalesces pins the late-joiner behaviour: a zero cursor
// (or one that fell off the retained window) gets the newest event per
// (service, kind) instead of a replay of the whole log.
func TestEventsSinceCoalesces(t *testing.T) {
	s := New()
	for r := uint32(1); r <= eventLogSize+50; r++ {
		if err := s.OpenRound(testSettings(r)); err != nil {
			t.Fatal(err)
		}
		s.AnnouncePublished(wire.Dialing, r)
	}
	// Fresh consumer: snapshot, no gap flag.
	events, next, gap := s.EventsSince(0, 0)
	if gap {
		t.Fatal("fresh consumer flagged as gapped")
	}
	if len(events) != 2 {
		t.Fatalf("coalesced snapshot has %d events, want 2", len(events))
	}
	byKind := map[EventKind]uint32{}
	for _, e := range events {
		byKind[e.Kind] = e.Round
	}
	if byKind[RoundOpen] != eventLogSize+50 || byKind[RoundPublished] != eventLogSize+50 {
		t.Fatalf("snapshot rounds: %v", byKind)
	}
	if next != s.events[len(s.events)-1].Cursor {
		t.Fatal("snapshot resume cursor is not the newest")
	}
	// A cursor that fell off the window IS flagged as a gap.
	if _, _, gap := s.EventsSince(1, 0); !gap {
		t.Fatal("evicted cursor not flagged as gap")
	}
	// Resuming from next returns nothing new.
	if events, _, _ := s.EventsSince(next, 0); len(events) != 0 {
		t.Fatalf("resume from head returned %d events", len(events))
	}
}

// TestEventsSinceStaleFutureCursor pins restart behaviour: a cursor from a
// previous log incarnation (larger than anything in the fresh log) gets
// the coalesced snapshot and the CURRENT head cursor, instead of parking
// until the new log outgrows the stale number.
func TestEventsSinceStaleFutureCursor(t *testing.T) {
	s := New()
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	events, next, gap := s.EventsSince(9999, 0)
	if !gap {
		t.Fatal("stale future cursor not flagged as gap")
	}
	if len(events) != 1 || events[0].Round != 1 {
		t.Fatalf("stale-cursor snapshot: %+v", events)
	}
	if next != events[0].Cursor {
		t.Fatalf("resume cursor %d, want current head %d", next, events[0].Cursor)
	}
}

func TestWaitEvents(t *testing.T) {
	s := New()
	done := make(chan []Announcement, 1)
	go func() {
		events, _, _ := s.WaitEvents(context.Background(), 0, 0)
		done <- events
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case events := <-done:
		if len(events) != 1 || events[0].Round != 1 || events[0].Kind != RoundOpen {
			t.Fatalf("waited events: %+v", events)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitEvents did not wake on OpenRound")
	}

	// Context cancellation unparks with no events and an unchanged cursor.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	events, next, _ := s.WaitEvents(ctx, 1, 0)
	if len(events) != 0 || next != 1 {
		t.Fatalf("cancelled wait: %d events, next %d", len(events), next)
	}
}

func TestDuplicateOpenRejected(t *testing.T) {
	s := New()
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenRound(testSettings(1)); err == nil {
		t.Fatal("duplicate open accepted")
	}
}

func TestBatchIsCopied(t *testing.T) {
	// The entry server must own its copy: a client mutating its buffer
	// after Submit must not corrupt the batch.
	s := New()
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	onion := make([]byte, wire.OnionSize(wire.Dialing, 2))
	onion[0] = 42
	if err := s.Submit(wire.Dialing, 1, onion); err != nil {
		t.Fatal(err)
	}
	onion[0] = 99
	batch, _ := s.CloseRound(wire.Dialing, 1)
	if batch[0][0] != 42 {
		t.Fatal("batch aliases caller buffer")
	}
}

// FuzzEventLog holds the one read to its contract. A seeded sequence of
// opens and publishes (duplicated, out of order, or for rounds never
// opened) runs over both services, past eventLogSize, against a model
// of the full log, in which an announcement roundsKept or more rounds
// below its service's newest is refused and logs nothing; then
// EventsSince and WaitEvents read at arbitrary cursors and bounds. Every
// reply has strictly increasing cursors, past the reader's unless gap is
// set; next is the last returned cursor; a reply with no gap is exactly
// the model's events after the cursor; a coalesced reply holds at most
// one event per (service, kind), each the newest of its kind; and
// WaitEvents returns what EventsSince does whenever events are pending.
func FuzzEventLog(f *testing.F) {
	f.Add(int64(1), uint16(40), []byte{0, 0, 0, 0, 5, 3, 1, 0, 0x80})
	f.Add(int64(2), uint16(575), []byte{0, 0, 0, 0, 1, 2, 0xff, 0xff, 0x81, 1, 0x40, 0x0f})
	f.Add(int64(3), uint16(0), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, reads []byte) {
		s := New()
		var model []Announcement // every event ever logged; model[i].Cursor == i+1
		type roundKey struct {
			service wire.Service
			round   uint32
		}
		opened := map[wire.Service]uint32{}
		newest := map[wire.Service]uint32{}
		published := map[roundKey]bool{}
		// announce reports whether the model takes an announcement of
		// round, moving its service's newest round.
		announce := func(service wire.Service, round uint32) bool {
			if n := newest[service]; round < n && n-round >= roundsKept {
				return false
			}
			newest[service] = max(newest[service], round)
			return true
		}
		rng := mathrand.New(mathrand.NewSource(seed))
		for i := 0; i < int(steps)%(2*eventLogSize+64); i++ {
			service := []wire.Service{wire.AddFriend, wire.Dialing}[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				opened[service]++
				settings := testSettings(opened[service])
				settings.Service = service
				err := s.OpenRound(settings)
				if !announce(service, opened[service]) {
					if err == nil {
						t.Fatalf("%v round %d opened below the horizon of round %d", service, opened[service], newest[service])
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				model = append(model, Announcement{Service: service, Round: opened[service], Kind: RoundOpen})
				continue
			}
			// Publish a recent round, sometimes again; before the second
			// open this wraps to a round never opened, whose number puts
			// every round opened after it below the horizon.
			round := opened[service] - uint32(rng.Intn(3))
			s.AnnouncePublished(service, round)
			if _, err := s.Settings(service, round); round > opened[service] && err == nil {
				t.Fatalf("publishing never-opened %v round %d made it announced", service, round)
			}
			if k := (roundKey{service, round}); announce(service, round) && !published[k] {
				published[k] = true
				model = append(model, Announcement{Service: service, Round: round, Kind: RoundPublished})
			}
		}
		head := uint64(len(model))
		windowStart := uint64(1)
		if head > eventLogSize {
			windowStart = head - eventLogSize + 1
		}

		// Every run reads at the window's edges and the head, then where
		// the input says.
		type read struct {
			cursor uint64
			max    int
		}
		var plan []read
		for _, cursor := range []uint64{0, windowStart - 2, windowStart - 1, windowStart, head - 1, head, head + 1} {
			plan = append(plan, read{cursor, 0}, read{cursor, 1})
		}
		for ; len(reads) >= 3; reads = reads[3:] {
			cursor := uint64(reads[0])<<8 | uint64(reads[1])
			if reads[2]&0x80 != 0 {
				cursor += head // past the head: a previous incarnation's cursor
			} else {
				cursor %= head + 2
			}
			plan = append(plan, read{cursor, int(reads[2] & 0x0f)})
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for _, r := range plan {
			cursor, max := r.cursor, r.max
			events, next, gap := s.EventsSince(cursor, max)
			wEvents, wNext, wGap := s.WaitEvents(cancelled, cursor, max)
			if len(events) > 0 && (!reflect.DeepEqual(events, wEvents) || next != wNext || gap != wGap) {
				t.Fatalf("cursor %d max %d: WaitEvents %+v/%d/%v, EventsSince %+v/%d/%v", cursor, max, wEvents, wNext, wGap, events, next, gap)
			}
			if len(events) == 0 {
				if len(wEvents) != 0 || next != cursor || wNext != cursor || gap || wGap {
					t.Fatalf("cursor %d: empty reply next %d gap %v, WaitEvents %d events next %d", cursor, next, gap, len(wEvents), wNext)
				}
				if cursor < head && cursor+1 >= windowStart {
					t.Fatalf("cursor %d of head %d: no events returned", cursor, head)
				}
				continue
			}
			if max > 0 && len(events) > max {
				t.Fatalf("cursor %d: %d events past max %d", cursor, len(events), max)
			}
			for i, ann := range events {
				if i > 0 && ann.Cursor <= events[i-1].Cursor {
					t.Fatalf("cursor %d: cursors not increasing: %+v", cursor, events)
				}
				if !gap && ann.Cursor <= cursor {
					t.Fatalf("cursor %d: returned event %d at or before it without gap", cursor, ann.Cursor)
				}
				m := model[ann.Cursor-1]
				if ann.Service != m.Service || ann.Round != m.Round || ann.Kind != m.Kind {
					t.Fatalf("event %+v, model logged %+v", ann, m)
				}
			}
			if next != events[len(events)-1].Cursor {
				t.Fatalf("cursor %d: next %d, last returned %d", cursor, next, events[len(events)-1].Cursor)
			}
			coalesced := cursor > head || cursor+1 < windowStart
			if !coalesced {
				if gap {
					t.Fatalf("cursor %d within the window (from %d) flagged gap", cursor, windowStart)
				}
				for i, ann := range events {
					if ann.Cursor != cursor+uint64(i)+1 {
						t.Fatalf("cursor %d: event %d has cursor %d, want %d", cursor, i, ann.Cursor, cursor+uint64(i)+1)
					}
				}
				if max == 0 && next != head {
					t.Fatalf("cursor %d: unbounded read stopped at %d of head %d", cursor, next, head)
				}
				continue
			}
			if gap != (cursor > 0) {
				t.Fatalf("cursor %d behind or past the log: gap %v", cursor, gap)
			}
			type kindKey struct {
				service wire.Service
				kind    EventKind
			}
			seen := map[kindKey]bool{}
			for _, ann := range events {
				k := kindKey{ann.Service, ann.Kind}
				if seen[k] {
					t.Fatalf("cursor %d: coalesced reply holds two %v %v events: %+v", cursor, ann.Service, ann.Kind, events)
				}
				seen[k] = true
				for _, later := range model[ann.Cursor:] {
					if later.Service == ann.Service && later.Kind == ann.Kind {
						t.Fatalf("cursor %d: coalesced %+v is not the newest of its kind", cursor, ann)
					}
				}
			}
		}
	})
}
