package entry

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"alpenhorn/internal/wire"
)

// awaitCondition polls until cond holds or the deadline passes.
func awaitCondition(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkWaiters starts n goroutines parked in WaitEvents at cursor and
// returns once every one has entered the call. Each sends its reply's
// event count on the returned channel.
func parkWaiters(ctx context.Context, s *Server, n int, cursor uint64) <-chan int {
	got := make(chan int, n)
	var entered sync.WaitGroup
	entered.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			entered.Done()
			events, _, _ := s.WaitEvents(ctx, cursor, 0)
			got <- len(events)
		}()
	}
	entered.Wait()
	return got
}

// TestWaiterFlatGoroutines pins what a tracked client costs the entry
// server: 10k callers parked in WaitEvents are their own 10k goroutines
// and the server adds none, one announcement returns every one of them,
// and cancelling parked callers returns the goroutine count to baseline.
func TestWaiterFlatGoroutines(t *testing.T) {
	const numWaiters = 10_000
	s := New()
	baseline := runtime.NumGoroutine()

	got := parkWaiters(context.Background(), s, numWaiters, 0)
	if n := runtime.NumGoroutine(); n > baseline+numWaiters+3 {
		t.Fatalf("%d goroutines with %d parked callers, baseline %d: the server added its own", n, numWaiters, baseline)
	}
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < numWaiters; i++ {
		select {
		case n := <-got:
			if n != 1 {
				t.Fatalf("a parked caller returned %d events, want the open announcement", n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked callers not returned by the announcement", numWaiters-i, numWaiters)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	_, next, _ := s.EventsSince(0, 0)
	got = parkWaiters(ctx, s, numWaiters, next)
	cancel()
	for i := 0; i < numWaiters; i++ {
		if n := <-got; n != 0 {
			t.Fatalf("a cancelled caller returned %d events", n)
		}
	}
	awaitCondition(t, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestWaiterSelectLoop pins the follow loop a client runs: a reader that
// re-parks from each returned next sees all five of five back-to-back
// opens, in order and with consecutive cursors, however the opens race
// its re-parking.
func TestWaiterSelectLoop(t *testing.T) {
	s := New()
	done := make(chan []Announcement, 1)
	go func() {
		var got []Announcement
		var cursor uint64
		for len(got) < 5 {
			events, next, gap := s.WaitEvents(context.Background(), cursor, 0)
			if gap {
				break
			}
			got = append(got, events...)
			cursor = next
		}
		done <- got
	}()
	for r := uint32(1); r <= 5; r++ {
		if err := s.OpenRound(testSettings(r)); err != nil {
			t.Fatal(err)
		}
	}
	var got []Announcement
	select {
	case got = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reader did not see five opens")
	}
	if len(got) != 5 {
		t.Fatalf("read %d events, want 5", len(got))
	}
	for i, ann := range got {
		if ann.Round != uint32(i+1) || ann.Kind != RoundOpen || ann.Cursor != got[0].Cursor+uint64(i) {
			t.Fatalf("event %d: %+v", i, ann)
		}
	}
}

// TestWaiterAwaitParksAndResumes pins WaitEvents' blocking: the caller
// stays parked until OpenRound announces, and a cancelled context
// returns no events and the caller's own cursor, so the next call resumes
// where this one started.
func TestWaiterAwaitParksAndResumes(t *testing.T) {
	s := New()
	done := make(chan []Announcement, 1)
	go func() {
		events, _, _ := s.WaitEvents(context.Background(), 0, 0)
		done <- events
	}()
	select {
	case events := <-done:
		t.Fatalf("WaitEvents returned %+v before any announcement", events)
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.OpenRound(testSettings(1)); err != nil {
		t.Fatal(err)
	}
	var next uint64
	select {
	case events := <-done:
		if len(events) != 1 || events[0].Round != 1 {
			t.Fatalf("awaited events: %+v", events)
		}
		next = events[0].Cursor
	case <-time.After(2 * time.Second):
		t.Fatal("WaitEvents did not wake on OpenRound")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if events, resume, gap := s.WaitEvents(ctx, next, 0); len(events) != 0 || resume != next || gap {
		t.Fatalf("cancelled wait: %d events, next %d (gap %v), want none and %d", len(events), resume, gap, next)
	}
}

// TestSubscribeDropsCounted pins that the log keeps no per-reader state:
// a reader parked at cursor 0 whose reply is never taken blocks none of
// 70 announcements, and a reader idle through all of them loses none.
func TestSubscribeDropsCounted(t *testing.T) {
	s := New()
	parkWaiters(context.Background(), s, 1, 0) // its reply is never read
	const opens = 70
	for r := uint32(1); r <= opens; r++ {
		if err := s.OpenRound(testSettings(r)); err != nil {
			t.Fatal(err)
		}
	}
	events, _, gap := s.EventsSince(0, 0)
	if gap || len(events) != opens {
		t.Fatalf("idle reader got %d events (gap %v), want all %d", len(events), gap, opens)
	}
	for i, ann := range events {
		if ann.Round != uint32(i+1) {
			t.Fatalf("event %d is round %d", i, ann.Round)
		}
	}
}

// BenchmarkEventFanout times one AnnouncePublished until every caller
// parked in WaitEvents has returned, at 10k and 100k parked callers: the
// wake cost of a frontend's tracked clients, one goroutine each.
func BenchmarkEventFanout(b *testing.B) {
	for _, numWaiters := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("waiters=%d", numWaiters), func(b *testing.B) {
			s := New()
			returned := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, cursor, _ := s.EventsSince(0, 0)
				got := parkWaiters(context.Background(), s, numWaiters, cursor)
				time.Sleep(10 * time.Millisecond) // let the callers reach their select
				b.StartTimer()
				s.AnnouncePublished(wire.Dialing, uint32(i+1))
				for j := 0; j < numWaiters; j++ {
					returned += <-got
				}
			}
			if want := b.N * numWaiters; returned != want {
				b.Fatalf("parked callers returned %d events, want %d", returned, want)
			}
		})
	}
}
