package entry_test

import (
	"testing"

	"alpenhorn/internal/core"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// TestServerForgetsOldRounds runs 3·W rounds of each service through one
// server, W = RoundsKept, which must cover a client's whole dial backlog
// and the round after it. The server holds at most W+1 rounds of a
// service at any time; the newest W rounds' settings are served and older
// ones refused; and an announcement of a forgotten round changes nothing.
func TestServerForgetsOldRounds(t *testing.T) {
	w := entry.RoundsKept
	if w < core.DefaultMaxDialBacklog+1 {
		t.Fatalf("a server keeps %d rounds, fewer than a client's dial backlog of %d and the round after it", w, core.DefaultMaxDialBacklog)
	}
	services := []wire.Service{wire.AddFriend, wire.Dialing}
	s := entry.New()
	last := uint32(3 * w)
	for r := uint32(1); r <= last; r++ {
		for _, service := range services {
			if err := s.OpenRound(&wire.RoundSettings{Service: service, Round: r, NumMailboxes: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CloseRound(service, r); err != nil {
				t.Fatal(err)
			}
			s.AnnouncePublished(service, r)
			if held := s.RoundsHeld(service); held > w+1 {
				t.Fatalf("after %v round %d the server holds %d rounds, want at most %d", service, r, held, w+1)
			}
		}
	}
	for _, service := range services {
		for r := uint32(1); r <= last; r++ {
			_, err := s.Settings(service, r)
			if kept := r+uint32(w) > last; kept != (err == nil) {
				t.Errorf("%v round %d of %d: settings error %v, want served %v", service, r, last, err, kept)
			}
		}
		_, head, _ := s.EventsSince(0, 0)
		old := last - uint32(w)
		if err := s.OpenRound(&wire.RoundSettings{Service: service, Round: old, NumMailboxes: 1}); err == nil {
			t.Errorf("%v round %d opened again after it was forgotten", service, old)
		}
		s.AnnouncePublished(service, old)
		if _, next, _ := s.EventsSince(0, 0); next != head {
			t.Errorf("announcing forgotten %v round %d moved the log head from %d to %d", service, old, head, next)
		}
		if held := s.RoundsHeld(service); held > w+1 {
			t.Errorf("announcing forgotten %v round %d left %d rounds held", service, old, held)
		}
	}
}
