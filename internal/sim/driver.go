package sim

import (
	"context"
	"time"

	"alpenhorn/internal/wire"
)

// RoundDriver configures StartRounds, the timer-free round scheduler that
// lets examples and tests drive clients through Client.Run exactly as a
// deployment's entry daemon would — open, wait for submissions, close,
// publish — without wall-clock round intervals making them slow or flaky.
type RoundDriver struct {
	// Services to drive; default both (add-friend and dialing).
	Services []wire.Service

	// WaitSubmissions closes a round as soon as this many requests have
	// arrived, summed over every frontend (every connected Run client
	// submits each round, cover traffic included, through whichever
	// frontend its pool is on, so "number of clients" makes rounds
	// exactly as long as they need to be). 0 waits the full SubmitWindow.
	WaitSubmissions int

	// SubmitWindow bounds how long an open round waits for submissions
	// (default 10s — a deadline, not a pace: with WaitSubmissions set,
	// rounds close as soon as everyone has submitted).
	SubmitWindow time.Duration

	// OnError, when set, receives round open/close errors. Close errors
	// do not stop the driver (a failed round is skipped, like the entry
	// daemon); open errors do.
	OnError func(error)
}

// StartRounds drives rounds for each configured service on background
// goroutines until ctx is cancelled. Published-round announcements flow
// through the entry server's event log, so clients connected via
// Client.Run follow along with no polling.
func (n *Network) StartRounds(ctx context.Context, d RoundDriver) {
	if len(d.Services) == 0 {
		d.Services = []wire.Service{wire.AddFriend, wire.Dialing}
	}
	if d.SubmitWindow <= 0 {
		d.SubmitWindow = 10 * time.Second
	}
	for _, service := range d.Services {
		go n.driveService(ctx, service, d)
	}
}

func (n *Network) driveService(ctx context.Context, service wire.Service, d RoundDriver) {
	report := func(err error) {
		if d.OnError != nil && err != nil {
			d.OnError(err)
		}
	}
	for round := uint32(1); ctx.Err() == nil; round++ {
		var err error
		if service == wire.AddFriend {
			_, err = n.Coord.OpenAddFriendRound(round)
		} else {
			_, err = n.Coord.OpenDialingRound(round)
		}
		if err != nil {
			report(err)
			return
		}

		deadline := time.Now().Add(d.SubmitWindow)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			if d.WaitSubmissions > 0 && n.batchSize(service, round) >= d.WaitSubmissions {
				break
			}
			select {
			case <-ctx.Done():
			case <-time.After(2 * time.Millisecond):
			}
		}

		if _, err := n.Coord.CloseRound(service, round); err != nil {
			report(err)
		}
	}
}

// batchSize counts the round's submissions at every frontend: a client
// submits through whichever frontend its pool is on.
func (n *Network) batchSize(service wire.Service, round uint32) int {
	total := n.Entry.BatchSize(service, round)
	for _, e := range n.Frontends {
		total += e.BatchSize(service, round)
	}
	return total
}
