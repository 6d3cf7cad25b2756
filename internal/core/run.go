package core

// This file is the client's managed round loop: the event-driven
// connection behind the paper's Figure 1 API. Applications call Run and
// receive everything through their Handler; the library owns the
// mechanics that every consumer would otherwise hand-roll:
//
//   - Round following. One goroutine follows the frontend's round
//     announcements through EntryServer.WatchRounds (the entry.events
//     stream, resumable by cursor) and reconnects with exponential backoff
//     when the frontend dies mid-round.
//   - Submit ordering. Each open round is submitted exactly once
//     (cover traffic included), and a round's add-friend mailbox is only
//     scanned when this client submitted that round (the identity keys
//     exist only then). One Run per client: a second concurrent call
//     returns ErrRunning instead of submitting every round again.
//   - The bounded dialing backlog. Published rounds queue through
//     QueueDialScans and drain OLDEST-FIRST in consecutive spans, each
//     span fetched with one ranged CDN request instead of per-round
//     fetches.
//   - The §5.1 give-up policy. A dialing round whose mailbox cannot be
//     fetched is retried on a TIME budget (DefaultScanRetryBudget); when
//     the budget runs out the keywheels advance past the round (forward
//     secrecy) and the loop moves on, so one evicted mailbox cannot
//     wedge scanning forever.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

const (
	// stepRetryInterval paces the retry of a submit or scan that failed
	// (the round state that prompted it has not changed, so nothing else
	// would wake the loop).
	stepRetryInterval = 500 * time.Millisecond

	// DefaultScanRetryBudget is how long a failing scan is retried before
	// the loop gives up: a dialing round's keywheels advance past it, and
	// an add-friend round's held submissions resume. §5.1's give-up is
	// "after some time" — giving up destroys that round's incoming calls,
	// so the budget errs long; it also bounds the head-of-line stall a
	// CDN-evicted round can cause.
	DefaultScanRetryBudget = 5 * time.Minute

	// feedBackoffMin/Max bound the reconnect backoff when the round feed
	// loses the frontend.
	feedBackoffMin = 200 * time.Millisecond
	feedBackoffMax = 5 * time.Second

	// maxScanSpan bounds how many consecutive backlog rounds one ranged
	// mailbox fetch covers.
	maxScanSpan = 32
)

// ErrRunning is returned by Run when another Run call on the same client
// has not returned yet: two loops would submit every round twice.
var ErrRunning = errors.New("core: client is already running")

// roundFeed is the round-announcement state Run's service loops share. It
// folds announcements into a monotonic per-service RoundStatus and wakes
// waiting loops on every change.
type roundFeed struct {
	mu      sync.Mutex
	state   map[wire.Service]entry.RoundStatus
	changed chan struct{} // closed and replaced on every state change
}

// status returns a snapshot of one service's folded round progress plus
// the channel that closes on the next state change.
func (f *roundFeed) status(service wire.Service) (entry.RoundStatus, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state[service], f.changed
}

// fold merges new round progress into the state as ONE state change: the
// per-service maxima land together and waiting loops are woken once, so a
// loop never acts on half of a reply (a replayed backlog of six published
// rounds is one span to drain, not a first round and then the rest).
// Progress is monotonic: folding with max makes coalesced (gap) replies and
// duplicate announcements harmless.
func (f *roundFeed) fold(progress map[wire.Service]entry.RoundStatus) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dirty := false
	for service, st := range progress {
		cur := f.state[service]
		if st.CurrentOpen > cur.CurrentOpen {
			cur.CurrentOpen = st.CurrentOpen
			dirty = true
		}
		if st.LatestPublished > cur.LatestPublished {
			cur.LatestPublished = st.LatestPublished
			dirty = true
		}
		f.state[service] = cur
	}
	if dirty {
		close(f.changed)
		f.changed = make(chan struct{})
	}
}

// Run is the managed, event-driven connection from the paper's Figure 1:
// it participates in every add-friend and dialing round — cover traffic
// included, which is what hides the user's real activity — until ctx is
// cancelled, delivering all events through the configured Handler. It
// follows the frontend's round announcements on one goroutine and runs
// each service's loop on another, and returns ctx.Err() once all three
// have exited; cancellation mid-round interrupts in-flight server calls
// rather than waiting them out. A client runs one loop at a time: a call
// made while another Run is active returns ErrRunning at once.
func (c *Client) Run(ctx context.Context) error {
	if !c.running.CompareAndSwap(false, true) {
		return ErrRunning
	}
	defer c.running.Store(false)
	feed := &roundFeed{
		state:   make(map[wire.Service]entry.RoundStatus),
		changed: make(chan struct{}),
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		c.followRounds(ctx, feed)
	}()
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		service := service
		go func() {
			defer wg.Done()
			c.serviceLoop(ctx, feed, service)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// followRounds follows the frontend until ctx ends: it parks on
// WatchRounds and folds each announcement batch into the feed. Transport
// failures reconnect with exponential backoff and are reported to the
// handler once per outage, not once per attempt.
func (c *Client) followRounds(ctx context.Context, f *roundFeed) {
	var cursor uint64
	backoff := feedBackoffMin
	outage := 0
	for ctx.Err() == nil {
		anns, next, err := c.cfg.Entry.WatchRounds(ctx, cursor)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if outage++; outage == 1 {
				c.reportErr(fmt.Errorf("core: round event stream lost: %w (reconnecting)", err))
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > feedBackoffMax {
				backoff = feedBackoffMax
			}
			continue
		}
		cursor = next
		backoff, outage = feedBackoffMin, 0
		progress := make(map[wire.Service]entry.RoundStatus, 2)
		for _, ann := range anns {
			st := progress[ann.Service]
			switch ann.Kind {
			case entry.RoundOpen:
				st.CurrentOpen = max(st.CurrentOpen, ann.Round)
				// The settings riding the open event pre-fill the cache
				// BEFORE the fold wakes the service loops, so their
				// submits start from a hit.
				c.noteAnnouncedSettings(ann)
			case entry.RoundPublished:
				st.LatestPublished = max(st.LatestPublished, ann.Round)
			}
			progress[ann.Service] = st
		}
		f.fold(progress)
	}
}

// serviceState is one service loop's progress bookkeeping.
type serviceState struct {
	lastSubmit uint32
	lastScan   uint32
	errStreak  int

	// §5.1 retry budget for the round whose scan keeps failing — the
	// dialing round at the backlog head, or the published add-friend
	// round gating further submissions. One round+deadline pair (not a
	// per-round map, which would leak entries for rounds the backlog cap
	// later drops).
	retryRound    uint32
	retryDeadline time.Time
	retryLogged   bool
}

// serviceLoop drives one service until ctx ends, working whenever the
// feed's state changes (or a retry delay expires) and parking otherwise.
func (c *Client) serviceLoop(ctx context.Context, feed *roundFeed, service wire.Service) {
	var st serviceState
	for {
		snap, changed := feed.status(service)
		var retry time.Duration
		if service == wire.AddFriend {
			retry = c.stepAddFriend(ctx, &st, snap)
		} else {
			retry = c.stepDialing(ctx, &st, snap)
		}
		if ctx.Err() != nil {
			return
		}
		var timer <-chan time.Time
		if retry > 0 {
			timer = time.After(retry)
		}
		select {
		case <-ctx.Done():
			return
		case <-changed:
		case <-timer:
		}
	}
}

// stepAddFriend performs whatever the add-friend round state calls for and
// returns a retry delay (0 = nothing pending; park until the state
// changes).
func (c *Client) stepAddFriend(ctx context.Context, st *serviceState, snap entry.RoundStatus) time.Duration {
	// Scan BEFORE submitting: a reconnecting client often learns
	// publish(N) and open(N+1) in one snapshot (coalesced events), and
	// submitting N+1 first would gate round N's scan off forever — losing
	// any friend requests it carried.
	// Scan only rounds this client submitted: the round's identity keys
	// exist exactly then (and are erased by the scan).
	if snap.LatestPublished > st.lastScan && snap.LatestPublished == st.lastSubmit {
		round := snap.LatestPublished
		if err := c.ScanAddFriendRound(ctx, round); err != nil {
			// A transiently unavailable mailbox gets the same time budget
			// as a dialing scan: submitting the next round would
			// permanently gate this scan off, so HOLD further submissions
			// while the retry budget runs, then give the round up and
			// move on.
			if ctx.Err() != nil {
				return 0
			}
			if round != st.retryRound {
				st.retryRound = round
				st.retryDeadline = time.Now().Add(c.scanRetryBudget)
				st.retryLogged = false
			}
			if !time.Now().After(st.retryDeadline) {
				if !st.retryLogged {
					c.reportErr(fmt.Errorf("core: add-friend round %d scan: %w (retrying for up to %v)", round, err, c.scanRetryBudget))
					st.retryLogged = true
				}
				return stepRetryInterval
			}
			c.reportErr(fmt.Errorf("core: add-friend round %d scan: %w (giving up after %v)", round, err, c.scanRetryBudget))
		} else {
			st.errStreak = 0
		}
		st.lastScan = round
		st.retryRound = 0
	}
	if snap.CurrentOpen > st.lastSubmit {
		if err := c.SubmitAddFriendRound(ctx, snap.CurrentOpen); err != nil {
			return c.reportStep(ctx, st, "add-friend", snap.CurrentOpen, err)
		}
		st.lastSubmit = snap.CurrentOpen
		st.errStreak = 0
		// Rounds below the new submission can never be scanned now; their
		// cached identity keys must not outlive them (§4.4). Covers failed
		// rounds (never published) and scans the budget gave up on.
		c.discardStaleRoundKeys(snap.CurrentOpen)
	}
	return 0
}

// stepDialing submits the open dialing round, queues every published
// round into the scan backlog and drains it, returning the sooner of the
// two phases' retry delays (0 = nothing pending). The phases are
// independent: a submit that keeps failing (the round may simply have
// closed before we saw it) must not starve the backlog drain.
func (c *Client) stepDialing(ctx context.Context, st *serviceState, snap entry.RoundStatus) time.Duration {
	var retry time.Duration
	if snap.CurrentOpen > st.lastSubmit {
		if err := c.SubmitDialRound(ctx, snap.CurrentOpen); err != nil {
			retry = c.reportStep(ctx, st, "dialing", snap.CurrentOpen, err)
		} else {
			st.lastSubmit = snap.CurrentOpen
			st.errStreak = 0
		}
	}
	if snap.LatestPublished > 0 {
		c.QueueDialScans(snap.LatestPublished)
	}
	if d := c.drainDialBacklog(ctx, st); d > 0 && (retry == 0 || d < retry) {
		retry = d
	}
	return retry
}

// reportStep reports a failing submit once per streak and paces the
// retry. The failed round stays un-acknowledged in the loop state, so the
// next step retries it until the frontend moves on.
func (c *Client) reportStep(ctx context.Context, st *serviceState, service string, round uint32, err error) time.Duration {
	if ctx.Err() != nil {
		return 0
	}
	if st.errStreak++; st.errStreak == 1 {
		c.reportErr(fmt.Errorf("core: %s round %d submit: %w (will retry)", service, round, err))
	}
	return stepRetryInterval
}

// drainDialBacklog scans queued published rounds oldest-first. A span of
// consecutive rounds is PEEKED (each round leaves the crash-persistent
// backlog only when its scan completes, so a restart mid-span resumes
// exactly where it stopped) and its mailboxes fetched with ONE ranged CDN
// request; a round that cannot be scanned is retried on the §5.1 time
// budget and then skipped (keywheels advanced) so the backlog keeps
// draining in order. A failure in the middle of a span never blocks the
// rounds before it: the scannable prefix is processed first and the
// failing round handles its budget when it reaches the head.
func (c *Client) drainDialBacklog(ctx context.Context, st *serviceState) time.Duration {
	for {
		span := c.peekDialScanSpan(maxScanSpan)
		if len(span) == 0 {
			return 0
		}

		// Per-round settings: NumMailboxes (and so this client's mailbox
		// ID) can differ between rounds. Usually a cache hit — the round's
		// open announcement or submit already delivered them.
		var failed error
		mailboxes := make([]uint32, 0, len(span))
		for _, round := range span {
			settings, err := c.roundSettings(ctx, wire.Dialing, round, false)
			if err != nil {
				failed = fmt.Errorf("core: dialing round %d settings: %w", round, err)
				break
			}
			mailboxes = append(mailboxes, wire.MailboxID(c.cfg.Email, settings.NumMailboxes))
		}
		if len(mailboxes) == 0 {
			return c.scanFailed(ctx, st, span[0], failed)
		}
		span = span[:len(mailboxes)] // scan the working prefix first

		// Fetch the span's mailboxes: one ranged request per run of equal
		// mailbox IDs, a run of one round included.
		boxes := make(map[uint32][]byte, len(span))
		fetched := len(span)
		for lo := 0; lo < len(span); {
			hi := lo + 1
			for hi < len(span) && mailboxes[hi] == mailboxes[lo] {
				hi++
			}
			ranged, err := c.cfg.Mailboxes.FetchRange(ctx, wire.Dialing, span[lo], span[hi-1], mailboxes[lo])
			if err != nil {
				failed = fmt.Errorf("core: ranged mailbox fetch rounds %d-%d: %w", span[lo], span[hi-1], err)
				fetched = lo
				break
			}
			for r, box := range ranged {
				boxes[r] = box
			}
			lo = hi
		}
		if fetched == 0 {
			return c.scanFailed(ctx, st, span[0], failed)
		}
		span = span[:fetched]

		for _, round := range span {
			box, ok := boxes[round]
			if !ok {
				return c.scanFailed(ctx, st, round, fmt.Errorf("core: dialing round %d mailbox unavailable", round))
			}
			if err := c.scanDialBox(round, box); err != nil {
				return c.scanFailed(ctx, st, round, fmt.Errorf("core: dialing round %d scan: %w", round, err))
			}
			c.finishDialScan(round)
			if round == st.retryRound {
				st.retryRound = 0 // the struggling round made it after all
			}
		}
	}
}

// scanFailed applies the §5.1 policy to a round that could not be
// scanned. Every round before it in the span has already been scanned
// and removed, so the failing round is at the backlog head: retry within
// the time budget, then give up — advance the keywheels past the round
// (destroying its calls, preserving forward secrecy), drop it from the
// backlog, and keep draining.
func (c *Client) scanFailed(ctx context.Context, st *serviceState, round uint32, err error) time.Duration {
	if ctx.Err() != nil {
		return 0
	}
	if round != st.retryRound {
		st.retryRound = round
		st.retryDeadline = time.Now().Add(c.scanRetryBudget)
		st.retryLogged = false
	}
	if time.Now().After(st.retryDeadline) {
		c.reportErr(fmt.Errorf("%w (giving up after %v, advancing keywheels)", err, c.scanRetryBudget))
		c.SkipDialRound(round)
		c.finishDialScan(round)
		st.retryRound = 0
		// More backlog may be scannable right now.
		return time.Nanosecond
	}
	if !st.retryLogged {
		c.reportErr(fmt.Errorf("%w (retrying for up to %v)", err, c.scanRetryBudget))
		st.retryLogged = true
	}
	return stepRetryInterval
}
