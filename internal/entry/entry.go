// Package entry implements Alpenhorn's entry server (§7).
//
// The entry server is UNTRUSTED: it manages client connections, announces
// round settings, and aggregates each round's client onions into a single
// batch for the mixnet. It sees only fixed-size ciphertexts — one per
// client per round, real or cover — so a malicious entry server learns
// nothing beyond liveness, and a censoring one can only mount denial of
// service (which Alpenhorn explicitly does not defend against, §3.2).
//
// # Event log
//
// Round progress is published as an EVENT LOG: every round-opened and
// round-published announcement gets a monotonic cursor. Consumers follow
// it three ways, all built on the same log:
//
//   - Subscribe returns a buffered channel of announcements. A slow
//     subscriber misses deliveries rather than blocking the system; every
//     announcement carries its cursor, so a gap is DETECTABLE (cursor
//     jump) and refillable with EventsSince, and the server counts the
//     drops per service (RoundStatus.EventDrops).
//   - EventsSince(cursor, max) replays retained events after a cursor.
//     When the cursor has fallen off the retained window (or is zero — a
//     fresh consumer), the reply COALESCES to the newest event per
//     (service, kind): round progress is monotonic, so the latest open
//     and latest published round are all a late joiner needs.
//   - Register returns a Waiter — the push primitive described below.
//     WaitEvents is its one-shot convenience form (register, await,
//     deregister), which the in-process sim transport rides on.
//
// # Single-writer fan-out
//
// The push path is built for very large client counts: delivering an
// announcement to N tracked clients must not cost N parked goroutines.
// A consumer registers a Waiter — a small struct holding its log cursor
// and a 1-slot wake channel — and ONE fan-out goroutine per server (so
// one per frontend process, started when the first waiter registers and
// exited when the last deregisters) walks the waiter list after each
// announcement, tapping the wake channel of every waiter whose cursor is
// behind the new head. Waking any number of waiters therefore costs one
// list walk on one goroutine — a non-blocking channel send per waiter —
// instead of a scheduler wakeup storm, and a waiter consumes events at
// its own pace with Poll (or parks its own goroutine in Await, if it has
// one to spare). The wake channel never carries data, so a slow waiter
// costs one bit of state, never memory growth.
//
// # Replication
//
// A deployment runs N entry frontends against one coordinator, and the
// coordinator is the log's SINGLE WRITER: it announces every round open
// and publish to every frontend in the same order, so all replicas stamp
// identical cursors and the frontends share one cursor namespace. A
// client that loses its frontend mid-round can resume on any other
// frontend from the cursor it already holds — no snapshot reset, no
// re-delivered or missed announcements. Intake is N-way: each frontend
// admits its own sub-batch, and the batches are merged at round close
// (each dealt into the first mix position's counted fan-in, in frontend
// order).
package entry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"alpenhorn/internal/wire"
)

type roundKey struct {
	service wire.Service
	round   uint32
}

type roundState struct {
	settings  *wire.RoundSettings
	onionSize int
	batch     [][]byte
	open      bool
}

// EventKind distinguishes round-progress announcements.
type EventKind int

const (
	// RoundOpen: the round is announced and accepting submissions.
	RoundOpen EventKind = iota + 1
	// RoundPublished: the round's mailboxes are available on the CDN.
	RoundPublished
)

// Announcement is one entry in the round-progress event log. Cursor is
// monotonically increasing across all services; subscribers use it to
// detect missed announcements and to resume (EventsSince / WaitEvents).
// Settings is populated for RoundOpen announcements delivered in-process;
// transports may drop it (clients fetch and verify settings separately).
type Announcement struct {
	Cursor   uint64
	Service  wire.Service
	Round    uint32
	Kind     EventKind
	Settings *wire.RoundSettings
}

// RoundStatus is a service's round progress at a point in time: the
// newest announced round and the newest round whose mailboxes are
// published. Zero means "none yet". It is the poll-based view of the
// event log, kept for clients talking to frontends without entry.events.
// EventDrops counts announcements for this service that overflowed a
// subscriber's buffer — the server-side view of the gaps subscribers
// detect via cursor jumps.
type RoundStatus struct {
	CurrentOpen     uint32 `json:"current_open"`
	LatestPublished uint32 `json:"latest_published"`
	EventDrops      uint64 `json:"event_drops,omitempty"`
}

// eventLogSize bounds the retained event window. Consumers further behind
// than this get the coalesced latest-per-kind snapshot, which (round
// progress being monotonic) loses nothing they could still act on.
const eventLogSize = 256

// Server is an entry server. It is safe for concurrent use.
type Server struct {
	mu     sync.Mutex
	rounds map[roundKey]*roundState
	subs   []chan Announcement

	// Event log: a bounded window of announcements, each cursor-stamped,
	// plus the folded per-service status.
	events     []Announcement
	nextCursor uint64
	status     map[wire.Service]RoundStatus

	// Fan-out core: the registered waiters and the single walker
	// goroutine's doorbell. head mirrors the newest stamped cursor so the
	// walker never takes s.mu. Lock order is s.mu then waiterMu.
	waiterMu     sync.Mutex
	waiters      map[uint64]*Waiter
	nextWaiterID uint64
	notify       chan struct{} // 1-slot; nil while no waiters are registered
	head         atomic.Uint64
	fanoutPasses atomic.Uint64 // completed walks, for tests and benchmarks

	// MaxBatch bounds the number of requests per round (0 = unlimited).
	// A deployment sets this to its provisioned capacity.
	MaxBatch int
}

// New creates an entry server.
func New() *Server {
	return &Server{
		rounds:     make(map[roundKey]*roundState),
		nextCursor: 1,
		status:     make(map[wire.Service]RoundStatus),
	}
}

// Subscribe returns a channel on which the server announces round events.
// The channel is buffered; a slow subscriber misses announcements rather
// than blocking the system, but every announcement carries its cursor, so
// the subscriber DETECTS the gap (non-consecutive cursors) and refills it
// with EventsSince. The server counts each drop in the announcement's
// service status (RoundStatus.EventDrops).
func (s *Server) Subscribe() <-chan Announcement {
	ch := make(chan Announcement, 64)
	s.mu.Lock()
	s.subs = append(s.subs, ch)
	s.mu.Unlock()
	return ch
}

// appendEventLocked stamps, logs, folds, and fans out one announcement.
// Caller holds s.mu.
func (s *Server) appendEventLocked(ann Announcement) {
	ann.Cursor = s.nextCursor
	s.nextCursor++
	s.events = append(s.events, ann)
	if len(s.events) > eventLogSize {
		s.events = s.events[len(s.events)-eventLogSize:]
	}
	st := s.status[ann.Service]
	switch ann.Kind {
	case RoundOpen:
		if ann.Round > st.CurrentOpen {
			st.CurrentOpen = ann.Round
		}
	case RoundPublished:
		if ann.Round > st.LatestPublished {
			st.LatestPublished = ann.Round
		}
	}
	for _, ch := range s.subs {
		select {
		case ch <- ann:
		default:
			// Slow subscriber: counted here, detectable client-side via
			// the cursor gap.
			st.EventDrops++
		}
	}
	s.status[ann.Service] = st

	// Ring the fan-out walker's doorbell (1-slot, so back-to-back
	// announcements coalesce into one walk).
	s.head.Store(ann.Cursor)
	s.waiterMu.Lock()
	if s.notify != nil {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	s.waiterMu.Unlock()
}

// Waiter is one registered consumer of the event log: a cursor plus a
// 1-slot wake channel tapped by the server's fan-out walk whenever
// events past the cursor exist. A waiter costs no goroutine; callers
// either park their own in Await or multiplex Wake into their own select
// loop and drain with Poll. Close deregisters it.
type Waiter struct {
	s      *Server
	id     uint64
	cursor atomic.Uint64
	wake   chan struct{}
}

// Register adds a waiter at the given cursor (0 = fresh consumer). The
// first registration starts the server's single fan-out goroutine.
// Callers must Poll (or Await) after registering: events already past the
// cursor do not ring the wake channel retroactively.
func (s *Server) Register(cursor uint64) *Waiter {
	w := &Waiter{s: s, wake: make(chan struct{}, 1)}
	w.cursor.Store(cursor)
	s.waiterMu.Lock()
	s.nextWaiterID++
	w.id = s.nextWaiterID
	if s.waiters == nil {
		s.waiters = make(map[uint64]*Waiter)
	}
	s.waiters[w.id] = w
	if len(s.waiters) == 1 {
		s.notify = make(chan struct{}, 1)
		go s.fanout(s.notify)
	}
	s.waiterMu.Unlock()
	return w
}

// Waiters reports the number of registered waiters.
func (s *Server) Waiters() int {
	s.waiterMu.Lock()
	defer s.waiterMu.Unlock()
	return len(s.waiters)
}

// fanout is the single-writer fan-out loop: one goroutine per server
// walks the waiter list after each announcement and taps the wake channel
// of every waiter behind the new head. It exits when the last waiter
// deregisters (notify is closed).
func (s *Server) fanout(notify <-chan struct{}) {
	for range notify {
		head := s.head.Load()
		s.waiterMu.Lock()
		for _, w := range s.waiters {
			if w.cursor.Load() >= head {
				continue
			}
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
		s.waiterMu.Unlock()
		s.fanoutPasses.Add(1)
	}
}

// Close deregisters the waiter. The last Close stops the server's
// fan-out goroutine.
func (w *Waiter) Close() {
	s := w.s
	s.waiterMu.Lock()
	if _, ok := s.waiters[w.id]; ok {
		delete(s.waiters, w.id)
		if len(s.waiters) == 0 {
			close(s.notify)
			s.notify = nil
		}
	}
	s.waiterMu.Unlock()
}

// Wake returns the waiter's wake channel for use in a caller's select
// loop. A receive means events past the waiter's cursor may exist; drain
// them with Poll. The channel is 1-slot and never closed.
func (w *Waiter) Wake() <-chan struct{} { return w.wake }

// Cursor returns the waiter's current resume cursor.
func (w *Waiter) Cursor() uint64 { return w.cursor.Load() }

// Poll returns events past the waiter's cursor without blocking (like
// EventsSince) and advances the cursor past everything returned.
func (w *Waiter) Poll(max int) (events []Announcement, next uint64, gap bool) {
	events, next, gap = w.s.EventsSince(w.cursor.Load(), max)
	if len(events) > 0 {
		w.cursor.Store(next)
	}
	return events, next, gap
}

// Await parks the calling goroutine until events past the waiter's cursor
// exist, then returns them (like EventsSince). It returns empty when the
// context ends first; next then echoes the waiter's cursor so the poll is
// resumable.
func (w *Waiter) Await(ctx context.Context, max int) (events []Announcement, next uint64, gap bool) {
	for {
		events, next, gap = w.Poll(max)
		if len(events) > 0 {
			return events, next, gap
		}
		select {
		case <-ctx.Done():
			return nil, w.cursor.Load(), false
		case <-w.wake:
		}
	}
}

// OpenRound announces a round and starts accepting requests for it.
func (s *Server) OpenRound(settings *wire.RoundSettings) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := roundKey{settings.Service, settings.Round}
	if _, ok := s.rounds[k]; ok {
		return fmt.Errorf("entry: round %d (%s) already opened", settings.Round, settings.Service)
	}
	s.rounds[k] = &roundState{
		settings:  settings,
		onionSize: wire.OnionSize(settings.Service, len(settings.Mixers)),
		open:      true,
	}
	s.appendEventLocked(Announcement{
		Service:  settings.Service,
		Round:    settings.Round,
		Kind:     RoundOpen,
		Settings: settings,
	})
	return nil
}

// AnnouncePublished records that a round's mailboxes are available on the
// CDN and pushes the announcement to subscribers and waiters. The
// coordinator calls it after a successful publish.
func (s *Server) AnnouncePublished(service wire.Service, round uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendEventLocked(Announcement{Service: service, Round: round, Kind: RoundPublished})
}

// Status returns a service's folded round progress (newest open round,
// newest published round, subscriber drop count).
func (s *Server) Status(service wire.Service) RoundStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status[service]
}

// EventsSince returns retained announcements after the given cursor, at
// most max (0 means no bound), plus the cursor to resume from. When the
// consumer's cursor has fallen off the retained window — or is zero, a
// fresh consumer — the reply coalesces to the newest announcement per
// (service, kind) and gap reports whether events were actually lost.
func (s *Server) EventsSince(cursor uint64, max int) (events []Announcement, next uint64, gap bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eventsSinceLocked(cursor, max)
}

func (s *Server) eventsSinceLocked(cursor uint64, max int) ([]Announcement, uint64, bool) {
	if len(s.events) == 0 {
		return nil, cursor, false
	}
	newest := s.events[len(s.events)-1].Cursor
	if cursor == newest {
		return nil, cursor, false
	}
	if cursor > newest {
		// A cursor from the future belongs to a previous log incarnation
		// (the frontend restarted and its cursors started over). Treating
		// it as up-to-date would park the consumer until the new log
		// happened to outgrow the stale cursor; hand over the snapshot
		// and the CURRENT head instead.
		return s.coalescedLocked(max), newest, true
	}
	if cursor+1 < s.events[0].Cursor {
		// The consumer is behind the window (or brand new, cursor 0):
		// coalesce. Round progress is monotonic, so the newest
		// announcement per (service, kind) carries everything still
		// actionable. Only a non-zero cursor actually MISSED events.
		return s.coalescedLocked(max), newest, cursor > 0
	}
	lo := 0
	for lo < len(s.events) && s.events[lo].Cursor <= cursor {
		lo++
	}
	hi := len(s.events)
	if max > 0 && hi-lo > max {
		hi = lo + max
	}
	out := make([]Announcement, hi-lo)
	copy(out, s.events[lo:hi])
	return out, out[len(out)-1].Cursor, false
}

// coalescedLocked returns the newest retained announcement per
// (service, kind), oldest-first. Caller holds s.mu.
func (s *Server) coalescedLocked(max int) []Announcement {
	type sk struct {
		service wire.Service
		kind    EventKind
	}
	seen := make(map[sk]bool)
	var out []Announcement
	for i := len(s.events) - 1; i >= 0; i-- {
		ann := s.events[i]
		key := sk{ann.Service, ann.Kind}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append([]Announcement{ann}, out...)
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// WaitEvents blocks until announcements after the cursor exist, then
// returns them (like EventsSince). It returns empty when the context ends
// first; next then echoes the caller's cursor so the poll is resumable.
// It is the one-shot form of Register/Await/Close; consumers that wait
// repeatedly should hold a Waiter instead of re-registering per call.
func (s *Server) WaitEvents(ctx context.Context, cursor uint64, max int) (events []Announcement, next uint64, gap bool) {
	w := s.Register(cursor)
	defer w.Close()
	return w.Await(ctx, max)
}

// Settings returns the announced settings for a round, or an error if the
// round is unknown.
func (s *Server) Settings(service wire.Service, round uint32) (*wire.RoundSettings, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok {
		return nil, fmt.Errorf("entry: round %d (%s) not announced", round, service)
	}
	return st.settings, nil
}

// ErrRoundClosed is returned for submissions to a closed or unknown round.
var ErrRoundClosed = errors.New("entry: round not accepting requests")

// ErrWrongSize is returned for onions that are not exactly the round's
// request size. Accepting odd-sized requests would let an adversary mark
// messages, so the check is strict.
var ErrWrongSize = errors.New("entry: request has wrong size")

// ErrRoundFull is the admission-control signal for a round whose batch
// has reached MaxBatch. It is a deferral, not a failure: the request was
// well-formed and the client should retry in the next round, which
// spreads overload across rounds instead of dropping users. Clients
// detect it with errors.Is and requeue. (The rpc transport carries
// errors as strings and maps this one back by message, so the message
// must stay stable.)
var ErrRoundFull = errors.New("entry: round full (retry next round)")

// Submit adds one client onion to the round's batch.
func (s *Server) Submit(service wire.Service, round uint32, onion []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok || !st.open {
		return ErrRoundClosed
	}
	if len(onion) != st.onionSize {
		return fmt.Errorf("%w: got %d, want %d", ErrWrongSize, len(onion), st.onionSize)
	}
	if s.MaxBatch > 0 && len(st.batch) >= s.MaxBatch {
		return ErrRoundFull
	}
	owned := make([]byte, len(onion))
	copy(owned, onion)
	st.batch = append(st.batch, owned)
	return nil
}

// CloseRound stops accepting requests and returns the batch for the mixnet.
func (s *Server) CloseRound(service wire.Service, round uint32) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok {
		return nil, fmt.Errorf("entry: round %d (%s) not announced", round, service)
	}
	if !st.open {
		return nil, fmt.Errorf("entry: round %d (%s) already closed", round, service)
	}
	st.open = false
	batch := st.batch
	st.batch = nil
	return batch, nil
}

// BatchSize reports the number of requests submitted to an open round so
// far, used by the coordinator for capacity planning.
func (s *Server) BatchSize(service wire.Service, round uint32) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok {
		return 0
	}
	return len(st.batch)
}
