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
// round-published announcement gets a monotonic cursor. There is one
// read, in two forms: EventsSince(cursor, max) returns the retained
// events after a cursor without blocking, and WaitEvents(ctx, cursor,
// max) is its blocking form, parking the caller until there is something
// to return. When the cursor has fallen off the retained window, or
// belongs to a previous incarnation of the log, the reply COALESCES to
// the newest event per (service, kind): round progress is monotonic, so
// the latest open and latest published round are all a late joiner
// needs, and gap reports that events were lost. A reader owns its
// cursor and the server keeps no per-reader state, so a reader that
// stops reading blocks no announcement and loses none still retained.
//
// # Waking readers
//
// Every announcement closes one channel and replaces it. A parked
// WaitEvents caller selects on the channel it saw when it last read the
// log, so one announcement wakes every parked caller at once and the
// server runs no goroutine of its own. Over rpc, a parked reader is one
// entry.events long-poll: one connection goroutine, parked in WaitEvents.
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
	published bool
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
// monotonically increasing across all services; readers resume from it
// (EventsSince / WaitEvents). Settings is populated for RoundOpen
// announcements, and entry.events carries it to clients, which verify it
// against the PKGs' keys before use.
type Announcement struct {
	Cursor   uint64
	Service  wire.Service
	Round    uint32
	Kind     EventKind
	Settings *wire.RoundSettings
}

// RoundStatus is a service's round progress at a point in time: the
// newest announced round and the newest round whose mailboxes are
// published. Zero means "none yet". Readers of the event log fold
// announcements into it.
type RoundStatus struct {
	CurrentOpen     uint32
	LatestPublished uint32
}

// roundsKept is how many rounds of each service a server remembers, the
// newest: core.DefaultMaxDialBacklog + 1 (core imports this package), so
// every round a backlogged client may still scan answers entry.settings.
const roundsKept = 65

// eventLogSize bounds the retained event window. Consumers further behind
// than this get the coalesced latest-per-kind snapshot, which (round
// progress being monotonic) loses nothing they could still act on.
const eventLogSize = 256

// Server is an entry server. It is safe for concurrent use.
type Server struct {
	mu     sync.Mutex
	rounds map[roundKey]*roundState
	newest map[wire.Service]uint32 // the newest round announced, per service

	// Event log: a bounded window of announcements, each cursor-stamped.
	// changed is closed and replaced by every announcement.
	events     []Announcement
	nextCursor uint64
	changed    chan struct{}

	// MaxBatch bounds the number of requests per round (0 = unlimited).
	// A deployment sets this to its provisioned capacity.
	MaxBatch int
}

// New creates an entry server.
func New() *Server {
	return &Server{
		rounds:     make(map[roundKey]*roundState),
		newest:     make(map[wire.Service]uint32),
		nextCursor: 1,
		changed:    make(chan struct{}),
	}
}

// appendEventLocked stamps and logs one announcement and wakes every
// parked WaitEvents caller. Caller holds s.mu.
func (s *Server) appendEventLocked(ann Announcement) {
	ann.Cursor = s.nextCursor
	s.nextCursor++
	s.events = append(s.events, ann)
	if len(s.events) > eventLogSize {
		s.events = s.events[len(s.events)-eventLogSize:]
	}
	close(s.changed)
	s.changed = make(chan struct{})
}

// forgottenLocked reports whether k is roundsKept or more rounds below
// its service's newest. Such a round's state is gone and an announcement
// of it changes nothing, so replicas told the same announcements keep the
// same rounds, and none logs a round twice. Caller holds s.mu.
func (s *Server) forgottenLocked(k roundKey) bool {
	newest := s.newest[k.service]
	return k.round < newest && newest-k.round >= roundsKept
}

// addLocked remembers a round not forgotten; a new newest round forgets
// the rounds it leaves behind. Caller holds s.mu.
func (s *Server) addLocked(k roundKey, st *roundState) {
	s.rounds[k] = st
	if k.round <= s.newest[k.service] {
		return
	}
	s.newest[k.service] = k.round
	for old := range s.rounds {
		if s.forgottenLocked(old) {
			delete(s.rounds, old)
		}
	}
}

// OpenRound announces a round and starts accepting requests for it.
func (s *Server) OpenRound(settings *wire.RoundSettings) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if settings.Service != wire.AddFriend && settings.Service != wire.Dialing {
		return fmt.Errorf("entry: round %d of unknown %s", settings.Round, settings.Service)
	}
	k := roundKey{settings.Service, settings.Round}
	if _, ok := s.rounds[k]; ok {
		return fmt.Errorf("entry: round %d (%s) already opened", settings.Round, settings.Service)
	}
	if s.forgottenLocked(k) {
		return fmt.Errorf("entry: round %d (%s) is older than the newest %d", settings.Round, settings.Service, roundsKept)
	}
	s.addLocked(k, &roundState{
		settings:  settings,
		onionSize: wire.OnionSize(settings.Service, len(settings.Mixers)),
		open:      true,
	})
	s.appendEventLocked(Announcement{
		Service:  settings.Service,
		Round:    settings.Round,
		Kind:     RoundOpen,
		Settings: settings,
	})
	return nil
}

// AnnouncePublished records that a round's mailboxes are available on the
// CDN. The coordinator calls it after a successful publish. It logs each
// round once, however the call is duplicated or reordered, so every
// replica of the log stamps the same cursors. A round this server never
// saw open (it restarted mid-round) is still announced: its mailboxes are
// on the CDN all the same. A forgotten round is not.
func (s *Server) AnnouncePublished(service wire.Service, round uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := roundKey{service, round}
	st, ok := s.rounds[k]
	if !ok {
		if s.forgottenLocked(k) {
			return
		}
		st = &roundState{}
		s.addLocked(k, st)
	}
	if st.published {
		return
	}
	st.published = true
	s.appendEventLocked(Announcement{Service: service, Round: round, Kind: RoundPublished})
}

// EventsSince returns retained announcements after the given cursor, at
// most max (0 means no bound), plus the cursor to resume from. When the
// consumer's cursor has fallen off the retained window (a fresh
// consumer's zero cursor has, once the window no longer starts at 1) or
// lies past the newest event, the reply coalesces to the newest
// announcement per (service, kind) and gap reports whether events were
// actually lost.
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

// WaitEvents is the blocking form of EventsSince: it parks until
// announcements after the cursor exist, then returns them. It returns
// empty when the context ends first; next then echoes the caller's cursor
// so the poll is resumable.
func (s *Server) WaitEvents(ctx context.Context, cursor uint64, max int) (events []Announcement, next uint64, gap bool) {
	for {
		s.mu.Lock()
		events, next, gap = s.eventsSinceLocked(cursor, max)
		changed := s.changed
		s.mu.Unlock()
		if len(events) > 0 {
			return events, next, gap
		}
		select {
		case <-ctx.Done():
			return nil, cursor, false
		case <-changed:
		}
	}
}

// Settings returns the announced settings for a round, or an error if the
// round is unknown.
func (s *Server) Settings(service wire.Service, round uint32) (*wire.RoundSettings, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[roundKey{service, round}]
	if !ok || st.settings == nil {
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
// Rounds of one service close in sequence, so an earlier round still open
// is one whose close never reached this server (the round failed first):
// it closes too, and its batch is dropped. The walk over them is bounded:
// the server remembers at most roundsKept rounds of each service.
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
	for k, earlier := range s.rounds {
		if k.service == service && k.round < round {
			earlier.open, earlier.batch = false, nil
		}
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
