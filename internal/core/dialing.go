package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/wire"
)

// This file implements the client side of the dialing protocol (§5).

// SubmitDialRound submits this round's dialing request: a real dial token
// if a call is queued, otherwise cover traffic. Like the add-friend
// protocol, every client submits exactly one fixed-size request per round.
func (c *Client) SubmitDialRound(ctx context.Context, round uint32) error {
	settings, err := c.roundSettings(ctx, wire.Dialing, round, false)
	if err != nil {
		return err
	}

	payload, outgoing, err := c.buildDialPayload(round, settings)
	if err != nil {
		return err
	}
	onion, err := c.wrapOnion(settings, payload)
	if err != nil {
		return err
	}
	if err := c.cfg.Entry.Submit(ctx, wire.Dialing, round, onion); err != nil {
		// The token never reached the entry server (e.g. the round
		// closed first, or admission control deferred us): requeue the
		// call so a later round carries it instead of silently dropping
		// it. A full round is a deferral, not a failure.
		if outgoing != nil {
			c.mu.Lock()
			c.calls = append([]queuedCall{{friend: outgoing.Friend, intent: outgoing.Intent}}, c.calls...)
			c.persistLocked()
			c.mu.Unlock()
		}
		if errors.Is(err, entry.ErrRoundFull) {
			c.reportErr(fmt.Errorf("core: dialing round %d deferred us: %w", round, err))
			return nil
		}
		return err
	}
	// Report the outgoing call only after the token is actually on the
	// wire.
	if outgoing != nil {
		c.cfg.Handler.OutgoingCall(*outgoing)
	}
	return nil
}

// buildDialPayload pops one queued call (if any) and builds the innermost
// payload.
func (c *Client) buildDialPayload(round uint32, settings *wire.RoundSettings) ([]byte, *Call, error) {
	c.mu.Lock()
	var call *queuedCall
	for len(c.calls) > 0 {
		cand := c.calls[0]
		c.calls = c.calls[1:]
		f, ok := c.friends[cand.friend]
		if !ok || !f.Confirmed {
			c.mu.Unlock()
			c.reportErr(fmt.Errorf("core: dropping call to %s: not a confirmed friend", cand.friend))
			c.mu.Lock()
			continue
		}
		if f.wheel.Round() > round {
			// Keywheel starts in a future round (friendship is
			// brand new): requeue for later rounds.
			c.calls = append(c.calls, cand)
			c.reportErr(fmt.Errorf("core: call to %s deferred: keywheel starts at round %d > %d", cand.friend, f.wheel.Round(), round))
			break
		}
		call = &cand
		break
	}

	if call == nil {
		c.persistLocked()
		c.mu.Unlock()
		// Cover traffic: a random token to the cover mailbox.
		body := make([]byte, keywheel.TokenSize)
		if _, err := io.ReadFull(c.cfg.Rand, body); err != nil {
			return nil, nil, err
		}
		payload := &wire.MixPayload{Mailbox: wire.CoverMailbox, Body: body}
		return payload.Marshal(), nil, nil
	}

	f := c.friends[call.friend]
	token, err := f.wheel.DialToken(round, call.intent, c.cfg.Email)
	if err != nil {
		c.persistLocked()
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("core: deriving dial token for %s: %w", call.friend, err)
	}
	sessionKey, err := f.wheel.SessionKey(round, call.intent, c.cfg.Email)
	if err != nil {
		c.persistLocked()
		c.mu.Unlock()
		return nil, nil, err
	}
	c.persistLocked()
	c.mu.Unlock()

	payload := &wire.MixPayload{
		Mailbox: wire.MailboxID(call.friend, settings.NumMailboxes),
		Body:    token[:],
	}
	out := &Call{
		Friend:     call.friend,
		Intent:     call.intent,
		Round:      round,
		SessionKey: sessionKey,
	}
	return payload.Marshal(), out, nil
}

// ScanDialRound downloads and scans this round's Bloom filter for dial
// tokens from every friend and every intent (§5: "this is cheap to do
// because hashing is fast and the number of intents is typically small"),
// then advances every keywheel past the round for forward secrecy (§5.1).
func (c *Client) ScanDialRound(ctx context.Context, round uint32) error {
	settings, err := c.roundSettings(ctx, wire.Dialing, round, false)
	if err != nil {
		return err
	}

	box, err := c.cfg.Mailboxes.Fetch(ctx, wire.Dialing, round, wire.MailboxID(c.cfg.Email, settings.NumMailboxes))
	if err != nil {
		return fmt.Errorf("core: fetching dialing mailbox: %w", err)
	}
	return c.scanDialBox(round, box)
}

// scanDialBox decodes and scans one fetched dialing mailbox (the second
// half of ScanDialRound): test every friend x intent token against the
// Bloom filter, deliver incoming calls, then advance every keywheel past
// the round for forward secrecy (§5.1). The Run loop calls it with
// mailboxes obtained through ranged fetches.
func (c *Client) scanDialBox(round uint32, box []byte) error {
	filter, err := bloom.Unmarshal(box)
	if err != nil {
		return fmt.Errorf("core: decoding Bloom filter: %w", err)
	}

	var incoming []Call
	c.mu.Lock()
	for _, f := range c.friends {
		if !f.Confirmed || f.wheel.Round() > round {
			continue
		}
		for intent := uint32(0); intent < c.cfg.NumIntents; intent++ {
			token, err := f.wheel.DialToken(round, intent, f.Email)
			if err != nil {
				continue
			}
			if !filter.Test(token[:]) {
				continue
			}
			key, err := f.wheel.SessionKey(round, intent, f.Email)
			if err != nil {
				continue
			}
			incoming = append(incoming, Call{
				Friend:     f.Email,
				Intent:     intent,
				Round:      round,
				SessionKey: key,
			})
		}
	}
	c.advanceWheelsLocked(round + 1)
	c.persistLocked()
	c.mu.Unlock()

	for _, call := range incoming {
		c.cfg.Handler.IncomingCall(call)
	}
	return nil
}

// SkipDialRound advances keywheels past a round whose mailbox could not be
// retrieved. §5.1: "After some time (e.g., a day), the Alpenhorn client
// gives up trying to fetch the mailbox for an old round, and advances the
// keywheels to preserve forward secrecy."
func (c *Client) SkipDialRound(round uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceWheelsLocked(round + 1)
	c.persistLocked()
}

// DefaultMaxDialBacklog bounds how many published-but-unscanned dialing
// rounds the client queues (QueueDialScans) when it falls behind: a
// client offline for a day of 10-second rounds would otherwise queue
// thousands of mailbox fetches.
const DefaultMaxDialBacklog = 64

// QueueDialScans records that every dialing round up to latest has been
// published and awaits a scan. The backlog is BOUNDED: when a client
// falls far behind (offline laptop, long partition), the oldest queued
// rounds are dropped rather than held for thousands of mailbox fetches —
// their keywheel secrets are advanced away, exactly as if SkipDialRound
// had given up on them, and the handler is told how many rounds were
// dropped. Memory stays O(DefaultMaxDialBacklog) no matter how far behind
// the client is.
func (c *Client) QueueDialScans(latest uint32) {
	const limit = DefaultMaxDialBacklog
	var dropped int
	var droppedThrough uint32
	c.mu.Lock()
	from := c.lastQueued + 1
	if from < c.dialRound {
		// Rounds BELOW dialRound were already processed (or skipped) —
		// dialRound itself is the next round the client expects, so it
		// must still be queued; scanning earlier rounds again would
		// only find advanced wheels.
		from = c.dialRound
	}
	if uint32(limit) < latest {
		// A client far behind (fresh install, long-offline laptop)
		// skips straight to the newest `limit` rounds instead of
		// materializing — and then fetching — thousands of ancient
		// rounds the CDN no longer holds.
		if minFrom := latest - uint32(limit) + 1; from < minFrom {
			dropped = int(minFrom - from)
			droppedThrough = minFrom - 1
			from = minFrom
		}
	}
	for r := from; r <= latest; r++ {
		c.dialBacklog = append(c.dialBacklog, r)
	}
	if latest >= c.lastQueued {
		c.lastQueued = latest
	}
	if over := len(c.dialBacklog) - limit; over > 0 {
		// Still over the cap (requeues, repeated announcements): shed
		// the oldest queued rounds too.
		dropped += over
		droppedThrough = c.dialBacklog[over-1]
		c.dialBacklog = append(c.dialBacklog[:0], c.dialBacklog[over:]...)
	}
	if dropped > 0 {
		// Forward secrecy for the dropped rounds: erase their wheel
		// secrets now, like SkipDialRound.
		c.advanceWheelsLocked(droppedThrough + 1)
	}
	if dropped > 0 || latest >= from {
		// The backlog and its cursor persist with the client state, so a
		// restart mid-round resumes these scans instead of rebuilding
		// from the frontend's status.
		c.persistLocked()
	}
	c.mu.Unlock()
	if dropped > 0 {
		c.reportErr(fmt.Errorf("core: dial scan backlog full: dropped %d oldest rounds (through round %d)", dropped, droppedThrough))
	}
}

// peekDialScanSpan returns a copy of the longest run of CONSECUTIVE
// rounds at the head of the scan backlog, up to max, WITHOUT removing
// them. The Run loop drains the backlog a span at a time — a consecutive
// run against one mailbox is a single ranged CDN request instead of one
// fetch per round — and removes each round with finishDialScan only once
// its scan (or give-up) completed, so the persisted backlog never loses
// in-flight rounds to a crash.
func (c *Client) peekDialScanSpan(max int) []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.dialBacklog) == 0 || max <= 0 {
		return nil
	}
	n := 1
	for n < len(c.dialBacklog) && n < max && c.dialBacklog[n] == c.dialBacklog[n-1]+1 {
		n++
	}
	span := make([]uint32, n)
	copy(span, c.dialBacklog[:n])
	return span
}

// finishDialScan removes one round from the scan backlog — its scan
// completed, or the §5.1 budget gave up on it — and persists the change.
func (c *Client) finishDialScan(round uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.dialBacklog {
		if r == round {
			c.dialBacklog = append(c.dialBacklog[:i], c.dialBacklog[i+1:]...)
			c.persistLocked()
			return
		}
	}
}

// DialBacklog reports how many published rounds are queued for scanning.
func (c *Client) DialBacklog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dialBacklog)
}

// advanceWheelsLocked rolls every keywheel forward to the given round,
// erasing old secrets. Wheels that start in the future are left alone.
func (c *Client) advanceWheelsLocked(to uint32) {
	for _, f := range c.friends {
		if f.wheel != nil && f.wheel.Round() < to {
			// Advance cannot fail here: to > wheel.Round().
			_ = f.wheel.Advance(to)
		}
	}
	if to > c.dialRound {
		c.dialRound = to
	}
}

// DialRound returns the next dialing round the client expects to process.
func (c *Client) DialRound() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dialRound
}
