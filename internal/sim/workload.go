package sim

import (
	"crypto/rand"
	"fmt"
	"io"

	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// This file generates synthetic client workloads for benchmarks: batches of
// correctly-formed request onions WITHOUT running full client state
// machines, so that server-side costs (Figures 8-10) can be measured at
// scales where constructing millions of real clients would dominate.
//
// Synthetic real add-friend requests use ibe.RandomCiphertext, which is
// byte-for-byte indistinguishable from (and computationally identical to
// process for) genuine encrypted friend requests — exactly the property
// (§4.3 ciphertext anonymity) that the mixnet's own noise relies on.

// Workload describes a synthetic round's client traffic.
type Workload struct {
	// Real is the number of clients making a real request this round.
	Real int
	// Cover is the number of clients submitting cover traffic.
	Cover int
	// MailboxOf returns the destination mailbox for real request i;
	// nil means uniform over [0, NumMailboxes).
	MailboxOf func(i int) uint32
}

// GenerateBatch builds the round's onions for the given settings.
func GenerateBatch(rnd io.Reader, settings *wire.RoundSettings, w Workload) ([][]byte, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	hops := make([]*onionbox.Sealer, len(settings.Mixers))
	for i, m := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(m.OnionKey)
		if err != nil {
			return nil, fmt.Errorf("sim: mixer %d key: %w", i, err)
		}
		hops[i] = onionbox.NewSealer(pk, w.Real+w.Cover)
	}

	// Every client's onion is queued as that client would build it — the
	// reader is consumed in the order of one WrapOnion call per client —
	// and the whole batch is sealed hop by hop at the end.
	batch := onionbox.NewOnionBatch(hops)
	for i := 0; i < w.Real; i++ {
		var mailbox uint32
		if w.MailboxOf != nil {
			mailbox = w.MailboxOf(i) % settings.NumMailboxes
		} else {
			var b [4]byte
			if _, err := io.ReadFull(rnd, b[:]); err != nil {
				return nil, err
			}
			mailbox = (uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])) % settings.NumMailboxes
		}
		body, err := realBody(rnd, settings.Service)
		if err != nil {
			return nil, err
		}
		payload := (&wire.MixPayload{Mailbox: mailbox, Body: body}).Marshal()
		if err := batch.Add(rnd, payload); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.Cover; i++ {
		body, err := coverBody(rnd, settings.Service)
		if err != nil {
			return nil, err
		}
		payload := (&wire.MixPayload{Mailbox: wire.CoverMailbox, Body: body}).Marshal()
		if err := batch.Add(rnd, payload); err != nil {
			return nil, err
		}
	}
	return batch.Wrap()
}

func realBody(rnd io.Reader, service wire.Service) ([]byte, error) {
	switch service {
	case wire.AddFriend:
		return ibe.RandomCiphertext(rnd, wire.FriendRequestSize)
	case wire.Dialing:
		tok := make([]byte, keywheel.TokenSize)
		_, err := io.ReadFull(rnd, tok)
		return tok, err
	default:
		return nil, fmt.Errorf("sim: unknown service %v", service)
	}
}

func coverBody(rnd io.Reader, service wire.Service) ([]byte, error) {
	switch service {
	case wire.AddFriend:
		return make([]byte, wire.EncryptedFriendRequestSize), nil
	case wire.Dialing:
		tok := make([]byte, keywheel.TokenSize)
		_, err := io.ReadFull(rnd, tok)
		return tok, err
	default:
		return nil, fmt.Errorf("sim: unknown service %v", service)
	}
}
