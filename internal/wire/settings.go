package wire

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"
)

// RouteSpec is one mixer daemon's whole assignment for a round, sent in
// the round's one mix.round.open call: the coordinator's plan for the
// daemon's chain position — its shard group, the slot of the group's
// merge lead, and where the position's output goes — and the daemon's own
// slot. Every member of a position gets the same spec but for ShardIndex
// and works out its role from it (internal/rpc/forward.go): the lead
// merges, every other member deposits at the lead and pulls the round key
// from slot 0, the announcer. An unsharded position is a group of one.
// How a sender cuts a batch into stream chunks is its own framing, not
// part of the plan.
type RouteSpec struct {
	// NumMailboxes is the round's mailbox count, which sizes the daemon's
	// noise and, at the last position, its build.
	NumMailboxes uint32 `json:"num_mailboxes"`
	// Group is the position's planned members' dial addresses in shard
	// order, a drafted spare in the slot it fills. ShardIndex is this
	// daemon's slot in it, Lead the lead's.
	Group      []string `json:"group"`
	ShardIndex int      `json:"shard_index"`
	Lead       int      `json:"lead"`
	// DownstreamKeys are the round onion keys of the positions after
	// this one, which the daemon wraps its noise under.
	DownstreamKeys [][]byte `json:"downstream_keys,omitempty"`
	// A route carries exactly one of Successors, the NEXT position's full
	// shard set, and CDNAddr, where the last position's members publish.
	Successors []string `json:"successors,omitempty"`
	CDNAddr    string   `json:"cdn_addr,omitempty"`
	// NumUpstream (>= 1) is how many upstream end-of-streams close the
	// daemon's onion intake.
	NumUpstream int `json:"num_upstream"`
	// DeadlineMs bounds the daemon's data-plane work for the round:
	// peer-dial retries (successor streams, merge deposits, deal slices)
	// give up once the deadline passes instead of burning the whole
	// round against a dead peer. Milliseconds from the daemon's first
	// mix.stream.begin, so the clients' submit window never counts
	// against it; 0 means no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// MixerRoundStats is one daemon's self-reported accounting for its
// data-plane role in a round, returned by the mix.round.wait long-poll:
// how long the role took (first mix.stream.begin → resolution) and the
// batch bytes that crossed the daemon (onion intake + merge deposits in,
// forwarding + publishing out). The coordinator aggregates these into per-round health.
type MixerRoundStats struct {
	Duration time.Duration
	BytesIn  uint64
	BytesOut uint64
	// AbortReason classifies how the daemon's round ended so the
	// coordinator's scheduler can tell a slow daemon from a crashed or
	// misbehaving one: "" (completed), AbortSlow (round deadline),
	// AbortCrashed (peer transport failure), AbortUpstream (another
	// daemon aborted first), or AbortError (local failure).
	AbortReason string
}

// Abort-reason codes carried in MixerRoundStats.AbortReason.
const (
	AbortSlow     = "slow"
	AbortCrashed  = "crashed"
	AbortUpstream = "upstream"
	AbortError    = "error"
)

// RoundSettings describes everything a client needs to participate in one
// round of one protocol: the per-round keys of every mixer and (for
// add-friend rounds) every PKG, and the number of mailboxes. The
// coordinator assembles the settings; each server's contribution carries a
// signature under that server's long-term key so that clients can verify
// the settings against the keys pinned in the software package (§3.3).
type RoundSettings struct {
	Service Service
	Round   uint32

	// NumMailboxes is K in Algorithm 1: clients send to mailbox
	// H(recipient) mod K.
	NumMailboxes uint32

	// Mixers holds the per-round onion keys for each mixnet server, in
	// chain order (clients encrypt for index 0 last).
	Mixers []MixerRoundKey

	// PKGs holds the per-round IBE master public keys (add-friend rounds
	// only; empty for dialing).
	PKGs []PKGRoundKey

	// Deprecated: PairingVersion is never encoded or read; bench/walk.go, frozen for this PR, sets it.
	PairingVersion uint8
}

// MixerRoundKey is one mixer's per-round onion key, signed with the mixer's
// long-term ed25519 key over (service, round, key).
type MixerRoundKey struct {
	OnionKey []byte // 32-byte X25519 public key
	Sig      []byte // 64-byte ed25519 signature
}

// MixerKeyMessage returns the canonical bytes a mixer signs for its round
// key announcement.
func MixerKeyMessage(s Service, round uint32, onionKey []byte) []byte {
	b := NewBuffer(nil)
	b.Raw([]byte("alpenhorn/mixer-round-key:"))
	b.Uint8(uint8(s))
	b.Uint32(round)
	b.Raw(onionKey)
	return b.Bytes()
}

// PKGRoundKey is one PKG's per-round IBE master public key, signed with the
// PKG's long-term ed25519 key over (round, key).
type PKGRoundKey struct {
	MasterKey []byte // 32-byte IBE master public key
	Sig       []byte // 64-byte ed25519 signature
}

// PKGKeyMessage returns the canonical bytes a PKG signs for its round
// master key announcement. The domain tag is the one the optimal-ate tier
// signed under while a Tate tier existed beside it, so a PKG signature made
// for a Tate-keyed round never verifies here.
func PKGKeyMessage(round uint32, masterKey []byte) []byte {
	b := NewBuffer(nil)
	b.Raw([]byte("alpenhorn/pkg-round-key-v2:"))
	b.Uint32(round)
	b.Raw(masterKey)
	return b.Bytes()
}

// Verify checks every signature in the settings against the given pinned
// long-term server keys (one per mixer, one per PKG, in order). It returns
// an error describing the first failure.
func (rs *RoundSettings) Verify(mixerKeys, pkgKeys []ed25519.PublicKey) error {
	if len(rs.Mixers) != len(mixerKeys) {
		return fmt.Errorf("wire: settings have %d mixers, expected %d", len(rs.Mixers), len(mixerKeys))
	}
	if len(rs.PKGs) != len(pkgKeys) {
		return fmt.Errorf("wire: settings have %d PKGs, expected %d", len(rs.PKGs), len(pkgKeys))
	}
	if rs.NumMailboxes == 0 || rs.NumMailboxes == CoverMailbox {
		return errors.New("wire: invalid mailbox count")
	}
	for i, m := range rs.Mixers {
		msg := MixerKeyMessage(rs.Service, rs.Round, m.OnionKey)
		if !ed25519.Verify(mixerKeys[i], msg, m.Sig) {
			return fmt.Errorf("wire: bad signature from mixer %d", i)
		}
	}
	for i, p := range rs.PKGs {
		msg := PKGKeyMessage(rs.Round, p.MasterKey)
		if !ed25519.Verify(pkgKeys[i], msg, p.Sig) {
			return fmt.Errorf("wire: bad signature from PKG %d", i)
		}
	}
	return nil
}

// Marshal encodes the settings.
func (rs *RoundSettings) Marshal() []byte {
	b := NewBuffer(nil)
	b.Uint8(uint8(rs.Service))
	b.Uint32(rs.Round)
	b.Uint32(rs.NumMailboxes)
	b.Uint8(uint8(len(rs.Mixers)))
	for _, m := range rs.Mixers {
		b.Bytes16(m.OnionKey)
		b.Bytes16(m.Sig)
	}
	b.Uint8(uint8(len(rs.PKGs)))
	for _, p := range rs.PKGs {
		b.Bytes16(p.MasterKey)
		b.Bytes16(p.Sig)
	}
	return b.Bytes()
}

// UnmarshalRoundSettings decodes settings encoded with Marshal. Any
// trailing byte is an error — including the pairing-version byte that
// settings of the former optimal-ate tier carried.
func UnmarshalRoundSettings(data []byte) (*RoundSettings, error) {
	r := NewReader(data)
	rs := &RoundSettings{
		Service:      Service(r.Uint8()),
		Round:        r.Uint32(),
		NumMailboxes: r.Uint32(),
	}
	nMixers := int(r.Uint8())
	for i := 0; i < nMixers; i++ {
		rs.Mixers = append(rs.Mixers, MixerRoundKey{
			OnionKey: r.Bytes16(),
			Sig:      r.Bytes16(),
		})
	}
	nPKGs := int(r.Uint8())
	for i := 0; i < nPKGs; i++ {
		rs.PKGs = append(rs.PKGs, PKGRoundKey{
			MasterKey: r.Bytes16(),
			Sig:       r.Bytes16(),
		})
	}
	if err := r.AllConsumed(); err != nil {
		return nil, err
	}
	return rs, nil
}
