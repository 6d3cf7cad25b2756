package wire

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"
)

// RouteSpec is one mixer daemon's forwarding assignment for a round
// (mix.round.route): its place in its chain position's shard group and
// where the position's post-shuffle output goes. An unsharded position is
// a group of one: ShardIndex 0 of ShardCount 1, its own merge server.
type RouteSpec struct {
	NumMailboxes uint32
	ChunkSize    int
	// Successors is the NEXT position's full shard set (one address for
	// a group of one); empty for the last position, whose members publish
	// to CDNAddr instead. Only a group's merge server carries Successors.
	Successors []string
	CDNAddr    string
	// Shard-group placement: this daemon is shard ShardIndex of
	// ShardCount (>= 1) serving its position; non-merge shards deposit
	// their peeled slice at MergeAddr, which is empty on the merge server
	// itself. NumUpstream (>= 1) is how many upstream end-of-streams
	// close the daemon's onion intake.
	ShardIndex  int
	ShardCount  int
	MergeAddr   string
	NumUpstream int
	// BuildShards is set on the LAST position's merge server: after the
	// merged shuffle it deals request bodies by mailbox ID to these
	// addresses (its own shard group, in shard order, merge member
	// included at its own shard index). Each shard, merge member
	// included, then builds its own mailbox-ID range and publishes it
	// over its own shard-tagged cdn.publish stream. Non-merge shards of
	// the last group carry CDNAddr (their publish target) but empty
	// BuildShards.
	BuildShards []string
	// DeadlineMs bounds the daemon's data-plane work for the round:
	// peer-dial retries (successor streams, merge deposits, deal slices)
	// give up once the deadline passes instead of burning the whole
	// round against a dead peer. Milliseconds from route receipt; 0
	// means no deadline.
	DeadlineMs int64
}

// MixerRoundStats is one daemon's self-reported accounting for its
// data-plane role in a round, returned by the mix.round.wait long-poll:
// how long the role took (route open → resolution) and the batch bytes
// that crossed the daemon (onion intake + merge deposits in, forwarding +
// publishing out). The coordinator aggregates these into per-round health.
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

	// PairingVersion is the sealed-ciphertext tier negotiated for the
	// round: 0 and 1 both mean the v1 Tate tier (0 is simply "field
	// absent"), 2 means the optimal-ate v2 tier. The encoding is a single
	// trailing byte appended ONLY when the version is ≥ 2, so v1 settings
	// marshal byte-identically to pre-capability encodings and old
	// decoders reject v2 settings (trailing garbage) rather than silently
	// mis-keying a round. PKG round keys are domain-separated per version
	// (PKGKeyMessage vs PKGKeyMessageV2), so a round's signatures pin its
	// tier: a coordinator cannot advertise v2 over v1-signed keys.
	PairingVersion uint8
}

// PairingV2 reports whether the settings negotiate the optimal-ate v2
// sealed-ciphertext tier.
func (rs *RoundSettings) PairingV2() bool { return rs.PairingVersion >= 2 }

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
	MasterKey []byte // 128-byte IBE master public key
	Sig       []byte // 64-byte ed25519 signature
}

// PKGKeyMessage returns the canonical bytes a PKG signs for its round
// master key announcement.
func PKGKeyMessage(round uint32, masterKey []byte) []byte {
	b := NewBuffer(nil)
	b.Raw([]byte("alpenhorn/pkg-round-key:"))
	b.Uint32(round)
	b.Raw(masterKey)
	return b.Bytes()
}

// PKGKeyMessageV2 returns the canonical bytes a PKG signs when announcing
// a round key for the optimal-ate v2 tier. The domain tag differs from
// PKGKeyMessage so a signature binds the key to ONE pairing version: a
// v1 announcement cannot be replayed into a v2 round or vice versa.
func PKGKeyMessageV2(round uint32, masterKey []byte) []byte {
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
		if rs.PairingV2() {
			msg = PKGKeyMessageV2(rs.Round, p.MasterKey)
		}
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
	// The pairing-version capability byte is appended only for v2+ so
	// that v1 settings stay byte-identical to the pre-capability format.
	if rs.PairingV2() {
		b.Uint8(rs.PairingVersion)
	}
	return b.Bytes()
}

// UnmarshalRoundSettings decodes settings encoded with Marshal.
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
	// A single leftover byte ≥ 2 is the pairing-version capability; any
	// other trailing bytes are garbage. (A leftover byte < 2 is rejected
	// too: v1 settings encode the version by omission.)
	if r.Err() == nil && r.Remaining() == 1 {
		v := r.Uint8()
		if v < 2 {
			return nil, errors.New("wire: invalid pairing version byte")
		}
		rs.PairingVersion = v
	}
	if err := r.AllConsumed(); err != nil {
		return nil, err
	}
	return rs, nil
}
