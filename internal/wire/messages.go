package wire

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/onionbox"
)

// Protocol size constants. Every client's request in a round serializes to
// exactly the same number of bytes; these constants pin down that size.
const (
	// MaxEmailLen bounds Alpenhorn usernames (email addresses).
	MaxEmailLen = 64

	// emailFieldSize is the wire size of a padded email field.
	emailFieldSize = 1 + MaxEmailLen

	// FriendRequestSize is the fixed plaintext size of a friend request
	// (the paper's Figure 3 structure): padded email + signing key +
	// sender signature + PKG multisignature + dialing DH key + dialing
	// round.
	FriendRequestSize = emailFieldSize + 32 + 64 + bls.SignatureSize + 32 + 4

	// EncryptedFriendRequestSize is a friend request after IBE
	// encryption: 277 B. The paper reports 244 + 64 = 308 B with
	// compressed BN-256 points. Ours are compressed too (32 B G1 points
	// for the multisignature and the ciphertext element), and the IBE
	// overhead is 48 B; the plaintext is 229 B against the paper's 244.
	EncryptedFriendRequestSize = FriendRequestSize + ibe.Overhead

	// AddFriendPayloadSize is the innermost mixnet payload for the
	// add-friend protocol: destination mailbox ID plus the IBE
	// ciphertext (Algorithm 1, step 2).
	AddFriendPayloadSize = 4 + EncryptedFriendRequestSize

	// DialPayloadSize is the innermost mixnet payload for the dialing
	// protocol: destination mailbox ID plus a 256-bit dial token.
	DialPayloadSize = 4 + keywheel.TokenSize
)

// PayloadSize returns the innermost mixnet payload size for a service.
func PayloadSize(s Service) int {
	switch s {
	case AddFriend:
		return AddFriendPayloadSize
	case Dialing:
		return DialPayloadSize
	default:
		panic("wire: unknown service")
	}
}

// OnionSize returns the size of a client request onion for a service
// through n mixnet hops.
func OnionSize(s Service, n int) int {
	return onionbox.OnionSize(PayloadSize(s), n)
}

// FriendRequest is the plaintext of an add-friend message (Figure 3 of the
// paper). SenderSig covers (SenderEmail, SenderKey, DialingKey,
// DialingRound); PKGSigs is the PKGs' BLS multisignature over (SenderEmail,
// SenderKey, Round) issued during key extraction.
type FriendRequest struct {
	SenderEmail  string
	SenderKey    ed25519.PublicKey // long-term signing key
	SenderSig    []byte            // 64-byte ed25519 signature
	PKGSigs      []byte            // 32-byte BLS multisignature
	DialingKey   []byte            // 32-byte X25519 ephemeral public key
	DialingRound uint32            // keywheel start round (w)
}

// SigningMessage returns the canonical bytes covered by SenderSig.
func (fr *FriendRequest) SigningMessage() []byte {
	b := NewBuffer(nil)
	b.Raw([]byte("alpenhorn/friend-request-sig:"))
	b.PaddedString(fr.SenderEmail, MaxEmailLen)
	b.Raw(fr.SenderKey)
	b.Raw(fr.DialingKey)
	b.Uint32(fr.DialingRound)
	return b.Bytes()
}

// AttestationMessage returns the canonical bytes that each PKG signs when a
// user extracts their round key: the binding of identity to long-term key
// for one round (§4.5).
func AttestationMessage(email string, signingKey ed25519.PublicKey, round uint32) []byte {
	b := NewBuffer(nil)
	b.Raw([]byte("alpenhorn/pkg-attestation:"))
	b.PaddedString(email, MaxEmailLen)
	b.Raw(signingKey)
	b.Uint32(round)
	return b.Bytes()
}

// Marshal encodes the friend request into exactly FriendRequestSize bytes.
func (fr *FriendRequest) Marshal() ([]byte, error) {
	if len(fr.SenderEmail) > MaxEmailLen {
		return nil, fmt.Errorf("wire: email longer than %d bytes", MaxEmailLen)
	}
	if len(fr.SenderKey) != ed25519.PublicKeySize {
		return nil, errors.New("wire: bad sender key size")
	}
	if len(fr.SenderSig) != ed25519.SignatureSize {
		return nil, errors.New("wire: bad sender signature size")
	}
	if len(fr.PKGSigs) != bls.SignatureSize {
		return nil, errors.New("wire: bad PKG multisignature size")
	}
	if len(fr.DialingKey) != 32 {
		return nil, errors.New("wire: bad dialing key size")
	}
	b := NewBuffer(make([]byte, 0, FriendRequestSize))
	b.PaddedString(fr.SenderEmail, MaxEmailLen)
	b.Raw(fr.SenderKey)
	b.Raw(fr.SenderSig)
	b.Raw(fr.PKGSigs)
	b.Raw(fr.DialingKey)
	b.Uint32(fr.DialingRound)
	out := b.Bytes()
	if len(out) != FriendRequestSize {
		panic("wire: friend request size drifted")
	}
	return out, nil
}

// UnmarshalFriendRequest decodes a friend request.
func UnmarshalFriendRequest(data []byte) (*FriendRequest, error) {
	if len(data) != FriendRequestSize {
		return nil, fmt.Errorf("wire: friend request is %d bytes, want %d", len(data), FriendRequestSize)
	}
	r := NewReader(data)
	fr := &FriendRequest{
		SenderEmail:  r.PaddedString(MaxEmailLen),
		SenderKey:    ed25519.PublicKey(r.Raw(32)),
		SenderSig:    r.Raw(64),
		PKGSigs:      r.Raw(bls.SignatureSize),
		DialingKey:   r.Raw(32),
		DialingRound: r.Uint32(),
	}
	if err := r.AllConsumed(); err != nil {
		return nil, err
	}
	return fr, nil
}

// MixPayload is the innermost payload of a request onion: the destination
// mailbox and the opaque request body (an encrypted friend request, or a
// dial token). Mailbox == CoverMailbox marks cover traffic that the last
// mixer discards.
type MixPayload struct {
	Mailbox uint32
	Body    []byte
}

// CoverMailbox is the sentinel mailbox ID for cover traffic. Real mailbox
// IDs are 0 ≤ id < NumMailboxes < CoverMailbox.
const CoverMailbox = ^uint32(0)

// Marshal encodes the payload; Body length is implied by the service.
func (m *MixPayload) Marshal() []byte {
	b := NewBuffer(make([]byte, 0, 4+len(m.Body)))
	b.Uint32(m.Mailbox)
	b.Raw(m.Body)
	return b.Bytes()
}

// UnmarshalMixPayload decodes a payload for the given service.
func UnmarshalMixPayload(s Service, data []byte) (*MixPayload, error) {
	if len(data) != PayloadSize(s) {
		return nil, fmt.Errorf("wire: %s payload is %d bytes, want %d", s, len(data), PayloadSize(s))
	}
	r := NewReader(data)
	m := &MixPayload{
		Mailbox: r.Uint32(),
		Body:    r.Raw(len(data) - 4),
	}
	return m, r.AllConsumed()
}
