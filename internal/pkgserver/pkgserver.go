// Package pkgserver implements an Alpenhorn private-key generator (PKG).
//
// Each PKG independently verifies user identities via email confirmation
// (§4.6), generates a fresh IBE master key every add-friend round and
// deletes it when the round closes (§4.4), extracts per-round identity
// private keys for authenticated users, and attests to the binding between
// an email address and a long-term signing key with a BLS signature that
// clients aggregate into the PKGSigs multisignature (§4.5).
//
// Alpenhorn runs several PKGs in an anytrust configuration: the system
// stays private as long as any one of them is honest.
package pkgserver

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/email"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/wire"
)

// LockoutPeriod is the paper's 30-day account lockout (§4.6): an email
// address can be re-registered with a new key only after this long without
// a legitimate key extraction, and a deregistered account stays locked for
// the same period.
const LockoutPeriod = 30 * 24 * time.Hour

// Errors returned to clients. These are part of the protocol surface.
var (
	ErrAlreadyRegistered   = errors.New("pkg: email already registered with a different key")
	ErrNotRegistered       = errors.New("pkg: email not registered")
	ErrBadToken            = errors.New("pkg: wrong confirmation token")
	ErrNotVerified         = errors.New("pkg: registration not confirmed")
	ErrBadSignature        = errors.New("pkg: bad signature")
	ErrRoundNotOpen        = errors.New("pkg: round not open")
	ErrRoundClosed         = errors.New("pkg: round master key destroyed (forward secrecy)")
	ErrLockedOut           = errors.New("pkg: account in lockout period")
	ErrInvalidEmail        = errors.New("pkg: invalid email address")
	ErrRegistrationExpired = errors.New("pkg: pending registration expired")
)

type accountStatus int

const (
	statusPending accountStatus = iota
	statusVerified
	statusDeregistered
)

type account struct {
	email      string
	signingKey ed25519.PublicKey
	status     accountStatus

	// pendingToken is the emailed confirmation secret.
	pendingToken string
	pendingKey   ed25519.PublicKey
	pendingSince time.Time

	// lastSeen is the last successful key extraction (drives the 30-day
	// lockout policy).
	lastSeen time.Time

	// lockedUntil blocks re-registration after deregistration.
	lockedUntil time.Time
}

type roundState struct {
	pub    *ibe.MasterPublicKey
	priv   *ibe.MasterPrivateKey
	closed bool
}

// Server is a single PKG. It is safe for concurrent use.
type Server struct {
	// Name identifies the PKG in logs and test output.
	Name string

	signingPub  ed25519.PublicKey
	signingPriv ed25519.PrivateKey
	blsPub      *bls.PublicKey
	blsPriv     *bls.PrivateKey

	provider email.Provider
	now      func() time.Time
	randSrc  io.Reader

	mu       sync.Mutex
	accounts map[string]*account
	rounds   map[uint32]*roundState
	newest   uint32 // the newest round NewRound opened

	// extractions counts successful key extractions (for benchmarks).
	extractions uint64
}

// Config configures a new PKG server.
type Config struct {
	Name     string
	Provider email.Provider
	// Now supplies the clock; defaults to time.Now. Tests inject a
	// manual clock to exercise the 30-day policies.
	Now func() time.Time
	// Rand supplies randomness; defaults to crypto/rand.
	Rand io.Reader
}

// New creates a PKG with fresh long-term keys.
func New(cfg Config) (*Server, error) {
	if cfg.Provider == nil {
		return nil, errors.New("pkg: config needs an email provider")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	edPub, edPriv, err := ed25519.GenerateKey(cfg.Rand)
	if err != nil {
		return nil, err
	}
	blsPub, blsPriv, err := bls.GenerateKey(cfg.Rand)
	if err != nil {
		return nil, err
	}
	return &Server{
		Name:        cfg.Name,
		signingPub:  edPub,
		signingPriv: edPriv,
		blsPub:      blsPub,
		blsPriv:     blsPriv,
		provider:    cfg.Provider,
		now:         cfg.Now,
		randSrc:     cfg.Rand,
		accounts:    make(map[string]*account),
		rounds:      make(map[uint32]*roundState),
	}, nil
}

// SigningKey returns the PKG's long-term ed25519 public key (pinned in the
// client software package).
func (s *Server) SigningKey() ed25519.PublicKey { return s.signingPub }

// BLSKey returns the PKG's long-term BLS attestation key.
func (s *Server) BLSKey() *bls.PublicKey { return s.blsPub }

// ---- Registration (§4.6) ----

// Register begins registration of an email address with a long-term
// signing key. The PKG emails a confirmation token to the address; the
// registration completes when the user echoes the token via
// ConfirmRegistration.
func (s *Server) Register(addr string, signingKey ed25519.PublicKey) error {
	if !email.ValidAddress(addr) || len(addr) > wire.MaxEmailLen {
		return ErrInvalidEmail
	}
	if len(signingKey) != ed25519.PublicKeySize {
		return ErrBadSignature
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()

	acct, exists := s.accounts[addr]
	if exists {
		switch acct.status {
		case statusVerified:
			if acct.signingKey.Equal(signingKey) {
				return nil // idempotent re-registration of same key
			}
			// Re-registration with a NEW key is only allowed after
			// the lockout period of inactivity — this is what stops
			// an adversary who merely controls the email account
			// from hijacking an active Alpenhorn account.
			if now.Sub(acct.lastSeen) < LockoutPeriod {
				return ErrAlreadyRegistered
			}
		case statusDeregistered:
			if now.Before(acct.lockedUntil) {
				return ErrLockedOut
			}
		case statusPending:
			// Replace the pending registration below.
		}
	}

	tokenBytes := make([]byte, 16)
	if _, err := io.ReadFull(s.randSrc, tokenBytes); err != nil {
		return err
	}
	token := hex.EncodeToString(tokenBytes)

	if err := s.provider.Send(email.Message{
		From:    fmt.Sprintf("pkg-%s@alpenhorn", s.Name),
		To:      addr,
		Subject: "Alpenhorn registration confirmation",
		Body:    token,
	}); err != nil {
		return fmt.Errorf("pkg: sending confirmation: %w", err)
	}

	if !exists {
		acct = &account{email: addr}
		s.accounts[addr] = acct
	}
	acct.status = statusPending
	acct.pendingToken = token
	acct.pendingKey = signingKey
	acct.pendingSince = now
	return nil
}

// ConfirmRegistration completes a registration by echoing the emailed
// token. On success the email address is locked to the signing key.
func (s *Server) ConfirmRegistration(addr, token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[addr]
	if !ok || acct.status != statusPending {
		return ErrNotRegistered
	}
	if s.now().Sub(acct.pendingSince) > 24*time.Hour {
		return ErrRegistrationExpired
	}
	if acct.pendingToken == "" || token != acct.pendingToken {
		return ErrBadToken
	}
	acct.status = statusVerified
	acct.signingKey = acct.pendingKey
	acct.pendingToken = ""
	acct.pendingKey = nil
	acct.lastSeen = s.now()
	return nil
}

// DeregisterMessage returns the canonical bytes a user signs to
// deregister (§9: recovery from client compromise).
func DeregisterMessage(addr string) []byte {
	return append([]byte("alpenhorn/pkg-deregister:"), addr...)
}

// Deregister removes an account at the (signed) request of its owner and
// starts the lockout period, so the adversary who compromised the client
// cannot immediately re-register the address.
func (s *Server) Deregister(addr string, sig []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[addr]
	if !ok || acct.status != statusVerified {
		return ErrNotRegistered
	}
	if !ed25519.Verify(acct.signingKey, DeregisterMessage(addr), sig) {
		return ErrBadSignature
	}
	acct.status = statusDeregistered
	acct.signingKey = nil
	acct.lockedUntil = s.now().Add(LockoutPeriod)
	return nil
}

// Registered reports whether addr has a verified account, and if so with
// which key.
func (s *Server) Registered(addr string) (ed25519.PublicKey, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[addr]
	if !ok || acct.status != statusVerified {
		return nil, false
	}
	return acct.signingKey, true
}

// ---- Rounds (§4.4) ----

// roundsKept is how many rounds a PKG remembers, the newest among them,
// as an entry server does. NewRound refuses a round further back: the PKG
// no longer knows whether it held that round, so it must not mint it a
// master key.
const roundsKept = 65

// forgottenLocked reports whether round is roundsKept or more rounds below
// the newest. Caller holds s.mu.
func (s *Server) forgottenLocked(round uint32) bool {
	return round < s.newest && s.newest-round >= roundsKept
}

// NewRound generates this PKG's IBE master key pair for an add-friend
// round and returns the signed public-key announcement for the round
// settings. Calling it again for the same open round returns the same key.
//
// A coordinator opens an add-friend round only after the previous one's
// close returns, so NewRound erases the master secret of every round
// below this one still open: a round whose CloseRound never reached this
// PKG dies here instead of living forever.
func (s *Server) NewRound(round uint32) (wire.PKGRoundKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[round]
	if ok && st.closed || s.forgottenLocked(round) {
		return wire.PKGRoundKey{}, ErrRoundClosed
	}
	if !ok {
		pub, priv, err := ibe.Setup(s.randSrc)
		if err != nil {
			return wire.PKGRoundKey{}, err
		}
		st = &roundState{pub: pub, priv: priv}
		s.rounds[round] = st
		s.newest = max(s.newest, round)
	}
	for r := range s.rounds {
		if r < round {
			s.closeLocked(r)
		}
		if s.forgottenLocked(r) {
			delete(s.rounds, r)
		}
	}
	mk := st.pub.Marshal()
	return wire.PKGRoundKey{
		MasterKey: mk,
		Sig:       ed25519.Sign(s.signingPriv, wire.PKGKeyMessage(round, mk)),
	}, nil
}

// Deprecated: NewRoundV2 is NewRound; bench/walk.go and bench/probe.go, frozen for this PR, call it.
func (s *Server) NewRoundV2(round uint32) (wire.PKGRoundKey, error) { return s.NewRound(round) }

// CloseRound destroys the round's master secret. After this, even a full
// compromise of the PKG cannot decrypt the round's friend requests — the
// paper's forward-secrecy guarantee for metadata (§4.4).
func (s *Server) CloseRound(round uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked(round)
}

// closeLocked erases round's master secret. Caller holds s.mu.
func (s *Server) closeLocked(round uint32) {
	st, ok := s.rounds[round]
	if !ok || st.closed {
		return
	}
	st.priv.Erase()
	st.priv = nil
	st.closed = true
}

// RoundOpen reports whether the round's master secret still exists.
func (s *Server) RoundOpen(round uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.rounds[round]
	return ok && !st.closed
}

// ---- Key extraction (Algorithm 1, step 1) ----

// ExtractMessage returns the canonical bytes a user signs to authenticate
// a key-extraction request.
func ExtractMessage(addr string, round uint32) []byte {
	b := wire.NewBuffer(nil)
	b.Raw([]byte("alpenhorn/pkg-extract:"))
	b.PaddedString(addr, wire.MaxEmailLen)
	b.Uint32(round)
	return b.Bytes()
}

// ExtractReply is the PKG's response to a key extraction: the user's
// identity private key share for the round, and the PKG's BLS attestation
// of (email, signingKey, round), which clients aggregate into PKGSigs.
type ExtractReply struct {
	IdentityKey *ibe.IdentityPrivateKey
	Attestation *bls.Signature
}

// Extract authenticates the user by their long-term signing key and
// returns their identity private key share for the round. It also refreshes
// the account's lastSeen time: as long as a user extracts keys at least
// once every 30 days, their account cannot be hijacked through their email
// provider (§4.6).
func (s *Server) Extract(addr string, round uint32, sig []byte) (*ExtractReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[addr]
	if !ok {
		return nil, ErrNotRegistered
	}
	if acct.status != statusVerified {
		return nil, ErrNotVerified
	}
	if !ed25519.Verify(acct.signingKey, ExtractMessage(addr, round), sig) {
		return nil, ErrBadSignature
	}
	st, ok := s.rounds[round]
	if !ok {
		return nil, ErrRoundNotOpen
	}
	if st.closed {
		return nil, ErrRoundClosed
	}
	acct.lastSeen = s.now()
	s.extractions++
	return &ExtractReply{
		IdentityKey: ibe.Extract(st.priv, addr),
		Attestation: bls.Sign(s.blsPriv, wire.AttestationMessage(addr, acct.signingKey, round)),
	}, nil
}

// Extractions returns the number of successful extractions served.
func (s *Server) Extractions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.extractions
}
