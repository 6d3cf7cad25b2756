package pkgserver

import (
	"crypto/ed25519"
	"testing"
	"time"

	"alpenhorn/internal/email"
	"alpenhorn/internal/wire"
)

// manualClock is a settable clock for exercising time-based policies.
type manualClock struct {
	t time.Time
}

func (c *manualClock) Now() time.Time          { return c.t }
func (c *manualClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestPKG(t *testing.T) (*Server, *email.InMemoryProvider, *manualClock) {
	t.Helper()
	clock := &manualClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	provider := email.NewInMemoryProvider()
	s, err := New(Config{Name: "test", Provider: provider, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	return s, provider, clock
}

func register(t *testing.T, s *Server, provider *email.InMemoryProvider, addr string) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(addr, pub); err != nil {
		t.Fatal(err)
	}
	inbox := provider.Inbox(addr)
	if len(inbox) == 0 {
		t.Fatal("no confirmation email delivered")
	}
	token := inbox[len(inbox)-1].Body
	if err := s.ConfirmRegistration(addr, token); err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestRegistrationFlow(t *testing.T) {
	s, provider, _ := newTestPKG(t)
	pub, _ := register(t, s, provider, "alice@example.org")
	got, ok := s.Registered("alice@example.org")
	if !ok || !got.Equal(pub) {
		t.Fatal("registration did not stick")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.accounts["alice@example.org"]; len(s.accounts) != 1 || a == nil || a.status != statusVerified {
		t.Fatalf("accounts = %d, alice's %+v", len(s.accounts), a)
	}
}

func TestConfirmationRequiresToken(t *testing.T) {
	s, _, _ := newTestPKG(t)
	pub, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("bob@example.org", pub); err != nil {
		t.Fatal(err)
	}
	if err := s.ConfirmRegistration("bob@example.org", "wrong-token"); err != ErrBadToken {
		t.Fatalf("got %v, want ErrBadToken", err)
	}
	if _, ok := s.Registered("bob@example.org"); ok {
		t.Fatal("unconfirmed account reported as registered")
	}
}

func TestInvalidEmailRejected(t *testing.T) {
	s, _, _ := newTestPKG(t)
	pub, _, _ := ed25519.GenerateKey(nil)
	for _, addr := range []string{"", "no-at-sign", "@nodomain", "user@", "spaces in@addr.com"} {
		if err := s.Register(addr, pub); err == nil {
			t.Fatalf("invalid address %q accepted", addr)
		}
	}
}

func TestReRegistrationLockedToKey(t *testing.T) {
	// §4.6: "each PKG locks the user's email address to that user's
	// long-term signing key, to prevent anyone else (e.g., a malicious
	// email provider) from re-registering the address."
	s, provider, _ := newTestPKG(t)
	register(t, s, provider, "alice@example.org")

	// A different key — the attacker who controls the inbox — is
	// rejected even though they could read the confirmation email.
	attacker, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("alice@example.org", attacker); err != ErrAlreadyRegistered {
		t.Fatalf("got %v, want ErrAlreadyRegistered", err)
	}
}

func TestLockoutPolicyAllowsRecoveryAfter30Days(t *testing.T) {
	// §4.6: "if 30 days pass without a legitimate attempt to acquire the
	// user's IBE private key, a PKG allows re-registering that email
	// address with a new long-term signing key."
	s, provider, clock := newTestPKG(t)
	register(t, s, provider, "alice@example.org")

	clock.Advance(31 * 24 * time.Hour)

	newPub, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("alice@example.org", newPub); err != nil {
		t.Fatalf("re-registration after lockout: %v", err)
	}
	inbox := provider.Inbox("alice@example.org")
	token := inbox[len(inbox)-1].Body
	if err := s.ConfirmRegistration("alice@example.org", token); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Registered("alice@example.org")
	if !got.Equal(newPub) {
		t.Fatal("new key not installed")
	}
}

func TestActiveUserCannotBeHijacked(t *testing.T) {
	// A user who extracts keys regularly keeps refreshing lastSeen, so
	// the 30-day window never opens for the email-account attacker.
	s, provider, clock := newTestPKG(t)
	_, priv := register(t, s, provider, "alice@example.org")

	if _, err := s.NewRound(1); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 40; day += 20 {
		clock.Advance(20 * 24 * time.Hour)
		sig := ed25519.Sign(priv, ExtractMessage("alice@example.org", 1))
		if _, err := s.Extract("alice@example.org", 1, sig); err != nil {
			t.Fatal(err)
		}
	}
	attacker, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("alice@example.org", attacker); err != ErrAlreadyRegistered {
		t.Fatalf("active account hijacked: %v", err)
	}
}

func TestDeregisterAndLockout(t *testing.T) {
	// §9: deregistration is signed by the old key and starts a 30-day
	// lockout so the attacker can't immediately re-register.
	s, provider, clock := newTestPKG(t)
	pub, priv := register(t, s, provider, "alice@example.org")
	_ = pub

	// Unsigned/badly signed deregistration fails.
	if err := s.Deregister("alice@example.org", make([]byte, 64)); err != ErrBadSignature {
		t.Fatalf("got %v, want ErrBadSignature", err)
	}
	sig := ed25519.Sign(priv, DeregisterMessage("alice@example.org"))
	if err := s.Deregister("alice@example.org", sig); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Registered("alice@example.org"); ok {
		t.Fatal("account still registered after deregistration")
	}
	// Immediate re-registration (by anyone) is locked out.
	attacker, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("alice@example.org", attacker); err != ErrLockedOut {
		t.Fatalf("got %v, want ErrLockedOut", err)
	}
	// After 30 days the legitimate user can re-register via email.
	clock.Advance(LockoutPeriod + time.Hour)
	if err := s.Register("alice@example.org", attacker); err != nil {
		t.Fatalf("re-registration after lockout period: %v", err)
	}
}

func TestExtractRequiresAuth(t *testing.T) {
	s, provider, _ := newTestPKG(t)
	_, priv := register(t, s, provider, "alice@example.org")
	if _, err := s.NewRound(5); err != nil {
		t.Fatal(err)
	}

	// Valid extraction works and returns a verifiable attestation.
	sig := ed25519.Sign(priv, ExtractMessage("alice@example.org", 5))
	reply, err := s.Extract("alice@example.org", 5, sig)
	if err != nil {
		t.Fatal(err)
	}
	if reply.IdentityKey == nil || reply.Attestation == nil {
		t.Fatal("incomplete extract reply")
	}

	// Wrong signature fails.
	if _, err := s.Extract("alice@example.org", 5, make([]byte, 64)); err != ErrBadSignature {
		t.Fatalf("got %v, want ErrBadSignature", err)
	}
	// Signature for a different round fails (no replay).
	sigOther := ed25519.Sign(priv, ExtractMessage("alice@example.org", 6))
	if _, err := s.Extract("alice@example.org", 5, sigOther); err != ErrBadSignature {
		t.Fatalf("round-replay: got %v, want ErrBadSignature", err)
	}
	// Unregistered user fails.
	if _, err := s.Extract("mallory@example.org", 5, sig); err != ErrNotRegistered {
		t.Fatalf("got %v, want ErrNotRegistered", err)
	}
}

func TestForwardSecrecyRoundKeyDeletion(t *testing.T) {
	// §4.4: after CloseRound the master secret is destroyed; extraction
	// for that round must fail forever.
	s, provider, _ := newTestPKG(t)
	_, priv := register(t, s, provider, "alice@example.org")
	if _, err := s.NewRound(7); err != nil {
		t.Fatal(err)
	}
	if !s.RoundOpen(7) {
		t.Fatal("round not open")
	}
	s.CloseRound(7)
	if s.RoundOpen(7) {
		t.Fatal("round still open after close")
	}
	sig := ed25519.Sign(priv, ExtractMessage("alice@example.org", 7))
	if _, err := s.Extract("alice@example.org", 7, sig); err != ErrRoundClosed {
		t.Fatalf("got %v, want ErrRoundClosed", err)
	}
	// Reopening a closed round must fail too.
	if _, err := s.NewRound(7); err != ErrRoundClosed {
		t.Fatalf("got %v, want ErrRoundClosed", err)
	}
}

// TestRoundHorizon: opening a round erases every earlier round still
// open, whether or not its close arrived, and the PKG remembers only the
// newest roundsKept rounds; an older one is refused as closed.
func TestRoundHorizon(t *testing.T) {
	s, _, _ := newTestPKG(t)
	const newest = 100
	for r := uint32(1); r <= newest; r++ {
		if _, err := s.NewRound(r); err != nil {
			t.Fatal(err)
		}
	}
	for r := uint32(1); r <= newest; r++ {
		if s.RoundOpen(r) != (r == newest) {
			t.Fatalf("round %d open = %v after round %d opened", r, s.RoundOpen(r), newest)
		}
	}
	if len(s.rounds) != roundsKept {
		t.Fatalf("PKG remembers %d rounds, want %d", len(s.rounds), roundsKept)
	}
	oldest := uint32(newest - roundsKept + 1)
	if _, ok := s.rounds[oldest]; !ok {
		t.Fatalf("round %d, %d below the newest, forgotten", oldest, roundsKept-1)
	}
	for _, r := range []uint32{1, oldest - 1, oldest} {
		if _, err := s.NewRound(r); err != ErrRoundClosed {
			t.Fatalf("NewRound(%d) after round %d: %v, want ErrRoundClosed", r, newest, err)
		}
	}
	if len(s.rounds) != roundsKept || !s.RoundOpen(newest) {
		t.Fatal("a refused NewRound changed the PKG's rounds")
	}
}

func TestRoundKeyAnnouncementSigned(t *testing.T) {
	s, _, _ := newTestPKG(t)
	rk, err := s.NewRound(3)
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.PKGKeyMessage(3, rk.MasterKey)
	if !ed25519.Verify(s.SigningKey(), msg, rk.Sig) {
		t.Fatal("round key announcement signature invalid")
	}
	// Idempotent: same key while open.
	rk2, err := s.NewRound(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(rk.MasterKey) != string(rk2.MasterKey) {
		t.Fatal("NewRound not idempotent")
	}
}

// TestNewRoundV2CrossVersionConsistency holds NewRoundV2, the forwarder
// bench/walk.go and bench/probe.go still call, to NewRound: in either probe
// order it hands out the same master key and signature for an open round,
// that signature verifies under the one PKGKeyMessage domain and not under
// the Tate-era tag, and a closed round refuses both names.
func TestNewRoundV2CrossVersionConsistency(t *testing.T) {
	s, _, _ := newTestPKG(t)
	tateMessage := func(round uint32, masterKey []byte) []byte {
		b := wire.NewBuffer(nil)
		b.Raw([]byte("alpenhorn/pkg-round-key:"))
		b.Uint32(round)
		b.Raw(masterKey)
		return b.Bytes()
	}
	for _, c := range []struct {
		round    uint32
		v2First  bool
		scenario string
	}{{5, true, "NewRoundV2 first"}, {6, false, "NewRound first"}} {
		var rk, rkV2 wire.PKGRoundKey
		var err, errV2 error
		if c.v2First {
			rkV2, errV2 = s.NewRoundV2(c.round)
			rk, err = s.NewRound(c.round)
		} else {
			rk, err = s.NewRound(c.round)
			rkV2, errV2 = s.NewRoundV2(c.round)
		}
		if err != nil || errV2 != nil {
			t.Fatalf("%s: NewRound err=%v, NewRoundV2 err=%v", c.scenario, err, errV2)
		}
		if string(rkV2.MasterKey) != string(rk.MasterKey) || string(rkV2.Sig) != string(rk.Sig) {
			t.Fatalf("%s: the two names announce different keys for one round", c.scenario)
		}
		if !ed25519.Verify(s.SigningKey(), wire.PKGKeyMessage(c.round, rkV2.MasterKey), rkV2.Sig) {
			t.Fatalf("%s: announcement signature invalid", c.scenario)
		}
		if ed25519.Verify(s.SigningKey(), tateMessage(c.round, rkV2.MasterKey), rkV2.Sig) {
			t.Fatalf("%s: announcement verifies under the Tate-era domain tag", c.scenario)
		}
	}
	s.CloseRound(5)
	if _, err := s.NewRoundV2(5); err != ErrRoundClosed {
		t.Fatalf("NewRoundV2 on a closed round: %v, want ErrRoundClosed", err)
	}
	if _, err := s.NewRound(5); err != ErrRoundClosed {
		t.Fatalf("NewRound on a closed round: %v, want ErrRoundClosed", err)
	}
}

func TestFailingEmailProvider(t *testing.T) {
	s, err := New(Config{Name: "x", Provider: email.FailingProvider{}})
	if err != nil {
		t.Fatal(err)
	}
	pub, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("alice@example.org", pub); err == nil {
		t.Fatal("registration succeeded with failing email delivery")
	}
}

func TestCompromisedEmailProviderCannotStealActiveAccount(t *testing.T) {
	// End-to-end version of the §4.6 threat: the provider is
	// compromised from the start of the attack, reads all mail, and
	// withholds it from the victim — but the victim registered first
	// and stays active.
	s, provider, _ := newTestPKG(t)
	register(t, s, provider, "victim@example.org")

	provider.Compromise("victim@example.org", true)
	attacker, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("victim@example.org", attacker); err != ErrAlreadyRegistered {
		t.Fatalf("got %v, want ErrAlreadyRegistered", err)
	}
	if len(provider.Stolen("victim@example.org")) != 0 {
		t.Fatal("no new confirmation mail should have been sent")
	}
}

func TestRegistrationExpiry(t *testing.T) {
	s, provider, clock := newTestPKG(t)
	pub, _, _ := ed25519.GenerateKey(nil)
	if err := s.Register("slow@example.org", pub); err != nil {
		t.Fatal(err)
	}
	token := provider.Inbox("slow@example.org")[0].Body
	clock.Advance(25 * time.Hour)
	if err := s.ConfirmRegistration("slow@example.org", token); err != ErrRegistrationExpired {
		t.Fatalf("got %v, want ErrRegistrationExpired", err)
	}
}
