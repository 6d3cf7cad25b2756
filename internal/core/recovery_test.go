package core_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"alpenhorn/internal/core"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/sim"
)

// TestCompromiseRecovery runs the full §9 procedure: Alice's machine is
// compromised; she deregisters, re-keys, re-registers after the lockout,
// and re-establishes her friendship with Bob using the offline key backup —
// all while the adversary holds her old keys.
func TestCompromiseRecovery(t *testing.T) {
	clock := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	skipIfShort(t)
	net, err := sim.NewNetwork(sim.Config{Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice, err := net.NewClient("alice@example.org", ha)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.NewClient("bob@example.org", hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Befriend(alice, bob, 1); err != nil {
		t.Fatal(err)
	}

	// Alice keeps the recommended offline backup.
	backup := alice.ExportBackup()
	if !bytes.Equal(backup.Friends[bob.Email()], bob.SigningKey()) {
		t.Fatal("backup missing bob's key")
	}
	oldKey := alice.SigningKey()

	// Compromise day: Alice recovers.
	if err := alice.RecoverFromCompromise(context.Background(), backup); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(alice.SigningKey(), oldKey) {
		t.Fatal("signing key not rotated")
	}
	if alice.IsFriend(bob.Email()) {
		t.Fatal("friend list not burned")
	}

	// The adversary (holding the OLD key) cannot re-register the address
	// during the lockout.
	for i, pkg := range net.PKGs {
		if err := pkg.Register("alice@example.org", oldKey); err != pkgserver.ErrLockedOut {
			t.Fatalf("PKG %d: adversary registration got %v, want ErrLockedOut", i, err)
		}
	}

	// After the lockout period Alice re-registers with her NEW key via
	// email confirmation.
	clock = clock.Add(pkgserver.LockoutPeriod + time.Hour)
	if err := alice.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := net.ConfirmAll(alice); err != nil {
		t.Fatal(err)
	}

	// Re-friending runs with Bob's key pinned from the backup; Bob's
	// handler sees a fresh request from Alice and accepts.
	clients := []*core.Client{alice, bob}
	if err := net.RunAddFriendRound(10, clients); err != nil {
		t.Fatal(err)
	}
	if err := net.RunAddFriendRound(11, clients); err != nil {
		t.Fatal(err)
	}
	if !alice.IsFriend(bob.Email()) || !bob.IsFriend(alice.Email()) {
		t.Fatal("friendship not re-established after recovery")
	}

	// And calls work again with fresh keywheels.
	if err := alice.Call(bob.Email(), 0); err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 16; r++ {
		if err := net.RunDialRound(r, clients); err != nil {
			t.Fatal(err)
		}
		if len(hb.IncomingCalls()) > 0 {
			break
		}
	}
	if len(hb.IncomingCalls()) == 0 {
		t.Fatal("no call after recovery")
	}
}
