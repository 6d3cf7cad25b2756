package ibe_test

import (
	"crypto/rand"
	"testing"

	"alpenhorn/internal/ibe"
	"alpenhorn/internal/wire"
)

// BenchmarkIBESweep is T8 (§8.6): Alpenhorn's costs scale linearly in the
// underlying IBE's three operations — encryption (the sender),
// extraction (each PKG, per user per round) and trial decryption (the
// recipient's scan, per mailbox entry) — timed here on a friend request.
func BenchmarkIBESweep(b *testing.B) {
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, wire.FriendRequestSize)
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ibe.Encrypt(rand.Reader, pub, "bob@x.org", msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ibe.Extract(priv, "bob@x.org")
		}
	})
	b.Run("decrypt", func(b *testing.B) {
		ctxt, err := ibe.Encrypt(rand.Reader, pub, "bob@x.org", msg)
		if err != nil {
			b.Fatal(err)
		}
		key := ibe.Extract(priv, "bob@x.org").Precompute()
		buf := make([]byte, 0, len(msg))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := ibe.DecryptAppend(buf, key, ctxt); !ok {
				b.Fatal("decrypt failed")
			}
		}
	})
}
