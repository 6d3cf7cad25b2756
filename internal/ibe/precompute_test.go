package ibe

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"testing"

	"alpenhorn/internal/bn254"
)

// deterministicReader yields an unbounded keyed stream so two Encrypt
// calls can be replayed byte-for-byte.
type deterministicReader struct {
	key   []byte
	block [sha256.Size]byte
	off   int
	ctr   uint64
}

func (d *deterministicReader) Read(p []byte) (int, error) {
	for i := range p {
		if d.off == 0 {
			h := sha256.New()
			h.Write(d.key)
			var c [8]byte
			for j := 0; j < 8; j++ {
				c[j] = byte(d.ctr >> (8 * j))
			}
			h.Write(c[:])
			h.Sum(d.block[:0])
			d.ctr++
		}
		p[i] = d.block[d.off]
		d.off = (d.off + 1) % sha256.Size
	}
	return len(p), nil
}

// TestEncryptFoldedExponentMatchesGTExp pins the Encrypt hot-path rewrite:
// folding the randomizer into the G1 argument (a(r·Q, mpk)) must produce
// the exact ciphertext bytes of the original formula (a(Q, mpk)^r), for
// the same randomness.
func TestEncryptFoldedExponentMatchesGTExp(t *testing.T) {
	pub, _, err := Setup(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("fold the exponent into the curve")

	ctxt, err := Encrypt(&deterministicReader{key: []byte("pin")}, pub, "bob@example.org", msg)
	if err != nil {
		t.Fatal(err)
	}

	// The original construction, replayed on the same stream.
	rnd := &deterministicReader{key: []byte("pin")}
	r, err := bn254.RandomScalar(rnd)
	if err != nil {
		t.Fatal(err)
	}
	u := new(bn254.G2).ScalarBaseMult(r)
	q := bn254.HashToG1("bf-ibe-identity", []byte("bob@example.org"))
	g := bn254.AtePair(q, pub.p)
	g.Exp(g, r)
	want := append(u.Marshal(), aeadSeal(sealKey(g), msg)...)

	if !bytes.Equal(ctxt, want) {
		t.Fatal("folded-exponent Encrypt changed ciphertext bytes")
	}
}

// TestPrecomputeEquivalence checks that precomputed keys encrypt and
// decrypt identically to plain keys, across aggregation and erasure.
func TestPrecomputeEquivalence(t *testing.T) {
	pub1, priv1, err := Setup(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pub2, priv2, err := Setup(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregateMasterKeys(pub1, pub2)
	combined := AggregatePrivateKeys(
		Extract(priv1, "carol@example.org"),
		Extract(priv2, "carol@example.org"),
	)

	// Same randomness, precomputed vs not: identical ciphertext.
	plain, err := Encrypt(&deterministicReader{key: []byte("eq")}, agg, "carol@example.org", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	aggPre := AggregateMasterKeys(pub1, pub2).Precompute()
	pre, err := Encrypt(&deterministicReader{key: []byte("eq")}, aggPre, "carol@example.org", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, pre) {
		t.Fatal("precomputed master key changed ciphertext bytes")
	}

	// Decrypt with and without the identity-key precomputation.
	if pt, ok := Decrypt(combined, plain); !ok || string(pt) != "hi" {
		t.Fatal("plain decrypt failed")
	}
	combined.Precompute()
	if pt, ok := Decrypt(combined, plain); !ok || string(pt) != "hi" {
		t.Fatal("precomputed decrypt failed")
	}

	// Wrong-identity trial decryption must still fail cleanly on the
	// precomputed path (the mailbox-scan rejection case).
	other := AggregatePrivateKeys(
		Extract(priv1, "dave@example.org"),
		Extract(priv2, "dave@example.org"),
	).Precompute()
	if _, ok := Decrypt(other, plain); ok {
		t.Fatal("precomputed decrypt accepted someone else's ciphertext")
	}

	// Erase drops the precomputation along with the key.
	combined.Precompute()
	combined.Erase()
	if combined.pre != nil {
		t.Fatal("Erase left the Miller-loop precomputation behind")
	}
	if _, ok := Decrypt(combined, plain); ok {
		t.Fatal("erased key still decrypts")
	}
}
