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
// folding the randomizer into the G1 argument (a(r·mpk, Q)) must produce
// the exact ciphertext bytes of the textbook formula (a(mpk, Q)^r), for
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

	// The textbook construction, replayed on the same stream.
	rnd := &deterministicReader{key: []byte("pin")}
	r, err := bn254.RandomScalar(rnd)
	if err != nil {
		t.Fatal(err)
	}
	u := new(bn254.G1).ScalarBaseMult(r)
	q := bn254.HashToG2("bf-ibe-identity", []byte("bob@example.org"))
	g := bn254.AtePair(pub.p, q)
	g.Exp(g, r)
	want := append(u.Marshal(), aeadSeal(sealKey(g), msg)...)

	if !bytes.Equal(ctxt, want) {
		t.Fatal("folded-exponent Encrypt changed ciphertext bytes")
	}
}

// TestPrecomputeEquivalence checks that precomputed identity keys decrypt
// identically to plain keys, across aggregation and erasure.
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
	plain, err := Encrypt(&deterministicReader{key: []byte("eq")}, agg, "carol@example.org", []byte("hi"))
	if err != nil {
		t.Fatal(err)
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
		t.Fatal("Erase left the line table behind")
	}
	if _, ok := Decrypt(combined, plain); ok {
		t.Fatal("erased key still decrypts")
	}
}

// TestIdentityKeyEraseScrubsLineTable pins that Erase erases the key's
// line table in place, not just the reference to it: the table is derived
// from the key, so a scan worker still holding it must find it dead
// (bn254's TestPrecomputedG2Erase pins that an erased table reads all
// zero). After Erase the key decrypts nothing, on the scalar and batch
// paths.
func TestIdentityKeyEraseScrubsLineTable(t *testing.T) {
	pub, priv, err := Setup(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const identity = "erin@example.org"
	ipk := Extract(priv, identity).Precompute()
	ctxt, err := Encrypt(rand.Reader, pub, identity, []byte("before erase"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Decrypt(ipk, ctxt); !ok {
		t.Fatal("fresh key does not decrypt")
	}
	table := ipk.pre
	probe := bn254.G1Generator()
	if table.Pair(probe).IsOne() {
		t.Fatal("line table pairs to the identity before Erase")
	}
	ipk.Erase()
	if !table.Pair(probe).IsOne() {
		t.Fatal("the erased table still pairs like the key")
	}
	if _, ok := Decrypt(ipk, ctxt); ok {
		t.Fatal("erased key still decrypts")
	}
	if _, oks := DecryptBatch(ipk, [][]byte{ctxt, ctxt}); oks[0] || oks[1] {
		t.Fatal("erased key still batch-decrypts")
	}
}
