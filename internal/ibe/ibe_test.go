package ibe

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"testing"

	"alpenhorn/internal/bn254"
)

func setupN(t testing.TB, n int) (pubs []*MasterPublicKey, privs []*MasterPrivateKey) {
	t.Helper()
	for i := 0; i < n; i++ {
		pub, priv, err := Setup(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
		privs = append(privs, priv)
	}
	return pubs, privs
}

func TestEncryptDecryptSinglePKG(t *testing.T) {
	pubs, privs := setupN(t, 1)
	msg := []byte("hello bob, this is alice")
	ctxt, err := Encrypt(rand.Reader, pubs[0], "bob@example.org", msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctxt) != len(msg)+Overhead {
		t.Fatalf("ciphertext length %d, want %d", len(ctxt), len(msg)+Overhead)
	}
	key := Extract(privs[0], "bob@example.org")
	got, ok := Decrypt(key, ctxt)
	if !ok {
		t.Fatal("decryption failed")
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext")
	}
}

func TestDecryptWrongIdentityFails(t *testing.T) {
	pubs, privs := setupN(t, 1)
	ctxt, err := Encrypt(rand.Reader, pubs[0], "bob@example.org", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	evil := Extract(privs[0], "eve@example.org")
	if _, ok := Decrypt(evil, ctxt); ok {
		t.Fatal("decryption with wrong identity key succeeded")
	}
}

func TestAnytrustAggregation(t *testing.T) {
	// The paper's core construction: encrypt under ΣMᵢpub, decrypt with
	// Σ identityᵢpriv (§4.2).
	pubs, privs := setupN(t, 3)
	agg := AggregateMasterKeys(pubs...)

	msg := []byte("anytrust friend request payload")
	ctxt, err := Encrypt(rand.Reader, agg, "bob@example.org", msg)
	if err != nil {
		t.Fatal(err)
	}

	var idKeys []*IdentityPrivateKey
	for _, priv := range privs {
		idKeys = append(idKeys, Extract(priv, "bob@example.org"))
	}
	combined := AggregatePrivateKeys(idKeys...)

	got, ok := Decrypt(combined, ctxt)
	if !ok {
		t.Fatal("anytrust decryption failed")
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext")
	}
}

func TestAnytrustMissingShareFails(t *testing.T) {
	// Decrypting with only 2 of 3 identity key shares must fail: this is
	// exactly why one honest PKG (whose share the adversary lacks)
	// protects the ciphertext.
	pubs, privs := setupN(t, 3)
	agg := AggregateMasterKeys(pubs...)
	ctxt, err := Encrypt(rand.Reader, agg, "bob@example.org", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	partial := AggregatePrivateKeys(
		Extract(privs[0], "bob@example.org"),
		Extract(privs[1], "bob@example.org"),
	)
	if _, ok := Decrypt(partial, ctxt); ok {
		t.Fatal("decryption without all shares succeeded")
	}
}

func TestCiphertextSizeIndependentOfPKGCount(t *testing.T) {
	msg := make([]byte, 100)
	for _, n := range []int{1, 3, 10} {
		pubs, _ := setupN(t, n)
		agg := AggregateMasterKeys(pubs...)
		ctxt, err := Encrypt(rand.Reader, agg, "bob@example.org", msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ctxt) != len(msg)+Overhead {
			t.Fatalf("n=%d: ciphertext length %d varies with PKG count", n, len(ctxt))
		}
	}
}

func TestCiphertextAnonymity(t *testing.T) {
	// Ciphertexts must not reveal the recipient: with the recipient's
	// key erased, the only component visible is a random group element
	// and an AEAD blob. We check the structural property that ciphertexts
	// to different identities are indistinguishable in form, and that a
	// mailbox scanner cannot distinguish "not for me" from "noise"
	// (both simply fail to decrypt).
	pubs, privs := setupN(t, 1)
	c1, _ := Encrypt(rand.Reader, pubs[0], "bob@example.org", make([]byte, 64))
	c2, _ := Encrypt(rand.Reader, pubs[0], "carol@example.org", make([]byte, 64))
	if len(c1) != len(c2) {
		t.Fatal("ciphertext lengths differ by identity")
	}
	key := Extract(privs[0], "dave@example.org")
	if _, ok := Decrypt(key, c1); ok {
		t.Fatal("scanner decrypted someone else's message")
	}
	if _, ok := Decrypt(key, c2); ok {
		t.Fatal("scanner decrypted someone else's message")
	}
}

// TestCompressedUIndistinguishable checks the compressed U of real and
// noise entries against each other: 1,000 Encrypt outputs and 1,000
// RandomCiphertexts outputs all decode, none carries the infinity flag,
// and the sign bit is set on each side with a frequency in [0.45, 0.55].
// Both sides draw from a keyed stream, so the counts are the same on
// every run.
func TestCompressedUIndistinguishable(t *testing.T) {
	const n = 1000
	rnd := &deterministicReader{key: []byte("compressed-u")}
	pub, _, err := Setup(rnd)
	if err != nil {
		t.Fatal(err)
	}
	genuine := make([][]byte, n)
	for i := range genuine {
		if genuine[i], err = Encrypt(rnd, pub, fmt.Sprintf("user%d@example.org", i%16), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	noise, err := RandomCiphertexts(rnd, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name  string
		ctxts [][]byte
	}{{"Encrypt", genuine}, {"RandomCiphertexts", noise}} {
		odd := 0
		for i, c := range side.ctxts {
			if err := new(bn254.G1).Unmarshal(c[:uSize]); err != nil {
				t.Fatalf("%s output %d: U does not decode: %v", side.name, i, err)
			}
			if c[0]&0x80 != 0 {
				t.Fatalf("%s output %d: U carries the infinity flag", side.name, i)
			}
			if c[0]&0x40 != 0 {
				odd++
			}
		}
		if f := float64(odd) / n; f < 0.45 || f > 0.55 {
			t.Errorf("%s: sign bit set in %.3f of U, want [0.45, 0.55]", side.name, f)
		}
		t.Logf("%s: sign bit set in %d of %d", side.name, odd, n)
	}
}

func TestDecryptCorruptedCiphertext(t *testing.T) {
	pubs, privs := setupN(t, 1)
	ctxt, _ := Encrypt(rand.Reader, pubs[0], "bob@example.org", []byte("msg"))
	key := Extract(privs[0], "bob@example.org")

	for _, i := range []int{0, 32, uSize + 2, len(ctxt) - 1} {
		bad := bytes.Clone(ctxt)
		bad[i] ^= 0xff
		if _, ok := Decrypt(key, bad); ok {
			t.Fatalf("corrupted ciphertext (byte %d) decrypted", i)
		}
	}
	if _, ok := Decrypt(key, ctxt[:Overhead-1]); ok {
		t.Fatal("short ciphertext decrypted")
	}
}

func TestMasterKeyMarshalRoundTrip(t *testing.T) {
	pubs, privs := setupN(t, 1)
	if n := len(pubs[0].Marshal()); n != MasterPublicKeySize {
		t.Fatalf("master public key marshals to %d B, want MasterPublicKeySize = %d", n, MasterPublicKeySize)
	}
	pk2, err := UnmarshalMasterPublicKey(pubs[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip must preserve encryption compatibility.
	ctxt, _ := Encrypt(rand.Reader, pk2, "bob@example.org", []byte("m"))
	key := Extract(privs[0], "bob@example.org")
	if _, ok := Decrypt(key, ctxt); !ok {
		t.Fatal("round-tripped master key broke encryption")
	}

	sk2, err := UnmarshalMasterPrivateKey(privs[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	key2 := Extract(sk2, "bob@example.org")
	if _, ok := Decrypt(key2, ctxt); !ok {
		t.Fatal("round-tripped master secret broke extraction")
	}
}

func TestIdentityKeyMarshalRoundTrip(t *testing.T) {
	pubs, privs := setupN(t, 1)
	ctxt, _ := Encrypt(rand.Reader, pubs[0], "bob@example.org", []byte("m"))
	key := Extract(privs[0], "bob@example.org")
	key2, err := UnmarshalIdentityPrivateKey(key.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Decrypt(key2, ctxt); !ok {
		t.Fatal("round-tripped identity key broke decryption")
	}
}

func TestErase(t *testing.T) {
	pubs, privs := setupN(t, 1)
	ctxt, _ := Encrypt(rand.Reader, pubs[0], "bob@example.org", []byte("m"))
	key := Extract(privs[0], "bob@example.org")

	privs[0].Erase()
	if !privs[0].Erased() {
		t.Fatal("master key not marked erased")
	}
	key.Erase()
	if _, ok := Decrypt(key, ctxt); ok {
		t.Fatal("erased identity key still decrypts")
	}
}

// TestMasterPrivateKeyEraseScrubsWords pins that Erase overwrites the
// secret's words in place: SetInt64(0) alone truncates the big.Int but
// leaves the words on the heap for anyone holding the backing array.
func TestMasterPrivateKeyEraseScrubsWords(t *testing.T) {
	_, privs := setupN(t, 1)
	words := privs[0].s.Bits()
	nonzero := false
	for _, w := range words {
		nonzero = nonzero || w != 0
	}
	if !nonzero {
		t.Fatal("fresh master secret has no nonzero words")
	}
	privs[0].Erase()
	for i, w := range words {
		if w != 0 {
			t.Fatalf("word %d of the master secret survived Erase", i)
		}
	}
	if !privs[0].Erased() {
		t.Fatal("master key not marked erased")
	}
}

func TestOnionBaseline(t *testing.T) {
	pubs, privs := setupN(t, 3)
	msg := []byte("onion payload")
	ctxt, err := OnionEncrypt(rand.Reader, pubs, "bob@example.org", msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctxt) != len(msg)+OnionOverhead(3) {
		t.Fatalf("onion ciphertext length %d, want %d", len(ctxt), len(msg)+OnionOverhead(3))
	}
	var idKeys []*IdentityPrivateKey
	for _, priv := range privs {
		idKeys = append(idKeys, Extract(priv, "bob@example.org"))
	}
	got, ok := OnionDecrypt(idKeys, ctxt)
	if !ok {
		t.Fatal("onion decryption failed")
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext")
	}
	// Peeling with only two of three keys cannot reach the plaintext:
	// the result is the still-encrypted innermost layer.
	partial, ok := OnionDecrypt(idKeys[:2], ctxt)
	if ok && bytes.Equal(partial, msg) {
		t.Fatal("onion decryption with missing layer recovered plaintext")
	}
	// And using the wrong identity's keys fails outright at layer one.
	var wrongKeys []*IdentityPrivateKey
	for _, priv := range privs {
		wrongKeys = append(wrongKeys, Extract(priv, "eve@example.org"))
	}
	if _, ok := OnionDecrypt(wrongKeys, ctxt); ok {
		t.Fatal("onion decryption under wrong identity succeeded")
	}
	if _, err := OnionEncrypt(rand.Reader, nil, "x", msg); err == nil {
		t.Fatal("onion encryption with zero keys succeeded")
	}
}
