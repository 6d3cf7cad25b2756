package ibe_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"alpenhorn/internal/ibe"
	"alpenhorn/internal/wire"
)

// TestEncryptKnownAnswer pins the sealed-ciphertext format byte for byte.
// A key set up from a deterministic stream seals eight requests on that
// stream; the SHA-256 of the ciphertexts and the PKG signature message for
// round 7 must not move. Both values were re-recorded twice. The first
// time, the IBE's groups were swapped (master public key and ciphertext
// element to G1, identity keys to G2, identities hashed with
// bn254.HashToG2): every ciphertext and round key changed shape, and
// rpc.ProtocolVersion went to 4. The second time, G1 points went on the
// wire compressed (bn254.G1.Marshal: 32 B, x and the sign of y): the
// ciphertext element U and the master key each lost their 32-byte y, the
// same points and the same sealed bytes otherwise, and
// rpc.ProtocolVersion went to 6.
func TestEncryptKnownAnswer(t *testing.T) {
	const (
		wantCtxts = "2c9f0e6543b881807cff4057e00654b0bc42c3fa6a87ff5e31b13adf1c84a1a7"
		wantMsg   = "616c70656e686f726e2f706b672d726f756e642d6b65792d76323a00000007" +
			"0a127210324c5031c408fe033ab55b4179eada8805172f2a3e0b7708b2632aff"
	)
	rnd := ibe.NewDeterministicReader("known-answer")
	mpk, _, err := ibe.Setup(rnd)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < 8; i++ {
		c, err := ibe.Encrypt(rnd, mpk, fmt.Sprintf("user%d@example.org", i), []byte(fmt.Sprintf("known answer %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(c)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantCtxts {
		t.Fatalf("ciphertexts hash to %s, want %s", got, wantCtxts)
	}
	want, err := hex.DecodeString(wantMsg)
	if err != nil {
		t.Fatal(err)
	}
	if got := wire.PKGKeyMessage(7, mpk.Marshal()); !bytes.Equal(got, want) {
		t.Fatalf("PKG round-key message is %x, want %x", got, want)
	}
}
