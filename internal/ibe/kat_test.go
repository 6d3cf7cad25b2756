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
// round 7 must not move. Both values were re-recorded once, when the IBE's
// groups were swapped (master public key and ciphertext element to G1,
// identity keys to G2, identities hashed with bn254.HashToG2): every
// ciphertext and round key changed shape then, and rpc.ProtocolVersion
// went to 4 with them.
func TestEncryptKnownAnswer(t *testing.T) {
	const (
		wantCtxts = "f4d61db0030e1fa6a2bd60ff279d780d45df0bd9c8954b10ed074d46c2654801"
		wantMsg   = "616c70656e686f726e2f706b672d726f756e642d6b65792d76323a00000007" +
			"0a127210324c5031c408fe033ab55b4179eada8805172f2a3e0b7708b2632aff" +
			"0c29f344fba7a87f01f59023d070f81aea5a3d9970d5379b4ee3398562722f1c"
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
