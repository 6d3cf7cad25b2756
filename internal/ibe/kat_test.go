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

// TestEncryptKnownAnswer pins the one sealed-ciphertext tier to the bytes
// the optimal-ate ("v2") tier produced before the Tate tier and its
// negotiation were removed: both values below were recorded with
// EncryptV2 and wire.PKGKeyMessageV2 at the parent commit. A key set up
// from a deterministic stream seals eight requests on that stream, the
// first four with a plain master key and the last four precomputed; the
// SHA-256 of the ciphertexts and the PKG signature message for round 7 must
// not move.
func TestEncryptKnownAnswer(t *testing.T) {
	const (
		wantCtxts = "fad5afde7d6fb39fca0b001a98c40534d92f97b2d92d45318c984df2b8c7abec"
		wantMsg   = "616c70656e686f726e2f706b672d726f756e642d6b65792d76323a00000007" +
			"112e3c426219e517cf904ce97a3ac404bdc4af7a175540262e5cfb47fd497a4a" +
			"096cdc525c4e3316b7461f23cef779e0c03c33761f27c48276036311181dabe0" +
			"118ffb30484cd8d98b85958415a4d354c693f33d5b40bac8d8108c46dd93b44f" +
			"10dd4ebf255c957c063dee9c6ac510afebc5fae98a2247081cd79b87e4bc105d"
	)
	rnd := ibe.NewDeterministicReader("known-answer")
	mpk, _, err := ibe.Setup(rnd)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < 8; i++ {
		if i == 4 {
			mpk.Precompute()
		}
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
