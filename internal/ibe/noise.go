package ibe

import (
	"io"
	"math/big"

	"alpenhorn/internal/bn254"
)

// RandomCiphertext returns a blob indistinguishable from a real encryption
// of a msgLen-byte message: a uniformly random G1 point where rP would be,
// followed by uniformly random bytes where the AEAD output would be.
//
// This is how mixnet servers manufacture noise for add-friend mailboxes
// (§6). Indistinguishability relies on the ciphertext anonymity of
// Boneh-Franklin IBE (§4.3): real ciphertexts carry no recipient- or
// sender-dependent structure.
func RandomCiphertext(rand io.Reader, msgLen int) ([]byte, error) {
	outs, err := RandomCiphertexts(rand, msgLen, 1)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RandomCiphertexts generates n noise blobs in one pass: the comb-table
// scalar multiplications run in Jacobian form and share one affine-
// conversion inversion (bn254.G1ScalarBaseMultBatch). Randomness is
// consumed in exactly the per-message order of repeated RandomCiphertext
// calls — scalar i, then tail i — so a deterministic rand source produces
// byte-identical noise either way (a unit test pins this).
func RandomCiphertexts(rand io.Reader, msgLen, n int) ([][]byte, error) {
	outs := make([][]byte, n)
	scalars := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		r, err := bn254.RandomScalar(rand)
		if err != nil {
			return nil, err
		}
		scalars[i] = r
		buf := make([]byte, msgLen+Overhead)
		if _, err := io.ReadFull(rand, buf[uSize:]); err != nil {
			return nil, err
		}
		outs[i] = buf
	}
	for i, u := range bn254.G1ScalarBaseMultBatch(scalars) {
		copy(outs[i][:uSize], u.Marshal())
	}
	return outs, nil
}
