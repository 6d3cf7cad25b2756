package ibe

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"testing"

	"alpenhorn/internal/bn254"
	"alpenhorn/internal/cpu"
)

// laneWidth is how many ciphertexts share one walk of bn254's lane
// pairing.
const laneWidth = 8

// checkBatchMatchesAppend runs DecryptBatch on ctxts, appending to
// buffers that already hold a prefix, and holds every element to
// DecryptAppend, which pairs one ciphertext at a time on the scalar path.
func checkBatchMatchesAppend(t *testing.T, ipk *IdentityPrivateKey, ctxts [][]byte, want [][]byte, wantOK []bool) {
	t.Helper()
	prefix := []byte("earlier")
	dsts := make([][]byte, len(ctxts))
	for i := range dsts {
		dsts[i] = append([]byte(nil), prefix...)
	}
	oks := make([]bool, len(ctxts))
	DecryptBatch(dsts, oks, ipk, ctxts)
	for i := range ctxts {
		if !bytes.Equal(dsts[i][:len(prefix)], prefix) {
			t.Fatalf("element %d of %d: DecryptBatch rewrote dst's earlier bytes", i, len(ctxts))
		}
		if got := dsts[i][len(prefix):]; oks[i] != wantOK[i] || !bytes.Equal(got, want[i]) {
			t.Fatalf("element %d of %d: batch (%q, %v) != DecryptAppend (%q, %v)", i, len(ctxts), got, oks[i], want[i], wantOK[i])
		}
	}
}

// TestDecryptBatchMatchesDecryptAppend holds DecryptBatch, element by
// element, to DecryptAppend for every batch length 0–17 over a mix of
// genuine, foreign, corrupt, truncated and noise ciphertexts in every
// position. /lanes is the lane pairing's test: every batch of two or more
// pairs in lanes on a CPU with AVX-512 IFMA, and the subtest skips,
// saying why, on one without.
func TestDecryptBatchMatchesDecryptAppend(t *testing.T) {
	t.Run("lanes", func(t *testing.T) {
		if !cpu.IFMA {
			t.Skip("no AVX-512 IFMA with OS-saved ZMM state on this CPU: DecryptBatch pairs one ciphertext at a time here")
		}
		pub, priv, err := Setup(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		const identity = "bob@example.org"
		ipk := Extract(priv, identity).Precompute()
		mixed := mixedBatch(t, pub, identity)
		for n := 0; n <= 17; n++ {
			for shift := 0; shift < len(mixed); shift += 3 {
				t.Run(fmt.Sprintf("n=%d/shift=%d", n, shift), func(t *testing.T) {
					ctxts := make([][]byte, n)
					want := make([][]byte, n)
					wantOK := make([]bool, n)
					for i := range ctxts {
						ctxts[i] = mixed[(i+shift)%len(mixed)]
						want[i], wantOK[i] = DecryptAppend(nil, ipk, ctxts[i])
					}
					checkBatchMatchesAppend(t, ipk, ctxts, want, wantOK)
				})
			}
		}
	})
}

// FuzzDecryptBatchLanes runs each input in every position of a batch of
// eight, one lane walk, beside genuine, foreign and noise ciphertexts,
// and holds the whole batch to DecryptAppend, which pairs one ciphertext
// at a time on the scalar path: the input's plaintext and accept/reject
// in every lane, and the neighbours' untouched by it.
func FuzzDecryptBatchLanes(f *testing.F) {
	pub, priv, err := Setup(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	const identity = "bob@example.org"
	ipk := Extract(priv, identity).Precompute()
	good, err := Encrypt(rand.Reader, pub, identity, []byte("the real message"))
	if err != nil {
		f.Fatal(err)
	}
	neighbours := mixedBatch(f, pub, identity)[:laneWidth]
	want := make([][]byte, laneWidth)
	wantOK := make([]bool, laneWidth)
	for i, c := range neighbours {
		want[i], wantOK[i] = DecryptAppend(nil, ipk, c)
	}

	f.Add([]byte{})
	f.Add(append([]byte(nil), good...))
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	offCurve := append([]byte(nil), good...)
	for new(bn254.G1).Unmarshal(offCurve[:uSize]) == nil {
		offCurve[uSize-1]++
	}
	f.Add(offCurve)
	infinity := append([]byte(nil), good...)
	copy(infinity, new(bn254.G1).SetInfinity().Marshal())
	f.Add(infinity)
	negated := append([]byte(nil), good...)
	negated[0] ^= 0x40
	f.Add(negated)

	f.Fuzz(func(t *testing.T, data []byte) {
		dataWant, dataOK := DecryptAppend(nil, ipk, data)
		for lane := 0; lane < laneWidth; lane++ {
			ctxts := append([][]byte(nil), neighbours...)
			ctxts[lane] = data
			w := append([][]byte(nil), want...)
			ok := append([]bool(nil), wantOK...)
			w[lane], ok[lane] = dataWant, dataOK
			checkBatchMatchesAppend(t, ipk, ctxts, w, ok)
		}
	})
}
