package ibe

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// detRand is a deterministic io.Reader (a sha256 counter stream) for
// pinning randomness-consumption compatibility.
type detRand struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func newDetRand(seed string) *detRand { return &detRand{seed: []byte(seed)} }

func (d *detRand) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(d.buf) == 0 {
			h := sha256.New()
			h.Write(d.seed)
			var ctr [8]byte
			binary.BigEndian.PutUint64(ctr[:], d.ctr)
			d.ctr++
			h.Write(ctr[:])
			d.buf = h.Sum(nil)
		}
		c := copy(p, d.buf)
		d.buf = d.buf[c:]
		p = p[c:]
	}
	return n, nil
}

// mixedBatch builds a ciphertext batch interleaving real ciphertexts for
// the identity with foreign, corrupted, truncated, and noise blobs.
func mixedBatch(t testing.TB, mpk *MasterPublicKey, identity string) [][]byte {
	t.Helper()
	enc := func(id string, msg []byte) []byte {
		c, err := Encrypt(rand.Reader, mpk, id, msg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	good := enc(identity, []byte("hello from the batch"))
	corruptPoint := append([]byte(nil), good...)
	corruptPoint[17] ^= 1 // breaks the G2 encoding
	corruptTag := append([]byte(nil), enc(identity, []byte("doomed"))...)
	corruptTag[len(corruptTag)-1] ^= 1 // valid point, AEAD failure
	noise, err := RandomCiphertext(rand.Reader, 24)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		good,
		enc("someone-else@example.org", []byte("not for us")),
		corruptPoint,
		[]byte{1, 2, 3}, // too short
		nil,
		corruptTag,
		noise,
		enc(identity, []byte("second real message")),
	}
}

// TestDecryptBatchMatchesDecrypt pins DecryptBatch element-wise against
// the scalar Decrypt on a batch interleaving every failure mode.
func TestDecryptBatchMatchesDecrypt(t *testing.T) {
	pubs, privs := setupN(t, 2)
	mpk := AggregateMasterKeys(pubs...)
	const identity = "bob@example.org"
	ipk := AggregatePrivateKeys(
		Extract(privs[0], identity),
		Extract(privs[1], identity),
	)
	ctxts := mixedBatch(t, mpk, identity)

	for _, precompute := range []bool{false, true} {
		if precompute {
			ipk.Precompute()
		}
		msgs, oks := DecryptBatch(ipk, ctxts)
		for i, c := range ctxts {
			wantMsg, wantOK := Decrypt(ipk, c)
			if oks[i] != wantOK || !bytes.Equal(msgs[i], wantMsg) {
				t.Fatalf("precompute=%v element %d: batch (%q, %v) != single (%q, %v)",
					precompute, i, msgs[i], oks[i], wantMsg, wantOK)
			}
		}
		if !oks[0] || !oks[7] {
			t.Fatal("batch rejected genuine ciphertexts")
		}
		if oks[1] || oks[2] || oks[3] || oks[4] || oks[5] || oks[6] {
			t.Fatal("batch accepted a foreign/corrupt/noise ciphertext")
		}
	}

	// Erased key: the batch must mirror the scalar path's rejections.
	ipk.Erase()
	msgs, oks := DecryptBatch(ipk, ctxts)
	for i, c := range ctxts {
		wantMsg, wantOK := Decrypt(ipk, c)
		if oks[i] != wantOK || !bytes.Equal(msgs[i], wantMsg) {
			t.Fatalf("erased key element %d: batch (%q, %v) != single (%q, %v)",
				i, msgs[i], oks[i], wantMsg, wantOK)
		}
	}
}

// TestRandomCiphertextsDeterministic pins the randomness-consumption
// order of the batched noise generator: with the same deterministic rand
// stream, RandomCiphertexts(n) must emit byte-identical blobs to n
// sequential RandomCiphertext calls.
func TestRandomCiphertextsDeterministic(t *testing.T) {
	const n, msgLen = 5, 48
	batched, err := RandomCiphertexts(newDetRand("noise-seed"), msgLen, n)
	if err != nil {
		t.Fatal(err)
	}
	seq := newDetRand("noise-seed")
	for i := 0; i < n; i++ {
		want, err := RandomCiphertext(seq, msgLen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batched[i], want) {
			t.Fatalf("noise blob %d differs between batched and sequential generation", i)
		}
		if len(want) != msgLen+Overhead {
			t.Fatalf("noise blob %d has length %d, want %d", i, len(want), msgLen+Overhead)
		}
	}
}

// TestDecryptBatchAllocations ratchets per-ciphertext heap allocations of
// the batched scan path. The bn254 pipeline underneath is pinned at zero
// allocations separately; at this layer a warm batch pays the result
// slices, one plaintext arena, and one AES key schedule per accepted
// element (gcmOpen; the pooled scratch absorbs the hash state and GHASH
// buffers). That lands well under 2 allocations per ciphertext — versus
// ~4.5 through the scalar stdlib AEAD path — and both tiers must hold
// the bound.
func TestDecryptBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so the scratch pool never warms")
	}
	pubs, privs := setupN(t, 1)
	const identity = "bob@example.org"
	ipk := Extract(privs[0], identity).Precompute().PrecomputeV2()
	const n = 4
	ctxts := make([][]byte, n)
	ctxtsV2 := make([][]byte, n)
	for i := range ctxts {
		c, err := Encrypt(rand.Reader, pubs[0], identity, []byte("msg"))
		if err != nil {
			t.Fatal(err)
		}
		ctxts[i] = c
		c2, err := EncryptV2(rand.Reader, pubs[0], identity, []byte("msg"))
		if err != nil {
			t.Fatal(err)
		}
		ctxtsV2[i] = c2
	}
	// Warm the scratch pool.
	DecryptBatch(ipk, ctxts)
	DecryptBatchV2(ipk, ctxtsV2)

	batched := testing.AllocsPerRun(3, func() {
		DecryptBatch(ipk, ctxts)
	}) / n
	batchedV2 := testing.AllocsPerRun(3, func() {
		DecryptBatchV2(ipk, ctxtsV2)
	}) / n
	scalar := testing.AllocsPerRun(3, func() {
		for _, c := range ctxts {
			Decrypt(ipk, c)
		}
	}) / n
	if batched > 2 {
		t.Fatalf("batched v1 path allocates %.2f/ctxt; want ≤ 2", batched)
	}
	if batchedV2 > 2 {
		t.Fatalf("batched v2 path allocates %.2f/ctxt; want ≤ 2", batchedV2)
	}
	if batched > scalar {
		t.Fatalf("batched path allocates %.2f/ctxt, more than the scalar path's %.2f/ctxt", batched, scalar)
	}
	t.Logf("allocations per ciphertext: batched v1 %.2f, v2 %.2f vs scalar %.2f", batched, batchedV2, scalar)
}

// FuzzDecryptBatchMatchesDecrypt asserts element-wise equivalence of
// DecryptBatch and Decrypt on adversarial batches: fuzz-derived blobs
// (arbitrary lengths, corrupted points, non-subgroup points) interleaved
// with a genuine ciphertext. The genuine element must keep decrypting
// correctly no matter what surrounds it — an invalid neighbor must never
// poison the shared-inversion pass.
func FuzzDecryptBatchMatchesDecrypt(f *testing.F) {
	pub, priv, err := Setup(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	const identity = "bob@example.org"
	ipk := Extract(priv, identity).Precompute()
	secret := []byte("the real message")
	good, err := Encrypt(rand.Reader, pub, identity, secret)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, Overhead))
	f.Add(append([]byte(nil), good...))
	corrupt := append([]byte(nil), good...)
	corrupt[31] ^= 0xff
	f.Add(corrupt)
	// A twist point outside the prime-order subgroup: the small multiple
	// [3]·(curve point from x=0 search space) is easiest built by
	// perturbing a valid encoding until it lands on-curve off-subgroup;
	// seed with a tweaked y to let the fuzzer explore that region.
	offSub := append([]byte(nil), good...)
	offSub[127] ^= 2
	f.Add(offSub)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Slice the fuzz input into up to 6 blobs of plausible lengths.
		var ctxts [][]byte
		ctxts = append(ctxts, good)
		for len(data) > 0 && len(ctxts) < 7 {
			n := Overhead + 8
			if n > len(data) {
				n = len(data)
			}
			ctxts = append(ctxts, data[:n])
			data = data[n:]
		}
		ctxts = append(ctxts, good)

		msgs, oks := DecryptBatch(ipk, ctxts)
		for i, c := range ctxts {
			wantMsg, wantOK := Decrypt(ipk, c)
			if oks[i] != wantOK || !bytes.Equal(msgs[i], wantMsg) {
				t.Fatalf("element %d (%d bytes): batch (%q, %v) != single (%q, %v)",
					i, len(c), msgs[i], oks[i], wantMsg, wantOK)
			}
		}
		if !oks[0] || !bytes.Equal(msgs[0], secret) || !oks[len(ctxts)-1] {
			t.Fatal("genuine ciphertext was poisoned by its batch neighbors")
		}
	})
}
