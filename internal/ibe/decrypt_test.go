package ibe

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"alpenhorn/internal/aead"
	"alpenhorn/internal/bn254"
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
	corruptPoint[17] ^= 1 // breaks the G1 encoding
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

// TestDecryptBatchMatchesDecrypt decrypts a batch interleaving every
// failure mode the way a scan can, appending each plaintext to one shared
// buffer, and pins each element against Decrypt for plain, precomputed and
// erased keys. Appending never rewrites what earlier elements left in the
// buffer, and a rejected element leaves it as it was.
func TestDecryptBatchMatchesDecrypt(t *testing.T) {
	pubs, privs := setupN(t, 2)
	mpk := AggregateMasterKeys(pubs...)
	const identity = "bob@example.org"
	ipk := AggregatePrivateKeys(
		Extract(privs[0], identity),
		Extract(privs[1], identity),
	)
	ctxts := mixedBatch(t, mpk, identity)

	check := func(label string) []bool {
		t.Helper()
		var arena []byte
		oks := make([]bool, len(ctxts))
		for i, c := range ctxts {
			before := append([]byte(nil), arena...)
			arena, oks[i] = DecryptAppend(arena, ipk, c)
			if !bytes.Equal(arena[:len(before)], before) {
				t.Fatalf("%s element %d: DecryptAppend rewrote the buffer's earlier bytes", label, i)
			}
			wantMsg, wantOK := Decrypt(ipk, c)
			if got := arena[len(before):]; oks[i] != wantOK || !bytes.Equal(got, wantMsg) {
				t.Fatalf("%s element %d: appended (%q, %v) != Decrypt (%q, %v)", label, i, got, oks[i], wantMsg, wantOK)
			}
		}
		return oks
	}
	for _, precompute := range []bool{false, true} {
		if precompute {
			ipk.Precompute()
		}
		oks := check(fmt.Sprintf("precompute=%v", precompute))
		if !oks[0] || !oks[7] {
			t.Fatal("rejected genuine ciphertexts")
		}
		if oks[1] || oks[2] || oks[3] || oks[4] || oks[5] || oks[6] {
			t.Fatal("accepted a foreign/corrupt/noise ciphertext")
		}
	}
	ipk.Erase()
	for i, ok := range check("erased key") {
		if ok {
			t.Fatalf("erased key decrypted element %d", i)
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

// TestDecryptAppendAllocations pins a trial decryption with a
// precomputed key at what aead.Open allocates, measured here: nothing on
// internal/aead's AES-NI path, one AES key schedule on its portable path.
// The pairing value, its encoding, the hash state and the seal key stay
// on the stack. A rejected entry (a foreign ciphertext, which fails at the
// tag) pays aead.Open's share and no plaintext; an accepted entry appended
// into a dst with room pays nothing more; an entry whose U does not decode
// pays nothing at all.
func TestDecryptAppendAllocations(t *testing.T) {
	var aeadKey [aead.KeySize]byte
	aeadBox := make([]byte, 3+aead.Overhead)
	aeadAllocs := testing.AllocsPerRun(10, func() { aead.Open(nil, &aeadKey, aeadBox) })
	if raceEnabled && aeadAllocs != 0 {
		t.Skip("sync.Pool drops items under the race detector, so aead's scratch pool never warms")
	}
	pubs, privs := setupN(t, 1)
	const identity = "bob@example.org"
	ipk := Extract(privs[0], identity).Precompute()
	genuine, err := Encrypt(rand.Reader, pubs[0], identity, []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := RandomCiphertext(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	// U is compressed, so about half of all x have a curve point: step x
	// until x³ + 3 is a non-residue and U cannot decode.
	offCurve := append([]byte(nil), genuine...)
	for new(bn254.G1).Unmarshal(offCurve[:uSize]) == nil {
		offCurve[uSize-1]++
	}
	dst := make([]byte, 0, 64)
	if _, ok := DecryptAppend(dst, ipk, genuine); !ok { // warm aead's scratch pool on its portable path
		t.Fatal("genuine ciphertext rejected")
	}
	for _, c := range []struct {
		name string
		ctxt []byte
		max  float64
	}{{"rejected", foreign, aeadAllocs}, {"accepted", genuine, aeadAllocs}, {"undecodable", offCurve, 0}} {
		allocs := testing.AllocsPerRun(10, func() { DecryptAppend(dst, ipk, c.ctxt) })
		if allocs > c.max {
			t.Errorf("%s entry: DecryptAppend allocates %.1f times; want ≤ %.0f", c.name, allocs, c.max)
		}
		t.Logf("%s entry: %.1f allocations", c.name, allocs)
	}
}

// FuzzDecryptAppend runs the one trial decryption on arbitrary bytes
// (arbitrary lengths, corrupted tags, off-curve U, infinity) and checks
// that it never panics, that the key's line table agrees with the
// un-precomputed key — bn254.AtePair on the fly — on ok and on the
// plaintext, and that dst's existing bytes are never written: a rejection
// appends nothing and leaves dst's spare capacity untouched.
func FuzzDecryptAppend(f *testing.F) {
	pub, priv, err := Setup(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	const identity = "bob@example.org"
	table := Extract(priv, identity).Precompute()
	onTheFly := Extract(priv, identity)
	secret := []byte("the real message")
	good, err := Encrypt(rand.Reader, pub, identity, secret)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, Overhead))
	f.Add(append([]byte(nil), good...))
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	// U is the first uSize bytes, compressed. An x with no curve point
	// cannot decode; E(Fp) has prime order, so every x that has one is a
	// group element and there is no subgroup to probe.
	offCurve := append([]byte(nil), good...)
	for new(bn254.G1).Unmarshal(offCurve[:uSize]) == nil {
		offCurve[uSize-1]++
	}
	f.Add(offCurve)
	negated := append([]byte(nil), good...)
	negated[0] ^= 0x40 // the sign bit: −U decodes, and the tag fails
	f.Add(negated)
	infinity := append([]byte(nil), good...)
	copy(infinity, new(bn254.G1).SetInfinity().Marshal())
	f.Add(infinity)

	prefix := []byte("earlier plaintexts")
	f.Fuzz(func(t *testing.T, data []byte) {
		const sentinel = 0xa5
		dst := bytes.Repeat([]byte{sentinel}, len(prefix)+len(data))
		copy(dst, prefix)
		dst = dst[:len(prefix)]
		got, ok := DecryptAppend(dst, table, data)
		want, wantOK := DecryptAppend(nil, onTheFly, data)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("DecryptAppend wrote dst's existing bytes on %x", data)
		}
		if ok != wantOK || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("line table (%q, %v) != on-the-fly key (%q, %v) on %x", got[len(prefix):], ok, want, wantOK, data)
		}
		if !ok {
			if len(got) != len(prefix) {
				t.Fatalf("rejection appended %d bytes", len(got)-len(prefix))
			}
			for _, b := range dst[len(prefix):cap(dst)] {
				if b != sentinel {
					t.Fatalf("rejection wrote dst's spare capacity on %x", data)
				}
			}
		}
		if bytes.Equal(data, good) && (!ok || !bytes.Equal(got[len(prefix):], secret)) {
			t.Fatal("the genuine ciphertext did not decrypt")
		}
	})
}

// TestDecryptBatchSpeedupPin pins what the orientation of the groups buys
// the scan, as a ratio measured in one test run: DecryptAppend over 64
// foreign ciphertexts against 64 bn254.AtePair calls on the same points
// and key. DecryptAppend replays the key's line table, built once; AtePair
// builds the table of its G2 argument on every call; both end in the same
// final exponentiation, which is about half of either side.
//
// Measured: ~0.75x per element on a 2-CPU Xeon, against a floor of 0.80x;
// a scan that lost its line table reads 0.95x or more. The two sides are
// timed element by element in alternation, 21 times over, and each
// element keeps its best time on each side: a machine whose speed drifts
// from one millisecond to the next, or load from packages tested
// alongside this one, then falls on both sides of every element. Skipped
// under -race and in -short mode.
func TestDecryptBatchSpeedupPin(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("relative perf pin skipped under -race and in -short mode")
	}
	_, privs := setupN(t, 1)
	ipk := Extract(privs[0], "bob@example.org").Precompute()
	const n = 64
	ctxts, err := RandomCiphertexts(rand.Reader, 24, n)
	if err != nil {
		t.Fatal(err)
	}
	us := make([]*bn254.G1, n)
	for i, c := range ctxts {
		us[i] = new(bn254.G1)
		if err := us[i].Unmarshal(c[:uSize]); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 24)
	scan := func(i int) time.Duration {
		start := time.Now()
		if _, ok := DecryptAppend(buf, ipk, ctxts[i]); ok {
			t.Fatal("a foreign ciphertext decrypted")
		}
		return time.Since(start)
	}
	textbook := func(i int) time.Duration {
		start := time.Now()
		bn254.AtePair(us[i], ipk.d)
		return time.Since(start)
	}
	scan(0) // warm the first-use check and aead's scratch pool

	kept := make([]time.Duration, n)
	onTheFly := make([]time.Duration, n)
	for i := range kept {
		kept[i], onTheFly[i] = time.Duration(1<<63-1), time.Duration(1<<63-1)
	}
	for r := 0; r < 21; r++ {
		for i := range ctxts {
			if (r+i)%2 == 0 {
				kept[i] = min(kept[i], scan(i))
				onTheFly[i] = min(onTheFly[i], textbook(i))
			} else {
				onTheFly[i] = min(onTheFly[i], textbook(i))
				kept[i] = min(kept[i], scan(i))
			}
		}
	}
	var keptSum, onTheFlySum time.Duration
	for i := range kept {
		keptSum += kept[i]
		onTheFlySum += onTheFly[i]
	}
	ratio := float64(keptSum) / float64(onTheFlySum)
	if ratio > 0.80 {
		t.Errorf("DecryptAppend over %d ciphertexts %v costs %.2fx of %d AtePair calls %v; want ≤ 0.80x", n, keptSum, ratio, n, onTheFlySum)
	}
	t.Logf("DecryptAppend over %d ciphertexts %v vs %d AtePair calls %v: %.2fx per element", n, keptSum, n, onTheFlySum, ratio)
}
