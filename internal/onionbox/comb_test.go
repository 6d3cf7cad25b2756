package onionbox

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	mathrand "math/rand"
	"slices"
	"testing"

	"alpenhorn/internal/aead"
)

// feBig is the math/big oracle for a field element.
func feBig(v *fe) *big.Int {
	var b [32]byte
	v.bytes(&b)
	return leToBig(b[:])
}

func bigFe(v *big.Int) *fe { return bigToFe(new(big.Int).Mod(v, curveP)) }

// edgeElements are the values carries and reductions go wrong on, followed
// by random ones.
func edgeElements(rng *mathrand.Rand, n int) []*big.Int {
	p := curveP
	vs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(19),
		new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(p, big.NewInt(19)), new(big.Int).Lsh(big.NewInt(1), 254),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 51), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 204),
	}
	for len(vs) < n {
		vs = append(vs, new(big.Int).Rand(rng, p))
	}
	return vs
}

func TestFieldMatchesBig(t *testing.T) {
	forEachFieldPath(t, checkFieldMatchesBig)
}

// checkFieldMatchesBig checks every field operation against math/big on
// reduced elements and on unreduced limb patterns (rawEdges), which stand
// for their value mod p.
func checkFieldMatchesBig(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(1))
	mod := func(v *big.Int) *big.Int { return v.Mod(v, curveP) }
	vs := edgeElements(rng, 40)
	raws := make([]fe, len(vs))
	for i, v := range vs {
		raws[i] = *bigFe(v)
	}
	for _, v := range rawEdges() {
		vs, raws = append(vs, mod(new(big.Int).Set(v))), append(raws, feRaw(v))
	}
	for i, a := range vs {
		fa := &raws[i]
		if got := feBig(fa); got.Cmp(a) != 0 {
			t.Fatalf("round trip of %v gave %v", a, got)
		}
		var sq, inv, neg, small fe
		small.mul121665(fa)
		if want := mod(new(big.Int).Mul(a, big.NewInt(121665))); feBig(&small).Cmp(want) != 0 {
			t.Fatalf("mul121665(%v) = %v, want %v", a, feBig(&small), want)
		}
		sq.square(fa)
		if want := mod(new(big.Int).Mul(a, a)); feBig(&sq).Cmp(want) != 0 {
			t.Fatalf("square(%v) = %v, want %v", a, feBig(&sq), want)
		}
		inv.invert(fa)
		want := new(big.Int)
		if a.Sign() != 0 {
			want.ModInverse(a, curveP)
		}
		if feBig(&inv).Cmp(want) != 0 {
			t.Fatalf("invert(%v) = %v, want %v", a, feBig(&inv), want)
		}
		neg.neg(fa)
		if want := mod(new(big.Int).Neg(a)); feBig(&neg).Cmp(want) != 0 {
			t.Fatalf("neg(%v) = %v, want %v", a, feBig(&neg), want)
		}
		if got, want := fa.isZero(), a.Sign() == 0; (got == 1) != want {
			t.Fatalf("isZero(%v) = %d", a, got)
		}
		for j, b := range vs {
			fb := &raws[j]
			var sum, diff, prod, pick fe
			sum.add(fa, fb)
			diff.sub(fa, fb)
			prod.mul(fa, fb)
			for name, c := range map[string][2]*big.Int{
				"add": {feBig(&sum), mod(new(big.Int).Add(a, b))},
				"sub": {feBig(&diff), mod(new(big.Int).Sub(a, b))},
				"mul": {feBig(&prod), mod(new(big.Int).Mul(a, b))},
			} {
				if c[0].Cmp(c[1]) != 0 {
					t.Fatalf("%s(%v, %v) = %v, want %v", name, a, b, c[0], c[1])
				}
			}
			// Unreduced operands: a chain of additions and subtractions
			// feeding a multiplication, as the point formulas do.
			var x, y fe
			x.add(&sum, &sum)
			y.sub(&diff, &sum)
			prod.mul(&x, &y)
			s2 := new(big.Int).Add(a, b)
			s2.Lsh(s2, 1)
			d2 := new(big.Int).Sub(new(big.Int).Sub(a, b), new(big.Int).Add(a, b))
			if want := mod(s2.Mul(s2, d2)); feBig(&prod).Cmp(want) != 0 {
				t.Fatalf("chained mul on (%v, %v) = %v, want %v", a, b, feBig(&prod), want)
			}
			pick.sel(fa, fb, 1)
			if pick != *fa {
				t.Fatal("sel(1) did not take the first operand")
			}
			pick.sel(fa, fb, 0)
			if pick != *fb {
				t.Fatal("sel(0) did not take the second operand")
			}
			x, y = *fa, *fb
			cswap(&x, &y, 0)
			if x != *fa || y != *fb {
				t.Fatal("cswap(0) swapped")
			}
			cswap(&x, &y, 1)
			if x != *fb || y != *fa {
				t.Fatal("cswap(1) did not swap")
			}
		}
	}

	// Non-canonical encodings: p … 2^255−1 reduce, and bit 255 is ignored.
	for _, k := range []int64{0, 1, 18} {
		v := new(big.Int).Add(curveP, big.NewInt(k))
		var be, b [32]byte
		v.FillBytes(be[:])
		for i := range b {
			b[i] = be[31-i]
		}
		b[31] |= 0x80
		var f fe
		f.setBytes(&b)
		if got := feBig(&f); got.Cmp(big.NewInt(k)) != 0 {
			t.Fatalf("p+%d with the top bit set decoded to %v", k, got)
		}
	}

	d := new(big.Int).ModInverse(big.NewInt(121666), curveP)
	d.Mul(d, big.NewInt(-2*121665))
	if feBig(&feD2).Cmp(mod(d)) != 0 {
		t.Fatal("feD2 is not 2·(−121665/121666)")
	}
}

func TestRecode(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(2))
	seeds := [][]byte{make([]byte, 32), bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0x88}, 32), bytes.Repeat([]byte{0x77}, 32)}
	for len(seeds) < 50 {
		s := make([]byte, 32)
		rng.Read(s)
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		var digits [64]int8
		recode(&digits, seed)
		k := bytes.Clone(seed)
		k[0] &= 248
		k[31] = k[31]&127 | 64
		sum := new(big.Int)
		for i := 63; i >= 0; i-- {
			if digits[i] < -8 || digits[i] > 8 || (i < 63 && digits[i] == 8) {
				t.Fatalf("digit %d of %x is %d", i, seed, digits[i])
			}
			sum.Lsh(sum, 4)
			sum.Add(sum, big.NewInt(int64(digits[i])))
		}
		if sum.Cmp(leToBig(k)) != 0 {
			t.Fatalf("digits of %x sum to %v", seed, sum)
		}
	}
}

// combX25519 is X25519(k, u) on the comb engine: what a Sealer computes,
// for one scalar. ok is false when NewSealer would fall back to the ladder.
func combX25519(k, u []byte) (out [32]byte, ok bool) {
	x, y, ok := edwardsFromU(u)
	if !ok {
		return out, false
	}
	var tab combTable
	tab.fill(x, y)
	var digits [64]int8
	recode(&digits, k)
	var p point
	tab.scalarMult(&p, &digits)
	num, den, prefix := make([]fe, 1), make([]fe, 1), make([]fe, 1)
	num[0].add(&p.z, &p.y)
	den[0].sub(&p.z, &p.y)
	us := make([][32]byte, 1)
	montgomeryU(us, num, den, prefix)
	return us[0], true
}

// checkCombMatchesECDH is the differential property: same bytes as
// crypto/ecdh, an all-zero result exactly where ecdh rejects, or a
// reported fallback.
func checkCombMatchesECDH(t *testing.T, u, k []byte) {
	t.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(k)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := priv.ECDH(pub)
	got, ok := combX25519(k, u)
	if !ok {
		return
	}
	if err != nil {
		if got != [32]byte{} {
			t.Fatalf("ecdh rejects u=%x k=%x (%v), the comb gives %x", u, k, err, got)
		}
		return
	}
	if !bytes.Equal(got[:], want) {
		t.Fatalf("u=%x k=%x: comb %x, ecdh %x", u, k, got, want)
	}
}

func unhex(t testing.TB, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// combSeeds are (u, k) pairs worth pinning: the RFC 7748 vectors, every
// published low-order u, the boundary values of the encoding, and the
// extreme scalars.
func combSeeds(t testing.TB) [][2][]byte {
	le := func(v *big.Int) []byte {
		b := make([]byte, 32)
		v.FillBytes(b)
		for i, j := 0, 31; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return b
	}
	p := curveP
	us := [][]byte{
		// RFC 7748 §5.2 inputs and §6.1 public keys.
		unhex(t, "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
		unhex(t, "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
		unhex(t, "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"),
		unhex(t, "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"),
		basePoint[:],
		// Low-order points (cr.yp.to/ecdh.html), with non-canonical twins.
		unhex(t, "0000000000000000000000000000000000000000000000000000000000000000"),
		unhex(t, "0100000000000000000000000000000000000000000000000000000000000000"),
		unhex(t, "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
		unhex(t, "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
		unhex(t, "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
		unhex(t, "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
		unhex(t, "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
		unhex(t, "cdeb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b880"),
		unhex(t, "4c9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f11d7"),
		unhex(t, "d9ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
		unhex(t, "daffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
		unhex(t, "dbffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
		// 2, a point of the twist; 2^255−1 and all-ones.
		le(big.NewInt(2)),
		le(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1))),
		bytes.Repeat([]byte{0xff}, 32),
		le(new(big.Int).Add(p, big.NewInt(9))), // the base point, non-canonical
	}
	ks := [][]byte{
		unhex(t, "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
		unhex(t, "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
		unhex(t, "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"),
		unhex(t, "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"),
		make([]byte, 32),
		bytes.Repeat([]byte{0xff}, 32),
	}
	var seeds [][2][]byte
	for _, u := range us {
		for _, k := range ks {
			seeds = append(seeds, [2][]byte{u, k})
		}
	}
	return seeds
}

func TestCombMatchesECDH(t *testing.T) {
	forEachFieldPath(t, checkCombCases)
	// The lane comb: each pair's scalar in each lane in turn, beside
	// seven random scalars, every lane held to crypto/ecdh.
	runLanes(t, func(t *testing.T) {
		rng := mathrand.New(mathrand.NewSource(3))
		pairs := combSeeds(t)
		for i := 0; i < 200; i++ {
			u, k := make([]byte, 32), make([]byte, 32)
			rng.Read(u)
			rng.Read(k)
			pairs = append(pairs, [2][]byte{u, k})
		}
		for _, s := range pairs {
			checkLaneCombMatchesECDH(t, s[0], s[1], rng, true)
		}
	})
}

func checkCombCases(t *testing.T) {
	for _, s := range combSeeds(t) {
		checkCombMatchesECDH(t, s[0], s[1])
	}
	// The RFC 7748 §5.2 and §6.1 outputs, so that the oracle is pinned too
	// (the second §5.2 input is a point of the twist).
	for _, v := range []struct {
		k, u, out string
		twist     bool
	}{
		{"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4", "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c", "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552", false},
		{"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d", "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493", "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957", true},
		{"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a", "0900000000000000000000000000000000000000000000000000000000000000", "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a", false},
		{"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a", "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f", "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742", false},
	} {
		got, ok := combX25519(unhex(t, v.k), unhex(t, v.u))
		if ok == v.twist {
			t.Fatalf("table built for u=%s: %v", v.u, ok)
		}
		if ok && hex.EncodeToString(got[:]) != v.out {
			t.Fatalf("X25519(%s, %s) = %x, want %s", v.k, v.u, got, v.out)
		}
	}
	// Which inputs fall back is part of the contract: −1 and the twist do,
	// every point of the curve (low order included) does not.
	for u, want := range map[string]bool{
		"0900000000000000000000000000000000000000000000000000000000000000": true,
		"0000000000000000000000000000000000000000000000000000000000000000": true,
		"0100000000000000000000000000000000000000000000000000000000000000": true,
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800": true,
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f": false, // −1
		"0200000000000000000000000000000000000000000000000000000000000000": false, // twist
	} {
		if _, _, ok := edwardsFromU(unhex(t, u)); ok != want {
			t.Errorf("edwardsFromU(%s) ok = %v, want %v", u, ok, want)
		}
	}

	rng := mathrand.New(mathrand.NewSource(3))
	onCurve := 0
	for i := 0; i < 200; i++ {
		u, k := make([]byte, 32), make([]byte, 32)
		rng.Read(u)
		rng.Read(k)
		if _, _, ok := edwardsFromU(u); ok {
			onCurve++
		}
		checkCombMatchesECDH(t, u, k)
	}
	if onCurve < 60 || onCurve > 140 {
		t.Fatalf("%d of 200 random u on the curve; about half should be", onCurve)
	}
}

func FuzzCombMatchesECDH(f *testing.F) {
	for _, s := range combSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, u, k []byte) {
		if len(u) != 32 || len(k) != 32 {
			t.Skip()
		}
		onBothPaths(func() { checkCombMatchesECDH(t, u, k) })
		runLanes(t, func(t *testing.T) {
			rng := mathrand.New(mathrand.NewSource(int64(binary.LittleEndian.Uint64(u) ^ binary.LittleEndian.Uint64(k))))
			checkLaneCombMatchesECDH(t, u, k, rng, false)
		})
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r *mathrand.Rand
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.n += len(p)
	return c.r.Read(p)
}

// sealBatchSizes are the batch sizes the batch tests seal: every side of
// sealerBreakEven, laneCombBreakEven, a lane group and a chunk, and a
// third chunk with a lane remainder.
var sealBatchSizes = []int{0, 1, 2, sealerBreakEven - 1, sealerBreakEven, laneCount - 1, laneCount, laneCount + 1, sealChunk - 1, sealChunk, sealChunk + 1, 2*sealChunk + 3}

// SealBatch seals every message to the recipient. It reads rand exactly
// as len(msgs) calls of Seal would, so the same reader gives the same
// boxes.
func (s *Sealer) SealBatch(rand io.Reader, msgs [][]byte) ([][]byte, error) {
	seeds := make([]byte, 32*len(msgs))
	defer clear(seeds)
	if _, err := io.ReadFull(rand, seeds); err != nil {
		return nil, err
	}
	boxes := make([][]byte, len(msgs))
	for i, msg := range msgs {
		boxes[i] = make([]byte, len(msg)+Overhead)
		copy(boxes[i][32:], msg)
	}
	if err := s.sealInPlace(seeds, boxes); err != nil {
		return nil, err
	}
	return boxes, nil
}

// TestSealBatchMatchesSeal: SealBatch reads the reader as Seal does and
// gives the same boxes, on a Sealer built for the batch (a table from
// sealerBreakEven boxes) and on one that holds a table whatever the
// batch, on each field path with the scalar comb and on the lane comb
// (/lanes).
func TestSealBatchMatchesSeal(t *testing.T) {
	forEachFieldPath(t, checkSealBatchMatchesSeal)
	runLanes(t, checkSealBatchMatchesSeal)
}

func checkSealBatchMatchesSeal(t *testing.T) {
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tabled := NewSealer(pub, sealChunk)
	for _, n := range sealBatchSizes {
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = bytes.Repeat([]byte{byte(i)}, i%40)
		}
		oracleRd := &countingReader{r: mathrand.New(mathrand.NewSource(int64(n)))}
		var want [][]byte
		for _, m := range msgs {
			box, err := Seal(oracleRd, pub, m)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, box)
		}
		s := NewSealer(pub, n)
		if (s.table != nil) != (n >= sealerBreakEven) {
			t.Fatalf("n=%d: table built = %v", n, s.table != nil)
		}
		for _, s := range []*Sealer{s, tabled} {
			rd := &countingReader{r: mathrand.New(mathrand.NewSource(int64(n)))}
			got, err := s.SealBatch(rd, msgs)
			if err != nil {
				t.Fatal(err)
			}
			if rd.n != oracleRd.n {
				t.Fatalf("n=%d: SealBatch read %d bytes, %d Seals read %d", n, rd.n, n, oracleRd.n)
			}
			if len(got) != n {
				t.Fatalf("n=%d: %d boxes", n, len(got))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("n=%d, table %v: box %d differs from Seal's", n, s.table != nil, i)
				}
				msg, err := Open(priv, got[i])
				if err != nil || !bytes.Equal(msg, msgs[i]) {
					t.Fatalf("n=%d: box %d opened to %x, %v", n, i, msg, err)
				}
			}
		}
	}
}

// TestOnionBatchMatchesWrapOnion: a batch added message by message reads
// the reader as the same WrapOnion calls do and gives the same onions, on
// table and ladder hops alike, a twist key among them, for every size of
// sealBatchSizes through three hops, on each field path with the scalar
// comb and on the lane comb (/lanes).
func TestOnionBatchMatchesWrapOnion(t *testing.T) {
	forEachFieldPath(t, checkOnionBatchMatchesWrapOnion)
	runLanes(t, checkOnionBatchMatchesWrapOnion)
}

func checkOnionBatchMatchesWrapOnion(t *testing.T) {
	twist, err := UnmarshalPublicKey(append([]byte{2}, make([]byte, 31)...))
	if err != nil {
		t.Fatal(err)
	}
	for hops := 0; hops <= 3; hops++ {
		var pubs []*PublicKey
		var privs []*PrivateKey
		for i := 0; i < hops; i++ {
			pub, priv, err := GenerateKey(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			pubs, privs = append(pubs, pub), append(privs, priv)
		}
		// Every batch size through three hops, the deployment's chain;
		// one size through fewer, and through a twist key last.
		sizes := []int{sealChunk + 5}
		if hops == 3 {
			sizes = sealBatchSizes
		}
		checkOnionBatches(t, pubs, privs, sizes)
		checkOnionBatches(t, append(pubs[:hops:hops], twist), privs, []int{sealChunk + 5})
	}
}

// checkOnionBatches wraps n onions through keys as one OnionBatch, whose
// hops hold tables where the keys are on the curve, for each n of sizes,
// and holds them to the first n of a run of WrapOnion calls on the same
// reader; privs peel each batch's first onion.
func checkOnionBatches(t *testing.T, keys []*PublicKey, privs []*PrivateKey, sizes []int) {
	t.Helper()
	// A body is read between onions, as the noise generator and the
	// synthetic clients do.
	oracleRd := mathrand.New(mathrand.NewSource(7))
	var want [][]byte
	for i := 0; i < slices.Max(sizes); i++ {
		body := make([]byte, 20)
		oracleRd.Read(body)
		onion, err := WrapOnion(oracleRd, keys, body)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, onion)
	}
	for _, n := range sizes {
		rd := mathrand.New(mathrand.NewSource(7))
		sealers := make([]*Sealer, len(keys))
		for i, k := range keys {
			sealers[i] = NewSealer(k, max(n, sealerBreakEven))
		}
		batch := NewOnionBatch(sealers)
		for i := 0; i < n; i++ {
			body := make([]byte, 20)
			rd.Read(body)
			if err := batch.Add(rd, body); err != nil {
				t.Fatal(err)
			}
		}
		got, err := batch.Wrap()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("%d keys, %d messages: %d onions", len(keys), n, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%d keys, %d messages: onion %d differs from WrapOnion's", len(keys), n, i)
			}
		}
		if n == 0 {
			continue
		}
		cur := got[0]
		for i, priv := range privs {
			if cur, err = Open(priv, cur); err != nil {
				t.Fatalf("%d messages: hop %d failed to peel: %v", n, i, err)
			}
		}
	}
}

// TestWrapOnionKnownAnswer pins twenty onions against the digest the
// two-ladder Seal of the commit before the comb engine produced for the
// same reader, keys and messages — on WrapOnion and on an OnionBatch whose
// hops hold tables.
func TestWrapOnionKnownAnswer(t *testing.T) {
	forEachFieldPath(t, checkWrapOnionKnownAnswer)
}

func checkWrapOnionKnownAnswer(t *testing.T) {
	const want = "ddfba87aca46a3d4ccf57d34293e0d4c825b7804b1fc7aef0be8a0785a151c76"
	for _, batched := range []bool{false, true} {
		rng := mathrand.New(mathrand.NewSource(2016))
		var pubs []*PublicKey
		var sealers []*Sealer
		for i := 0; i < 3; i++ {
			pub, _, err := GenerateKey(rng)
			if err != nil {
				t.Fatal(err)
			}
			pubs, sealers = append(pubs, pub), append(sealers, NewSealer(pub, 20))
		}
		batch := NewOnionBatch(sealers)
		var onions [][]byte
		for i := 0; i < 20; i++ {
			msg := make([]byte, 10+i)
			rng.Read(msg)
			if batched {
				if err := batch.Add(rng, msg); err != nil {
					t.Fatal(err)
				}
				continue
			}
			onion, err := WrapOnion(rng, pubs, msg)
			if err != nil {
				t.Fatal(err)
			}
			onions = append(onions, onion)
		}
		if batched {
			var err error
			if onions, err = batch.Wrap(); err != nil {
				t.Fatal(err)
			}
		}
		h := sha256.New()
		for _, onion := range onions {
			h.Write(onion)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("batched=%v: onions hash to %s, want %s", batched, got, want)
		}
	}
}

// TestSealLowOrderRecipient: a recipient key of low order makes every
// shared secret zero, which is an error on the table as on the ladder.
func TestSealLowOrderRecipient(t *testing.T) {
	forEachFieldPath(t, checkSealLowOrderRecipient)
}

func checkSealLowOrderRecipient(t *testing.T) {
	for _, u := range []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"0100000000000000000000000000000000000000000000000000000000000000",
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	} {
		pub, err := UnmarshalPublicKey(unhex(t, u))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Seal(rand.Reader, pub, []byte("m")); err == nil {
			t.Fatalf("Seal to low-order key %s succeeded", u)
		}
		s := NewSealer(pub, sealerBreakEven)
		if s.table == nil {
			t.Fatalf("no table for low-order key %s, which is on the curve", u)
		}
		if _, err := s.SealBatch(rand.Reader, make([][]byte, sealerBreakEven)); err == nil {
			t.Fatalf("SealBatch to low-order key %s succeeded", u)
		}
	}
}

// TestBoxAllocations pins what a box allocates at its floor, measured
// here so that the pin moves with the toolchain. A box's floor is what
// internal/aead allocates a box, on either side: the seal's base comb and
// ladder and the peel's ladder are this package's and keep their scratch
// on the stack. internal/aead's share is nothing on its AES-NI path and
// one aes.NewCipher key schedule on its portable path (its
// TestAllocations pins each). On top of the floor Seal allocates twice,
// for the box and for the ephemeral seed, which the reader's interface
// call moves to the heap; Open allocates once, for the message it
// returns; OpenAppend into a buffer with room allocates nothing more, and
// SealBatch's table path, whose scratch is per batch, pays only
// internal/aead's share and the box. OpenBatch allocates three times a
// batch: the buffer, the messages and their ends.
var sink []byte // keeps the floor's results from being optimized away

func TestBoxAllocations(t *testing.T) {
	var aeadKey [aead.KeySize]byte
	aeadBox := make([]byte, 64+aead.Overhead)
	aeadAllocs := testing.AllocsPerRun(50, func() { aead.Seal(&aeadKey, aeadBox) })
	if raceEnabled && aeadAllocs != 0 {
		t.Skip("sync.Pool drops items under the race detector, so aead's scratch pool never warms")
	}
	pub, priv, _ := GenerateKey(rand.Reader)
	msg := make([]byte, 64)
	box, _ := Seal(rand.Reader, pub, msg)
	rd := mathrand.New(mathrand.NewSource(1))
	openFloor := aeadAllocs

	if n := testing.AllocsPerRun(50, func() { Seal(rd, pub, msg) }); n > aeadAllocs+2 {
		t.Errorf("Seal allocates %.0f times a box; internal/aead alone %.0f", n, aeadAllocs)
	}
	if n := testing.AllocsPerRun(50, func() { Open(priv, box) }); n > openFloor+1 {
		t.Errorf("Open allocates %.0f times a box; internal/aead alone %.0f", n, openFloor)
	}
	dst := make([]byte, 0, len(msg))
	if n := testing.AllocsPerRun(50, func() { OpenAppend(dst, priv, box) }); n > openFloor {
		t.Errorf("OpenAppend into a %d-byte buffer allocates %.0f times a box; internal/aead alone %.0f", cap(dst), n, openFloor)
	}
	const batch = 4 * sealChunk
	boxes := make([][]byte, openChunk)
	for i := range boxes {
		boxes[i] = box
	}
	if n := testing.AllocsPerRun(5, func() { OpenBatch(priv, boxes) }); n > 3+openChunk*openFloor {
		t.Errorf("OpenBatch allocates %.0f times for %d boxes; 3 and internal/aead's %.0f a box allowed", n, openChunk, openFloor)
	}
	s := NewSealer(pub, batch)
	msgs := make([][]byte, batch)
	for i := range msgs {
		msgs[i] = msg
	}
	if n := testing.AllocsPerRun(5, func() { s.SealBatch(rd, msgs) }) / batch; n > aeadAllocs+1.1 {
		t.Errorf("SealBatch allocates %.2f times a box; internal/aead alone %.0f", n, aeadAllocs)
	}
}

// TestOnionBatchAddAllocations pins OnionBatch.Add to one allocation an
// onion, the onion's own buffer: the ephemeral seeds are read straight
// into the batch's seed buffers, so once those have grown, n more onions
// allocate n times, whatever n is. (A seed read through the reader's
// interface into an array on the stack is moved to the heap, once an
// onion.)
func TestOnionBatchAddAllocations(t *testing.T) {
	var hops []*Sealer
	for i := 0; i < 3; i++ {
		pub, _, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		hops = append(hops, NewSealer(pub, 0))
	}
	rd := mathrand.New(mathrand.NewSource(1))
	msg := make([]byte, 36)
	for _, n := range []int{16, 256} {
		b := NewOnionBatch(hops)
		add := func() {
			for i := 0; i < n; i++ {
				if err := b.Add(rd, msg); err != nil {
					t.Fatal(err)
				}
			}
		}
		add() // grows the batch's slices to n onions
		allocs := testing.AllocsPerRun(10, func() {
			for i := range b.seeds {
				b.seeds[i] = b.seeds[i][:0]
			}
			b.onions = b.onions[:0]
			add()
		})
		if allocs != float64(n) {
			t.Errorf("adding %d onions allocates %.0f times, want %d", n, allocs, n)
		}
	}
}

// TestWrapOnionAllocations pins WrapOnion at one allocation, the onion:
// no seed array escapes to the heap and no hop's key is copied out of
// its PublicKey, on the AES-NI path where internal/aead allocates
// nothing.
func TestWrapOnionAllocations(t *testing.T) {
	var aeadKey [aead.KeySize]byte
	aeadBox := make([]byte, 64+aead.Overhead)
	if n := testing.AllocsPerRun(50, func() { aead.Seal(&aeadKey, aeadBox) }); n != 0 {
		t.Skipf("internal/aead allocates %.0f times a box on this path", n)
	}
	var hops []*PublicKey
	for i := 0; i < 3; i++ {
		pub, _, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		hops = append(hops, pub)
	}
	rd := mathrand.New(mathrand.NewSource(1))
	msg := make([]byte, 36)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := WrapOnion(rd, hops, msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("WrapOnion through %d hops allocates %.0f times, want 1 (the onion)", len(hops), allocs)
	}
}

func benchMsgs(n int) [][]byte {
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, 36)
	}
	return msgs
}

func BenchmarkSealLadder(b *testing.B) {
	pub, _, _ := GenerateKey(rand.Reader)
	msg := make([]byte, 36)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Seal(rand.Reader, pub, msg)
	}
}

// BenchmarkSealBatch reports one box's cost in a mailbox-sized batch, on
// each field path with the scalar comb and, /lanes, on the lane comb.
func BenchmarkSealBatch(b *testing.B) {
	pub, _, _ := GenerateKey(rand.Reader)
	s := NewSealer(pub, 1000)
	msgs := benchMsgs(1000)
	seal := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(msgs) {
			s.SealBatch(rand.Reader, msgs)
		}
	}
	forEachFieldPathB(b, seal)
	runLanesB(b, seal)
}

// BenchmarkSealUnbatched is the comb without the shared inversion: one
// box per SealBatch call.
func BenchmarkSealUnbatched(b *testing.B) {
	pub, _, _ := GenerateKey(rand.Reader)
	s := NewSealer(pub, 1000)
	msgs := benchMsgs(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SealBatch(rand.Reader, msgs)
	}
}

func BenchmarkSealerTable(b *testing.B) {
	pub, _, _ := GenerateKey(rand.Reader)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSealer(pub, 1000)
	}
}

func BenchmarkOpen(b *testing.B) {
	pub, priv, _ := GenerateKey(rand.Reader)
	box, _ := Seal(rand.Reader, pub, make([]byte, 36))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Open(priv, box)
	}
}

// BenchmarkOpenAppend opens one box into a buffer with room for its
// message: 128 B, among a dialing onion's layers (84–180 B), and 400 B,
// among an add-friend onion's (393–489 B). A batch of one pays a whole
// inversion; BenchmarkOpenBatch shares it.
func BenchmarkOpenAppend(b *testing.B) {
	pub, priv, _ := GenerateKey(rand.Reader)
	forEachFieldPathB(b, func(b *testing.B) {
		for _, size := range []int{128, 400} {
			box, _ := Seal(rand.Reader, pub, make([]byte, size-Overhead))
			dst := make([]byte, 0, size-Overhead)
			b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink, _ = OpenAppend(dst, priv, box)
				}
			})
		}
	})
}

// BenchmarkCombScalarMult times one walk of the base table on each field
// path, and /lanes one lane's share of an eight-lane walk.
func BenchmarkCombScalarMult(b *testing.B) {
	tab := baseTable()
	var digits [64]int8
	recode(&digits, bytes.Repeat([]byte{0x5a}, 32))
	forEachFieldPathB(b, func(b *testing.B) {
		var p point
		for i := 0; i < b.N; i++ {
			tab.scalarMult(&p, &digits)
		}
	})
	runLanesB(b, func(b *testing.B) {
		var st laneCombState
		for i, d := range digits {
			for j := range st.digits[i] {
				st.digits[i][j] = d
			}
		}
		lt := baseLaneTable()
		for i := 0; i < b.N; i += laneCount {
			laneComb(&st, lt)
		}
	})
}
