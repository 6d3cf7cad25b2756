package bn254

// Fuzz harnesses cross-checking the limb backend against the big.Int
// reference on arbitrary untrusted inputs. `go test` runs the seed corpus
// on every CI pass; `go test -fuzz=FuzzG1Unmarshal ./internal/bn254`
// explores further.

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func FuzzFeSetBytes(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	var pb [32]byte
	P.FillBytes(pb[:])
	f.Add(pb[:])
	pm := new(big.Int).Sub(P, big.NewInt(1))
	pm.FillBytes(pb[:])
	f.Add(pb[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 32 {
			return
		}
		v := new(big.Int).SetBytes(data)
		var z fe
		ok := feSetBytes(&z, data)
		if ok != (v.Cmp(P) < 0) {
			t.Fatalf("feSetBytes canonicality disagrees with big.Int on %x", data)
		}
		if ok {
			if feToBig(&z).Cmp(v) != 0 {
				t.Fatalf("feSetBytes value mismatch on %x", data)
			}
			var buf [32]byte
			feBytes(&z, &buf)
			if !bytes.Equal(buf[:], data) {
				t.Fatalf("feBytes round trip mismatch on %x", data)
			}
		}
	})
}

// g1TestEncodings lists every shape of G1 encoding the wire can carry:
// points with even and odd y, the identity, truncated/oversized
// encodings, x ≥ P, an x with no curve point, infinity flags with other
// bits set, and the 64-byte x ‖ y form the wire carried before points
// were compressed. (E(Fp) has prime order, so there is no on-curve,
// off-subgroup shape to add.)
func g1TestEncodings(t testing.TB) [][]byte {
	t.Helper()
	var raws [][]byte
	addPoint := func() {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, new(G1).ScalarBaseMult(k).Marshal())
	}
	addPoint()
	raws = append(raws, new(G1).SetInfinity().Marshal()) // the identity
	addPoint()
	raws = append(raws, []byte{1, 2, 3}) // wrong length
	raws = append(raws, nil)             // empty
	addPoint()
	outOfRange := make([]byte, g1MarshalledSize)
	P.FillBytes(outOfRange) // x = P
	raws = append(raws, outOfRange)
	raws = append(raws, g1NonResidueX(t))
	raws = append(raws, new(G2).ScalarBaseMult(big.NewInt(7)).Marshal()) // a G2 encoding: wrong length
	addPoint()

	raws = append(raws, G1Generator().Marshal())              // y = 2, even
	raws = append(raws, new(G1).Neg(G1Generator()).Marshal()) // y = P − 2, odd
	infBody := new(G1).SetInfinity().Marshal()
	infBody[g1MarshalledSize-1] = 1 // infinity with a nonzero body
	raws = append(raws, infBody)
	bothFlags := new(G1).Neg(G1Generator()).Marshal()
	bothFlags[0] |= g1FlagInfinity // a real x under both flag bits
	raws = append(raws, bothFlags)
	g := refG1Generator().ScalarMult(refG1Generator(), big.NewInt(9))
	legacy := make([]byte, 2*g1MarshalledSize) // x ‖ y, uncompressed
	g.x.FillBytes(legacy[:g1MarshalledSize])
	g.y.FillBytes(legacy[g1MarshalledSize:])
	raws = append(raws, legacy)
	return raws
}

// g1NonResidueX encodes the smallest x for which x³ + 3 is not a square:
// an x with no point on the curve.
func g1NonResidueX(t testing.TB) []byte {
	t.Helper()
	for x := int64(1); x < 1000; x++ {
		rhs := new(big.Int).Exp(big.NewInt(x), big.NewInt(3), P)
		if _, ok := fpSqrt(rhs.Add(rhs, curveB)); !ok {
			out := make([]byte, g1MarshalledSize)
			big.NewInt(x).FillBytes(out)
			return out
		}
	}
	t.Fatal("no non-residue x³ + 3 below 1000")
	return nil
}

// FuzzG1Unmarshal pins the compressed-point decoder, which every
// ciphertext element a mailbox scan reads goes through, to the big.Int
// reference: the same accept/reject and the same point. An accepted
// encoding must also be the point's one encoding: re-marshalling gives
// the input back. Its seeds are every shape in g1TestEncodings.
func FuzzG1Unmarshal(f *testing.F) {
	f.Add(G1Generator().Marshal())
	f.Add(new(G1).ScalarBaseMult(big.NewInt(7)).Marshal())
	bad := G1Generator().Marshal()
	bad[g1MarshalledSize-1] ^= 1
	f.Add(bad)
	for _, raw := range g1TestEncodings(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := new(G1)
		r := new(refG1)
		errLimb := p.Unmarshal(data)
		errRef := r.Unmarshal(data)
		if (errLimb == nil) != (errRef == nil) {
			t.Fatalf("G1 acceptance disagreement on %x: limb=%v ref=%v", data, errLimb, errRef)
		}
		if errLimb != nil {
			return
		}
		if !p.IsOnCurve() {
			t.Fatalf("G1 decoded %x off the curve", data)
		}
		if !bytes.Equal(p.Marshal(), data) || !bytes.Equal(r.Marshal(), data) {
			t.Fatalf("G1 re-encoding of %x differs: limb=%x ref=%x", data, p.Marshal(), r.Marshal())
		}
		if !p.IsInfinity() && (feToBig(&p.x).Cmp(r.x) != 0 || feToBig(&p.y).Cmp(r.y) != 0) {
			t.Fatalf("G1 decoded %x to %v, reference %v", data, p, r)
		}
	})
}

func FuzzG2Unmarshal(f *testing.F) {
	f.Add(G2Generator().Marshal())
	f.Add(make([]byte, g2MarshalledSize))
	bad := G2Generator().Marshal()
	bad[127] ^= 1
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference subgroup check costs milliseconds; cap the work
		// per input by rejecting wrong lengths first, as both backends do.
		p := new(G2)
		r := new(refG2)
		errLimb := p.Unmarshal(data)
		errRef := r.Unmarshal(data)
		if (errLimb == nil) != (errRef == nil) {
			t.Fatalf("G2 acceptance disagreement on %x: limb=%v ref=%v", data, errLimb, errRef)
		}
		if errLimb == nil && !bytes.Equal(p.Marshal(), r.Marshal()) {
			t.Fatalf("G2 re-encoding disagreement on %x", data)
		}
	})
}

// feOracleSeeds are the operands the carry chains and the masked
// reductions are most likely to get wrong: the ends of the range, the
// Montgomery constants, and limbs that are all ones or sit one either side
// of a limb boundary.
func feOracleSeeds() [][]byte {
	big1 := big.NewInt(1)
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(P, big1), new(big.Int).Sub(P, big.NewInt(2)),
		feRawToBig(&feOne), feRawToBig(&feR2),
		new(big.Int).Rsh(new(big.Int).Sub(P, big1), 1),
		new(big.Int).Sub(new(big.Int).Lsh(big1, 256), big1), // every limb all ones
	}
	for k := 0; k < 4; k++ {
		ones := new(big.Int).Lsh(new(big.Int).SetUint64(^uint64(0)), uint(64*k))
		vals = append(vals, ones)
		if k > 0 {
			edge := new(big.Int).Lsh(big1, uint(64*k))
			vals = append(vals, new(big.Int).Add(edge, big1), new(big.Int).Sub(edge, big1))
		}
	}
	seeds := make([][]byte, len(vals))
	for i, v := range vals {
		seeds[i] = v.FillBytes(make([]byte, 32))
	}
	return seeds
}

// feRawToBig reads the four limbs as an integer, without leaving the
// Montgomery domain.
func feRawToBig(x *fe) *big.Int {
	var buf [32]byte
	feRawBytes(x, &buf)
	return new(big.Int).SetBytes(buf[:])
}

func feWideToBig(w *feWide) *big.Int {
	lo, hi := fe{w[0], w[1], w[2], w[3]}, fe{w[4], w[5], w[6], w[7]}
	v := feRawToBig(&hi)
	return v.Lsh(v, 256).Or(v, feRawToBig(&lo))
}

// FuzzFeOpsMatchOracle drives every leaf of fe.go with arbitrary limbs and
// compares each result with two independent oracles: big.Int arithmetic
// on the limbs read as integers (the Montgomery product of x and y is
// x·y·R⁻¹ mod P), and the schoolbook code the leaves replaced. a and b
// are big-endian; x and y are their values mod P, and the raw 256-bit
// values feed the operand slots documented to take unreduced input.
// The names the towers call run the assembly kernels where the CPU has
// them (fe_amd64.s); each kernel, Fp and Fp2 alike, is also held to its
// Go twin limb for limb.
func FuzzFeOpsMatchOracle(f *testing.F) {
	seeds := feOracleSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), P)
	wideMod := new(big.Int).Lsh(P, 256) // P·2²⁵⁶
	mod := func(v *big.Int) *big.Int { return v.Mod(v, P) }
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 32 || len(b) > 32 {
			return
		}
		aBig, bBig := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		xBig, yBig := new(big.Int).Mod(aBig, P), new(big.Int).Mod(bBig, P)
		var x, y, xLoose, yLoose fe
		feRawFromBig(&x, xBig)
		feRawFromBig(&y, yBig)
		feRawFromBig(&xLoose, aBig)
		feRawFromBig(&yLoose, bBig)

		check := func(op string, got *fe, school *fe, want *big.Int) {
			t.Helper()
			if school != nil && *got != *school {
				t.Fatalf("%s(%x, %x): limbs %x, schoolbook %x", op, a, b, *got, *school)
			}
			if feRawToBig(got).Cmp(want) != 0 {
				t.Fatalf("%s(%x, %x): %x, big.Int %x", op, a, b, feRawToBig(got), want)
			}
		}
		montMul := func(u, v *big.Int) *big.Int {
			p := new(big.Int).Mul(u, v)
			return mod(p.Mul(p, rInv))
		}

		var z, s fe
		feMul(&z, &x, &y)
		schoolMul(&s, &x, &y)
		check("feMul", &z, &s, montMul(xBig, yBig))
		feMul(&z, &xLoose, &y) // first operand may be any four limbs
		check("feMul unreduced", &z, nil, montMul(aBig, yBig))
		feSquare(&z, &x)
		schoolMul(&s, &x, &x)
		check("feSquare", &z, &s, montMul(xBig, xBig))
		feAdd(&z, &x, &y)
		schoolAdd(&s, &x, &y)
		check("feAdd", &z, &s, mod(new(big.Int).Add(xBig, yBig)))
		feSub(&z, &x, &y)
		schoolSub(&s, &x, &y)
		check("feSub", &z, &s, mod(new(big.Int).Sub(xBig, yBig)))
		feNeg(&z, &x)
		schoolNeg(&s, &x)
		check("feNeg", &z, &s, mod(new(big.Int).Neg(xBig)))
		feDouble(&z, &x)
		schoolAdd(&s, &x, &x)
		check("feDouble", &z, &s, mod(new(big.Int).Lsh(xBig, 1)))
		feMulBy3(&z, &x)
		check("feMulBy3", &z, nil, mod(new(big.Int).Mul(xBig, big.NewInt(3))))
		feMulBy9(&z, &x)
		check("feMulBy9", &z, nil, mod(new(big.Int).Mul(xBig, big.NewInt(9))))
		z = xLoose
		if aBig.Cmp(new(big.Int).Lsh(P, 1)) < 0 {
			z[0], z[1], z[2], z[3] = feCondSubP(z[0], z[1], z[2], z[3])
			check("feCondSubP", &z, nil, new(big.Int).Mod(aBig, P))
		}

		// feReduce5 on a five-limb value under 16P.
		if five := new(big.Int).Lsh(big.NewInt(int64(len(b)%16)), 256); five.Or(five, aBig).Cmp(new(big.Int).Lsh(P, 4)) < 0 {
			z[0], z[1], z[2], z[3] = feReduce5(xLoose[0], xLoose[1], xLoose[2], xLoose[3], uint64(len(b)%16))
			check("feReduce5", &z, nil, mod(five))
		}

		// The 512-bit product and square of any two four-limb values, and
		// the reduction of a product.
		var w, w2 feWide
		feMulWide(&w, &xLoose, &yLoose)
		if feWideToBig(&w).Cmp(new(big.Int).Mul(aBig, bBig)) != 0 {
			t.Fatalf("feMulWide(%x, %x) = %x", a, b, w)
		}
		feSquareWide(&w, &xLoose)
		if feWideToBig(&w).Cmp(new(big.Int).Mul(aBig, aBig)) != 0 {
			t.Fatalf("feSquareWide(%x) = %x", a, w)
		}
		feMulWide(&w, &x, &y)
		w2 = w
		feMontReduce(&z, &w)
		schoolMul(&s, &x, &y)
		check("feMulWide+feMontReduce", &z, &s, montMul(xBig, yBig))
		if w != w2 {
			t.Fatal("feMontReduce changed its input")
		}

		// Unreduced-domain sums: operands anywhere under P·2²⁵⁶ (a reduced
		// high half over arbitrary low limbs), results exact mod P·2²⁵⁶.
		u := feWide{yLoose[0], yLoose[1], yLoose[2], yLoose[3], x[0], x[1], x[2], x[3]}
		v := feWide{xLoose[0], xLoose[1], xLoose[2], xLoose[3], y[0], y[1], y[2], y[3]}
		uBig, vBig, wBig := feWideToBig(&u), feWideToBig(&v), feWideToBig(&w)
		checkWide := func(op string, got *feWide, want *big.Int) {
			t.Helper()
			if feWideToBig(got).Cmp(want.Mod(want, wideMod)) != 0 {
				t.Fatalf("%s(%x, %x): %x, big.Int %x", op, a, b, feWideToBig(got), want)
			}
		}
		var r feWide
		feWideSubMod(&r, &u, &v)
		checkWide("feWideSubMod", &r, new(big.Int).Sub(uBig, vBig))
		feWideAddMod(&r, &u, &v)
		checkWide("feWideAddMod", &r, new(big.Int).Add(uBig, vBig))
		nine := new(big.Int).Mul(uBig, big.NewInt(9))
		feWideMul9SubAdd(&r, &u, &v, &w)
		checkWide("feWideMul9SubAdd", &r, new(big.Int).Add(new(big.Int).Sub(nine, vBig), wBig))
		feWideMul9AddAdd(&r, &u, &v, &w)
		checkWide("feWideMul9AddAdd", &r, new(big.Int).Add(new(big.Int).Add(nine, vBig), wBig))
		if uBig.Cmp(vBig) >= 0 {
			feWideSub(&r, &u, &v)
			checkWide("feWideSub", &r, new(big.Int).Sub(uBig, vBig))
		}

		// The reduction of any t < P·2²⁵⁶, not only of a product.
		montRed := func(v *big.Int) *big.Int { return mod(new(big.Int).Mul(v, rInv)) }
		feMontReduce(&z, &u)
		check("feMontReduce", &z, nil, montRed(uBig))
		feMontReduce(&z, &v)
		check("feMontReduce", &z, nil, montRed(vBig))

		// Each kernel against its Go twin. Without kernels both sides run
		// the Go leaves.
		twin := func(op string, got, want any) {
			t.Helper()
			if got != want {
				t.Fatalf("%s(%x, %x): kernel %x, Go twin %x", op, a, b, got, want)
			}
		}
		var zg fe
		feMul(&z, &x, &y)
		feMulGeneric(&zg, &x, &y)
		twin("feMul", z, zg)
		feMul(&z, &xLoose, &y)
		feMulGeneric(&zg, &xLoose, &y)
		twin("feMul unreduced", z, zg)
		feSquare(&z, &x)
		feSquareGeneric(&zg, &x)
		twin("feSquare", z, zg)
		for _, tw := range []*feWide{&u, &v, &w} {
			feMontReduce(&z, tw)
			feMontReduceGeneric(&zg, tw)
			twin("feMontReduce", z, zg)
		}

		// The Fp2 kernels on A = x + y·i and B = x2 + x·i, x2 a third
		// reduced value, and on the wide pairs (u, v) and (v, w).
		x2Big := mod(new(big.Int).Mul(aBig, bBig))
		var x2 fe
		feRawFromBig(&x2, x2Big)
		A, B := fe2{x, y}, fe2{x2, x}
		check2 := func(op string, got, want *fe2, c0, c1 *big.Int) {
			t.Helper()
			check(op+".c0", &got.c0, nil, c0)
			check(op+".c1", &got.c1, nil, c1)
			twin(op, *got, *want)
		}
		checkWide2 := func(op string, got, want *fe2Wide, c0, c1 *big.Int) {
			t.Helper()
			checkWide(op+".c0", &got.c0, c0)
			checkWide(op+".c1", &got.c1, c1)
			twin(op, *got, *want)
		}
		mul := func(u, v *big.Int) *big.Int { return new(big.Int).Mul(u, v) }
		add := func(u, v *big.Int) *big.Int { return new(big.Int).Add(u, v) }
		sub := func(u, v *big.Int) *big.Int { return new(big.Int).Sub(u, v) }
		times9 := func(u *big.Int) *big.Int { return mul(u, big.NewInt(9)) }

		var e2, e2g fe2
		var wide2, wide2g fe2Wide
		fe2WideMul(&wide2, &A, &B)
		fe2WideMulGeneric(&wide2g, &A, &B)
		checkWide2("fe2WideMul", &wide2, &wide2g, sub(mul(xBig, x2Big), mul(yBig, xBig)), add(mul(xBig, xBig), mul(yBig, x2Big)))
		fe2WideSquare(&wide2, &A)
		fe2WideSquareGeneric(&wide2g, &A)
		checkWide2("fe2WideSquare", &wide2, &wide2g, mul(add(xBig, yBig), mod(sub(xBig, yBig))), mul(add(xBig, xBig), yBig))
		W, V := fe2Wide{u, v}, fe2Wide{v, w}
		fe2WideReduce(&e2, &W)
		fe2WideReduceGeneric(&e2g, &W)
		check2("fe2WideReduce", &e2, &e2g, montRed(uBig), montRed(vBig))
		fe2Add(&e2, &A, &B)
		fe2AddGeneric(&e2g, &A, &B)
		check2("fe2Add", &e2, &e2g, mod(add(xBig, x2Big)), mod(add(yBig, xBig)))
		fe2Sub(&e2, &A, &B)
		fe2SubGeneric(&e2g, &A, &B)
		check2("fe2Sub", &e2, &e2g, mod(sub(xBig, x2Big)), mod(sub(yBig, xBig)))
		fe2MulXi(&e2, &A)
		fe2MulXiGeneric(&e2g, &A)
		check2("fe2MulXi", &e2, &e2g, mod(sub(times9(xBig), yBig)), mod(add(times9(yBig), xBig)))
		fe2WideAdd(&wide2, &W, &V)
		fe2WideAddGeneric(&wide2g, &W, &V)
		checkWide2("fe2WideAdd", &wide2, &wide2g, add(uBig, vBig), add(vBig, wBig))
		fe2WideSub(&wide2, &W, &V)
		fe2WideSubGeneric(&wide2g, &W, &V)
		checkWide2("fe2WideSub", &wide2, &wide2g, sub(uBig, vBig), sub(vBig, wBig))
		fe2WideAddMulXi(&wide2, &W, &V)
		fe2WideAddMulXiGeneric(&wide2g, &W, &V)
		checkWide2("fe2WideAddMulXi", &wide2, &wide2g, add(uBig, sub(times9(vBig), wBig)), add(vBig, add(times9(wBig), vBig)))
	})
}

// FuzzHashToG2 checks the identity hash on arbitrary messages: the result
// is on the twist, in the prime-order subgroup by the Order-ladder oracle
// (not the Galbraith–Scott check Unmarshal uses), never infinity, and
// deterministic.
func FuzzHashToG2(f *testing.F) {
	f.Add("bf-ibe-identity", []byte("alice@example.org"))
	f.Add("", []byte{})
	f.Add("d", bytes.Repeat([]byte{0xff}, 300))
	f.Fuzz(func(t *testing.T, domain string, msg []byte) {
		p := HashToG2(domain, msg)
		if p.IsInfinity() || !p.IsOnCurve() || !p.isInSubgroup() {
			t.Fatalf("HashToG2(%q, %x) = %v is not a subgroup point", domain, msg, p)
		}
		if !p.Equal(HashToG2(domain, msg)) {
			t.Fatalf("HashToG2(%q, %x) is not deterministic", domain, msg)
		}
	})
}
