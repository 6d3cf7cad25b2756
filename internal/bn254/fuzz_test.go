package bn254

// Fuzz harnesses cross-checking the limb backend against the big.Int
// reference on arbitrary untrusted inputs. `go test` runs the seed corpus
// on every CI pass; `go test -fuzz=FuzzG1Unmarshal ./internal/bn254`
// explores further.

import (
	"bytes"
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

func FuzzG1Unmarshal(f *testing.F) {
	f.Add(G1Generator().Marshal())
	f.Add(make([]byte, g1MarshalledSize))
	f.Add(new(G1).ScalarBaseMult(big.NewInt(7)).Marshal())
	bad := G1Generator().Marshal()
	bad[63] ^= 1
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := new(G1)
		r := new(refG1)
		errLimb := p.Unmarshal(data)
		errRef := r.Unmarshal(data)
		if (errLimb == nil) != (errRef == nil) {
			t.Fatalf("G1 acceptance disagreement on %x: limb=%v ref=%v", data, errLimb, errRef)
		}
		if errLimb == nil && !bytes.Equal(p.Marshal(), r.Marshal()) {
			t.Fatalf("G1 re-encoding disagreement on %x", data)
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
	})
}
