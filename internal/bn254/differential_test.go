package bn254

// Differential tests: the Montgomery limb backend (fe, fe2/6/12, G1/G2/GT,
// Pair) must agree bit-for-bit with the retained big.Int reference
// implementation (fp*, gfP*, refG1/refG2/refGT, refPair) on random inputs,
// and every wire encoding must be byte-identical between the two.

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func randFe(t testing.TB) (*big.Int, fe) {
	t.Helper()
	b, err := randFieldElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var z fe
	feFromBig(&z, b)
	return b, z
}

func TestFeDifferentialFieldOps(t *testing.T) {
	for i := 0; i < 200; i++ {
		aBig, a := randFe(t)
		bBig, b := randFe(t)

		check := func(op string, ref *big.Int, got *fe) {
			t.Helper()
			if feToBig(got).Cmp(ref) != 0 {
				t.Fatalf("%s mismatch: ref=%v got=%v (a=%v b=%v)", op, ref, feToBig(got), aBig, bBig)
			}
		}

		var z fe
		feAdd(&z, &a, &b)
		check("add", fpAdd(aBig, bBig), &z)
		feSub(&z, &a, &b)
		check("sub", fpSub(aBig, bBig), &z)
		feNeg(&z, &a)
		check("neg", fpNeg(aBig), &z)
		feMul(&z, &a, &b)
		check("mul", fpMul(aBig, bBig), &z)
		feSquare(&z, &a)
		check("square", fpSquare(aBig), &z)
		feDouble(&z, &a)
		check("double", fpDouble(aBig), &z)
		feMulBy3(&z, &a)
		check("mul3", fpMul(aBig, big.NewInt(3)), &z)
		feMulBy9(&z, &a)
		check("mul9", fpMul(aBig, big.NewInt(9)), &z)
		if aBig.Sign() != 0 {
			feInv(&z, &a)
			check("inv", fpInv(aBig), &z)
		}
	}
}

func TestFeDifferentialSqrt(t *testing.T) {
	for i := 0; i < 40; i++ {
		aBig, a := randFe(t)
		refRoot, refOK := fpSqrt(aBig)
		var root fe
		ok := feSqrt(&root, &a)
		if ok != refOK {
			t.Fatalf("sqrt residue disagreement on %v: ref=%v got=%v", aBig, refOK, ok)
		}
		if ok && feToBig(&root).Cmp(refRoot) != 0 {
			t.Fatalf("sqrt root mismatch on %v: ref=%v got=%v", aBig, refRoot, feToBig(&root))
		}
	}
}

func TestFeDifferentialExp(t *testing.T) {
	for i := 0; i < 20; i++ {
		aBig, a := randFe(t)
		eBig, _ := randFe(t)
		var z fe
		feExp(&z, &a, eBig)
		if feToBig(&z).Cmp(fpExp(aBig, eBig)) != 0 {
			t.Fatalf("exp mismatch: a=%v e=%v", aBig, eBig)
		}
	}
}

func TestFeBytesRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		aBig, a := randFe(t)
		var buf [32]byte
		feBytes(&a, &buf)
		var ref [32]byte
		aBig.FillBytes(ref[:])
		if buf != ref {
			t.Fatalf("byte encoding mismatch for %v: got %x want %x", aBig, buf, ref)
		}
		var back fe
		if !feSetBytes(&back, buf[:]) {
			t.Fatalf("canonical encoding rejected: %x", buf)
		}
		if !back.Equal(&a) {
			t.Fatalf("round trip changed value: %v", aBig)
		}
	}
	// Non-canonical encodings (≥ P) must be rejected.
	var buf [32]byte
	P.FillBytes(buf[:])
	var z fe
	if feSetBytes(&z, buf[:]) {
		t.Fatal("feSetBytes accepted P")
	}
}

func randRefGFp2(t testing.TB) *gfP2 {
	t.Helper()
	c0, err := randFieldElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := randFieldElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &gfP2{c0: c0, c1: c1}
}

func fe2FromRef(a *gfP2) (z fe2) {
	feFromBig(&z.c0, a.c0)
	feFromBig(&z.c1, a.c1)
	return
}

func fe2EqualRef(t testing.TB, op string, got *fe2, ref *gfP2) {
	t.Helper()
	if feToBig(&got.c0).Cmp(ref.c0) != 0 || feToBig(&got.c1).Cmp(ref.c1) != 0 {
		t.Fatalf("%s mismatch: got %v want %v", op, got, ref)
	}
}

func TestFe2Differential(t *testing.T) {
	for i := 0; i < 50; i++ {
		aRef, bRef := randRefGFp2(t), randRefGFp2(t)
		a, b := fe2FromRef(aRef), fe2FromRef(bRef)

		var z fe2
		fe2EqualRef(t, "add", z.Add(&a, &b), newGFp2().Add(aRef, bRef))
		fe2EqualRef(t, "sub", z.Sub(&a, &b), newGFp2().Sub(aRef, bRef))
		fe2EqualRef(t, "mul", z.Mul(&a, &b), newGFp2().Mul(aRef, bRef))
		fe2EqualRef(t, "square", z.Square(&a), newGFp2().Square(aRef))
		fe2EqualRef(t, "mulxi", z.MulXi(&a), newGFp2().MulXi(aRef))
		fe2EqualRef(t, "conj", z.Conjugate(&a), newGFp2().Conjugate(aRef))
		if !aRef.IsZero() {
			fe2EqualRef(t, "inv", z.Invert(&a), newGFp2().Invert(aRef))
		}

		// Sqrt: same residue decision and same root choice.
		sqRef := newGFp2().Square(aRef)
		sq := fe2FromRef(sqRef)
		refRoot := newGFp2()
		if !refRoot.Sqrt(sqRef) {
			t.Fatal("reference Sqrt failed on a square")
		}
		if !z.Sqrt(&sq) {
			t.Fatal("limb Sqrt failed on a square")
		}
		fe2EqualRef(t, "sqrt", &z, refRoot)
	}
}

func TestFe6Fe12Differential(t *testing.T) {
	randRef6 := func() *gfP6 {
		return &gfP6{c0: randRefGFp2(t), c1: randRefGFp2(t), c2: randRefGFp2(t)}
	}
	fe6FromRef := func(a *gfP6) (z fe6) {
		z.c0, z.c1, z.c2 = fe2FromRef(a.c0), fe2FromRef(a.c1), fe2FromRef(a.c2)
		return
	}
	fe6Equal := func(op string, got *fe6, ref *gfP6) {
		t.Helper()
		fe2EqualRef(t, op+".c0", &got.c0, ref.c0)
		fe2EqualRef(t, op+".c1", &got.c1, ref.c1)
		fe2EqualRef(t, op+".c2", &got.c2, ref.c2)
	}
	for i := 0; i < 20; i++ {
		aRef, bRef := randRef6(), randRef6()
		a, b := fe6FromRef(aRef), fe6FromRef(bRef)
		var z fe6
		fe6Equal("mul", z.Mul(&a, &b), newGFp6().Mul(aRef, bRef))
		fe6Equal("square", z.Square(&a), newGFp6().Square(aRef))
		fe6Equal("mulv", z.MulV(&a), newGFp6().MulV(aRef))
		fe6Equal("inv", z.Invert(&a), newGFp6().Invert(aRef))

		a12Ref := &gfP12{c0: aRef, c1: bRef}
		c12Ref := &gfP12{c0: randRef6(), c1: randRef6()}
		a12 := fe12{c0: a, c1: b}
		c12 := fe12{c0: fe6FromRef(c12Ref.c0), c1: fe6FromRef(c12Ref.c1)}
		var z12 fe12
		fe6Equal("mul12.c0", &z12.Mul(&a12, &c12).c0, newGFp12().Mul(a12Ref, c12Ref).c0)
		fe6Equal("mul12.c1", &z12.c1, newGFp12().Mul(a12Ref, c12Ref).c1)
		fe6Equal("sq12.c0", &z12.Square(&a12).c0, newGFp12().Square(a12Ref).c0)
		fe6Equal("sq12.c1", &z12.c1, newGFp12().Square(a12Ref).c1)
		fe6Equal("inv12.c0", &z12.Invert(&a12).c0, newGFp12().Invert(a12Ref).c0)
		fe6Equal("inv12.c1", &z12.c1, newGFp12().Invert(a12Ref).c1)
	}
}

// TestFe12FrobeniusP2 pins FrobeniusP2 against a generic p² exponentiation
// on the reference tower.
func TestFe12FrobeniusP2(t *testing.T) {
	aRef := &gfP12{
		c0: &gfP6{c0: randRefGFp2(t), c1: randRefGFp2(t), c2: randRefGFp2(t)},
		c1: &gfP6{c0: randRefGFp2(t), c1: randRefGFp2(t), c2: randRefGFp2(t)},
	}
	var a fe12
	a.c0.c0, a.c0.c1, a.c0.c2 = fe2FromRef(aRef.c0.c0), fe2FromRef(aRef.c0.c1), fe2FromRef(aRef.c0.c2)
	a.c1.c0, a.c1.c1, a.c1.c2 = fe2FromRef(aRef.c1.c0), fe2FromRef(aRef.c1.c1), fe2FromRef(aRef.c1.c2)
	p2 := new(big.Int).Mul(P, P)
	want := newGFp12().Exp(aRef, p2)
	var got fe12
	got.FrobeniusP2(&a)
	fe2EqualRef(t, "frobp2 c0.c0", &got.c0.c0, want.c0.c0)
	fe2EqualRef(t, "frobp2 c0.c1", &got.c0.c1, want.c0.c1)
	fe2EqualRef(t, "frobp2 c0.c2", &got.c0.c2, want.c0.c2)
	fe2EqualRef(t, "frobp2 c1.c0", &got.c1.c0, want.c1.c0)
	fe2EqualRef(t, "frobp2 c1.c1", &got.c1.c1, want.c1.c1)
	fe2EqualRef(t, "frobp2 c1.c2", &got.c1.c2, want.c1.c2)
}

// TestCyclotomicSquareDifferential checks Granger-Scott squaring against
// the generic Square on elements of the cyclotomic subgroup (where it is
// defined), reached the same way the final exponentiation reaches them.
func TestCyclotomicSquareDifferential(t *testing.T) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := new(G1).ScalarBaseMult(k)
	q := G2Generator()
	f := evalLines(g1Lines(p), &q.x, &q.y)

	// Easy part + p²-fold puts f in G_{Φ6(p²)}.
	var inv, g fe12
	inv.Invert(f)
	g.Conjugate(f)
	g.Mul(&g, &inv)
	var cyc fe12
	cyc.FrobeniusP2(&g)
	cyc.Mul(&cyc, &g)

	var want, got fe12
	want.Square(&cyc)
	got.CyclotomicSquare(&cyc)
	if !got.Equal(&want) {
		t.Fatal("CyclotomicSquare disagrees with Square on a cyclotomic element")
	}
	// And through a few iterations, as the window exponentiation uses it.
	for i := 0; i < 5; i++ {
		want.Square(&want)
		got.CyclotomicSquare(&got)
		if !got.Equal(&want) {
			t.Fatalf("CyclotomicSquare diverges at iteration %d", i)
		}
	}
}

// TestG1DifferentialGroupOps pins scalar multiplication, addition, and
// hashing against the reference through the shared byte encodings.
func TestG1DifferentialGroupOps(t *testing.T) {
	for i := 0; i < 10; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got := new(G1).ScalarBaseMult(k)
		want := new(refG1).ScalarBaseMult(k)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("G1 scalar-base mismatch at k=%v", k)
		}
		k2 := new(big.Int).Add(k, big.NewInt(12345))
		sum := new(G1).Add(got, new(G1).ScalarBaseMult(k2))
		refSum := new(refG1).Add(want, new(refG1).ScalarBaseMult(k2))
		if !bytes.Equal(sum.Marshal(), refSum.Marshal()) {
			t.Fatalf("G1 add mismatch at k=%v", k)
		}
		dbl := new(G1).Double(got)
		refDbl := new(refG1).Double(want)
		if !bytes.Equal(dbl.Marshal(), refDbl.Marshal()) {
			t.Fatalf("G1 double mismatch at k=%v", k)
		}
	}
	for _, msg := range []string{"", "alice@example.org", "bob@example.org", "x"} {
		got := HashToG1("diff-test", []byte(msg))
		want := refHashToG1("diff-test", []byte(msg))
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("HashToG1 mismatch on %q", msg)
		}
	}
}

func TestG2DifferentialGroupOps(t *testing.T) {
	for i := 0; i < 6; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got := new(G2).ScalarBaseMult(k)
		want := new(refG2).ScalarBaseMult(k)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("G2 scalar-base mismatch at k=%v", k)
		}
		neg := new(G2).Neg(got)
		refNeg := new(refG2).Neg(want)
		if !bytes.Equal(neg.Marshal(), refNeg.Marshal()) {
			t.Fatalf("G2 neg mismatch at k=%v", k)
		}
		sum := new(G2).Add(got, G2Generator())
		refSum := new(refG2).Add(want, refG2Generator())
		if !bytes.Equal(sum.Marshal(), refSum.Marshal()) {
			t.Fatalf("G2 add mismatch at k=%v", k)
		}
	}
}

// TestPairDifferential is the headline cross-check: the limb pairing must
// produce byte-identical GT elements to the reference Tate pairing, so
// every sealed IBE ciphertext and BLS check transfers between backends.
func TestPairDifferential(t *testing.T) {
	cases := []struct {
		kp, kq *big.Int
	}{
		{big.NewInt(1), big.NewInt(1)},
		{big.NewInt(2), big.NewInt(3)},
		{big.NewInt(1234577), big.NewInt(9876541)},
	}
	if !testing.Short() {
		k1, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct{ kp, kq *big.Int }{k1, k2})
	}
	for _, c := range cases {
		p := new(G1).ScalarBaseMult(c.kp)
		q := new(G2).ScalarBaseMult(c.kq)
		refP := new(refG1).ScalarBaseMult(c.kp)
		refQ := new(refG2).ScalarBaseMult(c.kq)
		got := Pair(p, q).Marshal()
		want := refPair(refP, refQ).Marshal()
		if !bytes.Equal(got, want) {
			t.Fatalf("pairing mismatch at kp=%v kq=%v", c.kp, c.kq)
		}
		// Fixed-argument precomputations must match the direct path.
		if !bytes.Equal(PrecomputeG1(p).Pair(q).Marshal(), got) {
			t.Fatalf("PrecomputeG1 pairing differs at kp=%v kq=%v", c.kp, c.kq)
		}
		if !bytes.Equal(PrecomputeG2(q).Pair(p).Marshal(), got) {
			t.Fatalf("PrecomputeG2 pairing differs at kp=%v kq=%v", c.kp, c.kq)
		}
	}
}

// TestPrecomputedG1Erase checks that Erase scrubs the key-equivalent line
// coefficients and degrades Pair to the identity (the erased-key shape).
func TestPrecomputedG1Erase(t *testing.T) {
	pre := PrecomputeG1(G1Generator())
	coeffs := pre.coeffs
	pre.Erase()
	for i := range coeffs {
		if !coeffs[i].cst.IsZero() || !coeffs[i].xm.IsZero() || !coeffs[i].ym.IsZero() {
			t.Fatal("Erase left line coefficients in memory")
		}
	}
	if !pre.Pair(G2Generator()).IsOne() {
		t.Fatal("erased precomputation should pair to the identity")
	}
}

// TestGeneratorEncodingPins pins the canonical encodings as fixed vectors
// shared by both backends.
func TestGeneratorEncodingPins(t *testing.T) {
	if !bytes.Equal(G1Generator().Marshal(), refG1Generator().Marshal()) {
		t.Fatal("G1 generator encodings differ")
	}
	if !bytes.Equal(G2Generator().Marshal(), refG2Generator().Marshal()) {
		t.Fatal("G2 generator encodings differ")
	}
	if !bytes.Equal(GTOne().Marshal(), refGTOne().Marshal()) {
		t.Fatal("GT identity encodings differ")
	}
	// Infinity encodings.
	if !bytes.Equal(new(G1).SetInfinity().Marshal(), new(refG1).SetInfinity().Marshal()) {
		t.Fatal("G1 infinity encodings differ")
	}
	if !bytes.Equal(new(G2).SetInfinity().Marshal(), new(refG2).SetInfinity().Marshal()) {
		t.Fatal("G2 infinity encodings differ")
	}
}

// TestUnmarshalDifferential checks that both backends accept and reject
// the same encodings.
func TestUnmarshalDifferential(t *testing.T) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	g1bytes := new(G1).ScalarBaseMult(k).Marshal()
	g2bytes := new(G2).ScalarBaseMult(k).Marshal()

	corrupt := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 1
		return c
	}
	for i := 0; i < len(g1bytes); i += 7 {
		data := corrupt(g1bytes, i)
		gotErr := new(G1).Unmarshal(data) != nil
		refErr := new(refG1).Unmarshal(data) != nil
		if gotErr != refErr {
			t.Fatalf("G1 acceptance disagreement at byte %d: limb=%v ref=%v", i, gotErr, refErr)
		}
	}
	for i := 0; i < len(g2bytes); i += 17 {
		data := corrupt(g2bytes, i)
		gotErr := new(G2).Unmarshal(data) != nil
		refErr := new(refG2).Unmarshal(data) != nil
		if gotErr != refErr {
			t.Fatalf("G2 acceptance disagreement at byte %d: limb=%v ref=%v", i, gotErr, refErr)
		}
	}
	// Round trips.
	p := new(G1)
	if err := p.Unmarshal(g1bytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Marshal(), g1bytes) {
		t.Fatal("G1 unmarshal/marshal round trip changed bytes")
	}
	q := new(G2)
	if err := q.Unmarshal(g2bytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Marshal(), g2bytes) {
		t.Fatal("G2 unmarshal/marshal round trip changed bytes")
	}
}

// TestCombScalarBaseMultDifferential cross-checks the fixed-base comb
// tables bit-for-bit against the generic Jacobian ladder AND the big.Int
// reference, over random scalars and the edge scalars 0, 1, r−1, r (and a
// few beyond-r values to exercise the reduction path).
func TestCombScalarBaseMultDifferential(t *testing.T) {
	scalars := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(Order),
		new(big.Int).Add(Order, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 255),
	}
	for i := 0; i < 20; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		scalars = append(scalars, k)
	}
	for _, k := range scalars {
		comb1 := new(G1).ScalarBaseMult(k).Marshal()
		ladder1 := new(G1).ScalarMult(G1Generator(), k).Marshal()
		ref1 := new(refG1).ScalarBaseMult(k).Marshal()
		if !bytes.Equal(comb1, ladder1) || !bytes.Equal(comb1, ref1) {
			t.Fatalf("G1 comb mismatch for k=%v:\ncomb   %x\nladder %x\nref    %x", k, comb1, ladder1, ref1)
		}
		comb2 := new(G2).ScalarBaseMult(k).Marshal()
		ladder2 := new(G2).ScalarMult(G2Generator(), k).Marshal()
		ref2 := new(refG2).ScalarBaseMult(k).Marshal()
		if !bytes.Equal(comb2, ladder2) || !bytes.Equal(comb2, ref2) {
			t.Fatalf("G2 comb mismatch for k=%v:\ncomb   %x\nladder %x\nref    %x", k, comb2, ladder2, ref2)
		}
	}
	// The batched variant must match element-wise, including a zero scalar
	// (infinity) in the middle of the shared affine-conversion pass.
	ks := []*big.Int{scalars[3], big.NewInt(0), scalars[len(scalars)-1], big.NewInt(7)}
	batch := G2ScalarBaseMultBatch(ks)
	for i, k := range ks {
		want := new(G2).ScalarBaseMult(k)
		if !batch[i].Equal(want) {
			t.Fatalf("G2ScalarBaseMultBatch[%d] mismatch for k=%v", i, k)
		}
	}
}

// TestTowerWorstCaseHeadroom drives the tower formulas that reduce lazily
// with the operands that push their unreduced accumulators highest: every
// limb-level coefficient at P−1 (the largest reduced element), and 0 and
// P−1 alternating either way round (the largest differences, so every
// borrow correction fires). The coefficients are set as raw limbs — it is
// the Montgomery-domain integers whose products the 512-bit accumulators
// hold — and each result is compared with the big.Int fp* reference on the
// values those limbs represent.
func TestTowerWorstCaseHeadroom(t *testing.T) {
	var pm1 fe
	feRawFromBig(&pm1, new(big.Int).Sub(P, big.NewInt(1)))
	patterns := map[string]func(i int) fe{
		"all P-1": func(int) fe { return pm1 },
		"0,P-1,…": func(i int) fe {
			if i%2 == 0 {
				return fe{}
			}
			return pm1
		},
		"P-1,0,…": func(i int) fe {
			if i%2 == 1 {
				return fe{}
			}
			return pm1
		},
	}
	build := func(coeff func(int) fe) (a fe12) {
		for i, c := range []*fe{
			&a.c0.c0.c0, &a.c0.c0.c1, &a.c0.c1.c0, &a.c0.c1.c1, &a.c0.c2.c0, &a.c0.c2.c1,
			&a.c1.c0.c0, &a.c1.c0.c1, &a.c1.c1.c0, &a.c1.c1.c1, &a.c1.c2.c0, &a.c1.c2.c1,
		} {
			*c = coeff(i)
		}
		return
	}
	ref2 := func(a *fe2) *gfP2 { return &gfP2{c0: feToBig(&a.c0), c1: feToBig(&a.c1)} }
	ref6 := func(a *fe6) *gfP6 { return &gfP6{c0: ref2(&a.c0), c1: ref2(&a.c1), c2: ref2(&a.c2)} }
	ref12 := func(a *fe12) *gfP12 { return &gfP12{c0: ref6(&a.c0), c1: ref6(&a.c1)} }
	zero2 := func() *gfP2 { return newGFp2().SetZero() }
	eq6 := func(op string, got *fe6, want *gfP6) {
		t.Helper()
		fe2EqualRef(t, op+".c0", &got.c0, want.c0)
		fe2EqualRef(t, op+".c1", &got.c1, want.c1)
		fe2EqualRef(t, op+".c2", &got.c2, want.c2)
	}
	eq12 := func(op string, got *fe12, want *gfP12) {
		t.Helper()
		eq6(op+".c0", &got.c0, want.c0)
		eq6(op+".c1", &got.c1, want.c1)
	}
	// Granger-Scott squaring over the reference tower, valid as a formula
	// on any element (it equals a² only in the cyclotomic subgroup).
	refCyclo := func(a *gfP12) *gfP12 {
		x0, x1, x2 := a.c0.c0, a.c0.c1, a.c0.c2
		x3, x4, x5 := a.c1.c0, a.c1.c1, a.c1.c2
		sq := func(x *gfP2) *gfP2 { return newGFp2().Square(x) }
		mix := func(x, y *gfP2) *gfP2 { return newGFp2().Add(newGFp2().MulXi(sq(x)), sq(y)) }
		cross := func(x, y *gfP2) *gfP2 { return newGFp2().Add(newGFp2().Mul(x, y), newGFp2().Mul(x, y)) }
		out := func(m, x *gfP2, sign int) *gfP2 { // 3m ∓ 2x
			r := newGFp2().Add(newGFp2().Add(m, m), m)
			x2 := newGFp2().Add(x, x)
			if sign < 0 {
				return r.Sub(r, x2)
			}
			return r.Add(r, x2)
		}
		return &gfP12{
			c0: &gfP6{c0: out(mix(x4, x0), x0, -1), c1: out(mix(x2, x3), x1, -1), c2: out(mix(x5, x1), x2, -1)},
			c1: &gfP6{c0: out(newGFp2().MulXi(cross(x5, x1)), x3, +1), c1: out(cross(x4, x0), x4, +1), c2: out(cross(x2, x3), x5, +1)},
		}
	}

	for an, ac := range patterns {
		a := build(ac)
		aRef := ref12(&a)
		var z2 fe2
		var z12 fe12
		fe2EqualRef(t, an+" fe2.Square", z2.Square(&a.c0.c0), newGFp2().Square(aRef.c0.c0))
		fe2EqualRef(t, an+" fe2.MulXi", z2.MulXi(&a.c0.c0), newGFp2().MulXi(aRef.c0.c0))
		eq12(an+" fe12.Square", z12.Square(&a), newGFp12().Square(aRef))
		eq12(an+" CyclotomicSquare", z12.CyclotomicSquare(&a), refCyclo(aRef))
		for bn, bc := range patterns {
			op := an + " × " + bn
			b := build(bc)
			bRef := ref12(&b)
			var z6 fe6
			fe2EqualRef(t, op+" fe2.Mul", z2.Mul(&a.c0.c0, &b.c0.c0), newGFp2().Mul(aRef.c0.c0, bRef.c0.c0))
			eq6(op+" fe6.Mul", z6.Mul(&a.c0, &b.c0), newGFp6().Mul(aRef.c0, bRef.c0))
			eq6(op+" fe6.Mul aliased", z6.Mul(z6.Set(&a.c0), &b.c0), newGFp6().Mul(aRef.c0, bRef.c0))
			eq6(op+" fe6.mulBy01fe2", z6.mulBy01fe2(&a.c0, &b.c0.c0, &b.c0.c1),
				newGFp6().Mul(aRef.c0, &gfP6{c0: bRef.c0.c0, c1: bRef.c0.c1, c2: zero2()}))
			eq12(op+" fe12.Mul", z12.Mul(&a, &b), newGFp12().Mul(aRef, bRef))
			// ℓ = c + b·w + la·w³: c at c0.c0, b at c1.c0, la at c1.c1.
			line := &gfP12{
				c0: &gfP6{c0: bRef.c0.c0, c1: zero2(), c2: zero2()},
				c1: &gfP6{c0: bRef.c0.c1, c1: bRef.c0.c2, c2: zero2()},
			}
			eq12(op+" MulAteLine", z12.MulAteLine(&a, &b.c0.c0, &b.c0.c1, &b.c0.c2), newGFp12().Mul(aRef, line))
		}
	}
}
