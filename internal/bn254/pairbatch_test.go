package bn254

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func randFe12(t testing.TB) fe12 {
	t.Helper()
	var z fe12
	for _, c := range []*fe2{&z.c0.c0, &z.c0.c1, &z.c0.c2, &z.c1.c0, &z.c1.c1, &z.c1.c2} {
		_, c.c0 = randFe(t)
		_, c.c1 = randFe(t)
	}
	return z
}

// randCyclotomic maps a random Fp12 element into the cyclotomic subgroup
// the same way the final exponentiation does: a ↦ (conj(a)·a⁻¹)^(p²+1).
func randCyclotomic(t testing.TB) fe12 {
	t.Helper()
	a := randFe12(t)
	var inv, g, out fe12
	inv.Invert(&a)
	g.Conjugate(&a)
	g.Mul(&g, &inv)
	out.FrobeniusP2(&g)
	out.Mul(&out, &g)
	return out
}

// TestFrobeniusDifferential pins the derived γ₁ constants: the coefficient-
// wise Frobenius map must equal a generic exponentiation by p.
func TestFrobeniusDifferential(t *testing.T) {
	for i := 0; i < 5; i++ {
		a := randFe12(t)
		var viaMap, viaExp fe12
		viaMap.Frobenius(&a)
		viaExp.Exp(&a, P)
		if !viaMap.Equal(&viaExp) {
			t.Fatalf("Frobenius map disagrees with a^p on trial %d", i)
		}
	}
}

// TestFinalExpHardDecompDifferential pins the Devegili–Scott decomposition
// against the generic windowed exponentiation by (p⁴−p²+1)/r on random
// cyclotomic elements — the two hard-part implementations must agree
// exactly.
func TestFinalExpHardDecompDifferential(t *testing.T) {
	for i := 0; i < 8; i++ {
		c := randCyclotomic(t)
		var want, got fe12
		want.CycloExpWindow(&c, finalExpH)
		finalExpHardDecomp(&got, &c)
		if !got.Equal(&want) {
			t.Fatalf("hard-part decomposition disagrees with windowed exponentiation on trial %d", i)
		}
	}
}

// TestFinalExpDecompDifferential pins the full decomposed final
// exponentiation (easy part + Devegili–Scott hard part, as used by
// PairingCheck and both batch pipelines) against the windowed finalExp
// that Pair retains as the oracle, on arbitrary — not merely
// cyclotomic — field elements and on a genuine Miller value.
func TestFinalExpDecompDifferential(t *testing.T) {
	for i := 0; i < 8; i++ {
		f := randFe12(t)
		want := finalExp(&f)
		got := finalExpDecomp(&f)
		if !got.Equal(want) {
			t.Fatalf("decomposed final exp disagrees with windowed final exp on trial %d", i)
		}
	}
	m := evalLines(g1Lines(G1Generator()), &G2Generator().x, &G2Generator().y)
	if !finalExpDecomp(m).Equal(finalExp(m)) {
		t.Fatal("decomposed final exp disagrees on a Miller value")
	}
}

// TestFinalExpDecompSpeedupPin guards the hard-part decomposition used by
// PairingCheck (the BLS verification path): it must beat the generic
// windowed exponentiation by at least 1.5x (measured ~2x; the floor
// leaves a flake margin). Skipped in -short mode like the other pins.
func TestFinalExpDecompSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	f := randFe12(t)
	best := bestInterleaved(10, func() { finalExpDecomp(&f) }, func() { finalExp(&f) })
	decomp, window := best[0], best[1]
	if decomp*15 > window*10 {
		t.Errorf("decomposed final exp %v is under 1.5x the windowed %v (ratio %.2fx)",
			decomp, window, float64(window)/float64(decomp))
	}
	t.Logf("final exp: decomposed %v vs windowed %v (%.2fx)",
		decomp, window, float64(window)/float64(decomp))
}

// randTwistPoint finds a random point on the twist curve by sampling x
// until x³ + b is a square. Such points lie outside the prime-order
// subgroup with overwhelming probability (the twist group order is
// cofactor·Order with a ~254-bit cofactor).
func randTwistPoint(t testing.TB) *G2 {
	t.Helper()
	for {
		var p G2
		_, p.x.c0 = randFe(t)
		_, p.x.c1 = randFe(t)
		var y2 fe2
		y2.Square(&p.x)
		y2.Mul(&y2, &p.x)
		y2.Add(&y2, &feTwistB)
		if !p.y.Sqrt(&y2) {
			continue
		}
		if !p.IsOnCurve() {
			t.Fatal("randTwistPoint produced an off-curve point")
		}
		return &p
	}
}

// TestPsiSubgroupDifferential pins the ψ-endomorphism subgroup check
// against the generic Order-ladder check: identical accept/reject on
// subgroup points, crafted curve-but-not-subgroup points, and infinity.
func TestPsiSubgroupDifferential(t *testing.T) {
	for i := 0; i < 10; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		q := new(G2).ScalarBaseMult(k)
		if !q.isInSubgroupPsi() {
			t.Fatalf("ψ check rejected subgroup point %v·G2", k)
		}
		if !q.isInSubgroup() {
			t.Fatalf("ladder check rejected subgroup point %v·G2", k)
		}
	}
	for i := 0; i < 10; i++ {
		p := randTwistPoint(t)
		ladder := p.isInSubgroup()
		psi := p.isInSubgroupPsi()
		if ladder != psi {
			t.Fatalf("subgroup check disagreement on twist point %v: ladder=%v ψ=%v", p, ladder, psi)
		}
		if ladder {
			t.Log("random twist point landed in the subgroup (astronomically unlikely)")
		}
	}
	inf := new(G2).SetInfinity()
	if !inf.isInSubgroupPsi() || !inf.isInSubgroup() {
		t.Fatal("subgroup checks rejected infinity")
	}
}

// batchTestInputs builds a raw-encoding batch interleaving every invalid
// shape the wire can carry between valid ciphertext points: subgroup
// points, infinity, truncated/oversized encodings, out-of-range
// coordinates, off-curve points, and on-curve points outside the
// prime-order subgroup.
func batchTestInputs(t testing.TB) [][]byte {
	t.Helper()
	var raws [][]byte
	addPoint := func() {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, new(G2).ScalarBaseMult(k).Marshal())
	}
	addPoint()
	raws = append(raws, make([]byte, g2MarshalledSize)) // infinity
	addPoint()
	raws = append(raws, []byte{1, 2, 3}) // wrong length
	raws = append(raws, nil)             // empty
	addPoint()
	outOfRange := new(G2).ScalarBaseMult(big.NewInt(5)).Marshal()
	P.FillBytes(outOfRange[:32]) // coordinate ≥ P
	raws = append(raws, outOfRange)
	offCurve := new(G2).ScalarBaseMult(big.NewInt(6)).Marshal()
	offCurve[g2MarshalledSize-1] ^= 1
	raws = append(raws, offCurve)
	raws = append(raws, randTwistPoint(t).Marshal()) // curve, not subgroup
	addPoint()
	return raws
}

// TestPairBatchDifferential pins PairBatch element-wise against the scalar
// path (Unmarshal + PrecomputedG1.Pair) and, for valid elements, against
// the big.Int reference pairing. Invalid elements must be flagged exactly
// where Unmarshal rejects, without disturbing their neighbors.
func TestPairBatchDifferential(t *testing.T) {
	kp, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := new(G1).ScalarBaseMult(kp)
	pre := PrecomputeG1(p)
	refP := new(refG1).ScalarBaseMult(kp)

	raws := batchTestInputs(t)
	dst := make([]GT, len(raws))
	ok := make([]bool, len(raws))
	pre.PairBatch(raws, dst, ok, NewPairScratch(len(raws)))

	for i, raw := range raws {
		var q G2
		uerr := q.Unmarshal(raw)
		if ok[i] != (uerr == nil) {
			t.Fatalf("element %d: batch ok=%v but Unmarshal err=%v", i, ok[i], uerr)
		}
		if uerr != nil {
			if !dst[i].IsOne() {
				t.Fatalf("element %d: invalid element did not produce the identity", i)
			}
			continue
		}
		want := pre.Pair(&q)
		if !dst[i].Equal(want) {
			t.Fatalf("element %d: batch pairing disagrees with scalar path", i)
		}
		var refQ refG2
		if err := refQ.Unmarshal(raw); err != nil {
			t.Fatalf("element %d: reference backend rejected an element the limb backend accepted: %v", i, err)
		}
		if !bytes.Equal(dst[i].Marshal(), refPair(refP, &refQ).Marshal()) {
			t.Fatalf("element %d: batch pairing disagrees with big.Int reference", i)
		}
	}

	// An erased precomputation must behave like the scalar path: identity
	// for every decodable element, rejection preserved for the rest.
	erased := PrecomputeG1(p)
	erased.Erase()
	erased.PairBatch(raws, dst, ok, nil)
	for i, raw := range raws {
		var q G2
		uerr := q.Unmarshal(raw)
		if ok[i] != (uerr == nil) {
			t.Fatalf("erased element %d: batch ok=%v but Unmarshal err=%v", i, ok[i], uerr)
		}
		if !dst[i].IsOne() {
			t.Fatalf("erased element %d: expected identity", i)
		}
	}
}

// TestPairBatchAllocations pins the batched scan hot path at ZERO heap
// allocations per call once the scratch (and caller-owned dst/ok) are
// warm, so per-ciphertext GC traffic cannot silently come back.
func TestPairBatchAllocations(t *testing.T) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pre := PrecomputeG1(new(G1).ScalarBaseMult(k))
	const n = 4
	raws := make([][]byte, n)
	for i := range raws {
		ki, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = new(G2).ScalarBaseMult(ki).Marshal()
	}
	raws[1] = make([]byte, g2MarshalledSize) // infinity stays alloc-free too
	dst := make([]GT, n)
	ok := make([]bool, n)
	scratch := NewPairScratch(n)
	pre.PairBatch(raws, dst, ok, scratch) // warm the scratch
	allocs := testing.AllocsPerRun(3, func() {
		pre.PairBatch(raws, dst, ok, scratch)
	})
	if allocs != 0 {
		t.Fatalf("PairBatch allocated %.1f times per batch; want 0", allocs)
	}
}

// TestCombSpeedupPin is the regression guard for the fixed-base comb
// tables: ScalarBaseMult must beat the generic ladder by at least 3x on
// both G1 and G2 on the same machine (measured ~4-5x; the floor leaves a
// non-flakiness margin). Skipped in -short mode like the backend pin.
func TestCombSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	g1Comb() // exclude lazy table construction from the timing
	g2Comb()
	var p1 G1
	var p2 G2
	best := bestInterleaved(20,
		func() { p1.ScalarBaseMult(k) }, func() { p1.ScalarMult(G1Generator(), k) },
		func() { p2.ScalarBaseMult(k) }, func() { p2.ScalarMult(G2Generator(), k) })
	comb1, ladder1, comb2, ladder2 := best[0], best[1], best[2], best[3]

	const floor = 3
	if comb1*floor > ladder1 {
		t.Errorf("G1 comb %v is under %dx the ladder %v (ratio %.1fx)",
			comb1, floor, ladder1, float64(ladder1)/float64(comb1))
	}
	if comb2*floor > ladder2 {
		t.Errorf("G2 comb %v is under %dx the ladder %v (ratio %.1fx)",
			comb2, floor, ladder2, float64(ladder2)/float64(comb2))
	}
	t.Logf("G1 comb %v vs ladder %v: %.1fx; G2 comb %v vs ladder %v: %.1fx",
		comb1, ladder1, float64(ladder1)/float64(comb1),
		comb2, ladder2, float64(ladder2)/float64(comb2))
}

// TestPairBatchSpeedupPin guards the batched scan pipeline: decrypt-
// scanning a mailbox slice through PairBatch must beat the per-ciphertext
// precomputed path (Unmarshal + Pair) by a clear margin. The acceptance
// target is 1.5x and the measured ratio is ~1.6x; the pin floor is 1.3x
// so scheduler noise cannot flake the suite while a real regression (a
// lost ψ check or a fallback to the generic hard part) still trips it.
// Skipped in -short mode.
func TestPairBatchSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pre := PrecomputeG1(new(G1).ScalarBaseMult(k))
	const n = 8
	raws := make([][]byte, n)
	for i := range raws {
		ki, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = new(G2).ScalarBaseMult(ki).Marshal()
	}
	dst := make([]GT, n)
	ok := make([]bool, n)
	scratch := NewPairScratch(n)

	best := bestInterleaved(15,
		func() { pre.PairBatch(raws, dst, ok, scratch) },
		func() {
			for _, raw := range raws {
				var q G2
				if err := q.Unmarshal(raw); err != nil {
					t.Fatal(err)
				}
				pre.Pair(&q)
			}
		})
	batched, scalar := best[0], best[1]

	const floorNum, floorDen = 13, 10 // 1.3x
	if batched*floorNum > scalar*floorDen {
		t.Errorf("batched scan %v is under %d.%dx the per-ciphertext path %v (ratio %.2fx)",
			batched, floorNum/floorDen, floorNum%floorDen, scalar, float64(scalar)/float64(batched))
	}
	t.Logf("batched scan %v vs per-ciphertext %v: %.2fx (%d elements)",
		batched, scalar, float64(scalar)/float64(batched), n)
}

func BenchmarkG1ScalarBaseMultComb(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	g1Comb()
	var p G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScalarBaseMult(k)
	}
}

func BenchmarkG1ScalarMultLadder(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	var p G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScalarMult(G1Generator(), k)
	}
}

func BenchmarkG2ScalarMultLadder(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	var p G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScalarMult(G2Generator(), k)
	}
}

// BenchmarkPairBatch reports the per-ciphertext cost of the batched scan
// pipeline (unmarshal + ψ check + Miller + shared easy part + decomposed
// hard part).
func BenchmarkPairBatch(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	pre := PrecomputeG1(new(G1).ScalarBaseMult(k))
	const n = 16
	raws := make([][]byte, n)
	for i := range raws {
		ki, _ := RandomScalar(rand.Reader)
		raws[i] = new(G2).ScalarBaseMult(ki).Marshal()
	}
	dst := make([]GT, n)
	ok := make([]bool, n)
	scratch := NewPairScratch(n)
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		pre.PairBatch(raws, dst, ok, scratch)
	}
}
