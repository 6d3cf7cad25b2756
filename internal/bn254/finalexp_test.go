package bn254

import (
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
// exponentiation (easy part + Devegili–Scott hard part, the only one in
// production) against the windowed finalExp that the Tate oracle keeps, on
// arbitrary — not merely cyclotomic — field elements and on a genuine
// Miller value.
func TestFinalExpDecompDifferential(t *testing.T) {
	for i := 0; i < 8; i++ {
		f := randFe12(t)
		want := finalExp(&f)
		got := finalExpDecomp(new(fe12), &f)
		if !got.Equal(want) {
			t.Fatalf("decomposed final exp disagrees with windowed final exp on trial %d", i)
		}
	}
	m := evalLines(g1Lines(G1Generator()), &G2Generator().x, &G2Generator().y)
	if !finalExpDecomp(new(fe12), m).Equal(finalExp(m)) {
		t.Fatal("decomposed final exp disagrees on a Miller value")
	}
}

// TestFinalExpDecompSpeedupPin guards the hard-part decomposition behind
// every production pairing: it must beat the generic
// windowed exponentiation by at least 1.5x (measured ~2x; the floor
// leaves a flake margin). Skipped in -short mode like the other pins.
func TestFinalExpDecompSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	f := randFe12(t)
	var out fe12
	best := bestInterleaved(10, func() { finalExpDecomp(&out, &f) }, func() { finalExp(&f) })
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

// sixU2 = 6u² is ψ's eigenvalue on the prime-order subgroup of the twist
// (≡ p mod Order).
var sixU2 = new(big.Int).Mul(new(big.Int).Mul(u, u), big.NewInt(6))

// isInSubgroupPsi is the ψ-eigenvalue subgroup criterion ψ(p) = [6u²]p
// (Scott, eprint 2021/1130): a 127-bit ladder compared against ψ(p) in
// Jacobian form. Production uses the shorter Galbraith–Scott vector built
// on the same ψ; this check stays as a third oracle beside the Order
// ladder.
func (p *G2) isInSubgroupPsi() bool {
	if p.inf {
		return true
	}
	var px, py fe2
	px.Conjugate(&p.x)
	px.Mul(&px, &g2PsiX)
	py.Conjugate(&p.y)
	py.Mul(&py, &g2PsiY)
	var acc g2Jac
	acc.setInfinity()
	for i := sixU2.BitLen() - 1; i >= 0; i-- {
		acc.double(&acc)
		if sixU2.Bit(i) == 1 {
			acc.addMixed(&acc, p)
		}
	}
	if acc.isInfinity() {
		// ψ(p) is never infinity for p ≠ ∞, so [6u²]p = ∞ means p is
		// outside the subgroup.
		return false
	}
	// ψ(p) == acc ⟺ px·Z² == X and py·Z³ == Y.
	var z2, z3, t fe2
	z2.Square(&acc.z)
	z3.Mul(&z2, &acc.z)
	t.Mul(&px, &z2)
	if !t.Equal(&acc.x) {
		return false
	}
	t.Mul(&py, &z3)
	return t.Equal(&acc.y)
}

// TestPsiSubgroupDifferential pins the twist endomorphism the
// Galbraith–Scott check is built from: on subgroup points g2Psi must be
// multiplication by its eigenvalue 6u², and the ψ-eigenvalue criterion,
// the GS check and the Order ladder must accept and reject identically on
// subgroup points, crafted curve-but-not-subgroup points, and infinity.
func TestPsiSubgroupDifferential(t *testing.T) {
	for i := 0; i < 10; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		q := new(G2).ScalarBaseMult(k)
		var psiQ G2
		g2Psi(&psiQ, q)
		if !psiQ.Equal(new(G2).ScalarMult(q, sixU2)) {
			t.Fatalf("ψ is not multiplication by 6u² on %v·G2", k)
		}
		if !q.isInSubgroupPsi() || !q.isInSubgroupGS() || !q.isInSubgroup() {
			t.Fatalf("a subgroup check rejected subgroup point %v·G2", k)
		}
	}
	for i := 0; i < 10; i++ {
		p := randTwistPoint(t)
		ladder, psi, gs := p.isInSubgroup(), p.isInSubgroupPsi(), p.isInSubgroupGS()
		if ladder != psi || ladder != gs {
			t.Fatalf("subgroup check disagreement on twist point %v: ladder=%v ψ=%v GS=%v", p, ladder, psi, gs)
		}
		if ladder {
			t.Log("random twist point landed in the subgroup (astronomically unlikely)")
		}
	}
	inf := new(G2).SetInfinity()
	if !inf.isInSubgroupPsi() || !inf.isInSubgroupGS() || !inf.isInSubgroup() {
		t.Fatal("subgroup checks rejected infinity")
	}
}

// cycloExpUNAF is the digit-by-digit NAF walk that cycloExpU's windows
// replaced: one multiplication per nonzero digit of uNAF. It stays as the
// oracle the windowed walk is pinned against.
func (e *fe12) cycloExpUNAF(a *fe12) *fe12 {
	var acc, aInv fe12
	acc.Set(a)
	aInv.Conjugate(a)
	for i := len(uNAF) - 2; i >= 0; i-- {
		acc.CyclotomicSquare(&acc)
		switch uNAF[i] {
		case 1:
			acc.Mul(&acc, a)
		case -1:
			acc.Mul(&acc, &aInv)
		}
	}
	return e.Set(&acc)
}

// TestCycloExpUWindowDifferential pins the signed sliding window of the
// hard part bit for bit against the NAF walk it replaced and against the
// generic windowed exponentiation by u, on random cyclotomic elements and
// on 1; and it pins the multiplication count the window was chosen for.
func TestCycloExpUWindowDifferential(t *testing.T) {
	muls := 2 // the a³ and a⁵ table entries
	for _, w := range uWindows[1:] {
		if w.digit != 0 {
			muls++
		}
	}
	nafMuls := -1
	for _, d := range uNAF {
		if d != 0 {
			nafMuls++
		}
	}
	if muls != 16 || nafMuls != 23 {
		t.Fatalf("cycloExpU takes %d multiplications and the NAF walk %d; want 16 and 23", muls, nafMuls)
	}
	var one fe12
	one.SetOne()
	inputs := []fe12{one}
	for i := 0; i < 6; i++ {
		inputs = append(inputs, randCyclotomic(t))
	}
	for i := range inputs {
		var got, naf, generic fe12
		got.cycloExpU(&inputs[i])
		naf.cycloExpUNAF(&inputs[i])
		generic.CycloExpWindow(&inputs[i], u)
		if got != naf || !got.Equal(&generic) {
			t.Fatalf("input %d: windowed a^u differs from the NAF walk or the generic exponentiation", i)
		}
	}
}

// TestCombSpeedupPin is the regression guard for the fixed-base comb
// tables: ScalarBaseMult must beat the generic ladder on the same machine
// by at least 3x on G1 and 3.5x on G2 (measured ~4x and ~5x; the floors
// leave a non-flakiness margin). Both sides are timed interleaved, so the
// ratios hold when the machine's speed drifts. Skipped in -short mode like
// the backend pin.
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
	ratio1 := float64(ladder1) / float64(comb1)
	ratio2 := float64(ladder2) / float64(comb2)

	const g1Floor, g2Floor = 3.0, 3.5
	if ratio1 < g1Floor {
		t.Errorf("G1 comb %v is under %.1fx the ladder %v (ratio %.1fx)", comb1, g1Floor, ladder1, ratio1)
	}
	if ratio2 < g2Floor {
		t.Errorf("G2 comb %v is under %.1fx the ladder %v (ratio %.1fx)", comb2, g2Floor, ladder2, ratio2)
	}
	t.Logf("G1 comb %v vs ladder %v: %.1fx; G2 comb %v vs ladder %v: %.1fx",
		comb1, ladder1, ratio1, comb2, ladder2, ratio2)
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
