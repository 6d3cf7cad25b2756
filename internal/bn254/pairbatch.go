package bn254

import "math/big"

// Batched pairing pipeline for the mailbox-scan pattern: one fixed G2
// key (AtePrecomputedG2, its ate line table built once) paired against a
// whole slice of wire-encoded G1 points. Three per-element costs of the
// scalar path shrink here:
//
//   - the Miller loop replays the key's line table (ateEvalLinesInto):
//     no twist arithmetic per element, and the G1 decode is a range and
//     curve check with no subgroup check, since E(Fp) has prime order;
//   - the easy part of the final exponentiation shares one Fp12 inversion
//     across the whole batch (Montgomery trick, see batch.go);
//   - the hard part runs through the Devegili–Scott BN decomposition:
//     three exponentiations by the curve parameter u (63 bits each, in
//     signed windows) plus Frobenius maps and a short multiplication chain.
//
// The scalar Unmarshal + AtePrecomputedG2.Pair path is the element-wise
// differential oracle for this pipeline.

// frobGammaP1[k−1] = γ₁^k for k = 1..5, γ₁ = ξ^((p−1)/6) ∈ Fp2: the
// twist constants of the p-power Frobenius on the tower basis, derived at
// startup like their p² counterparts.
var frobGammaP1 = deriveFrobGammaP1()

func deriveFrobGammaP1() (g [5]fe2) {
	exp := new(big.Int).Sub(P, big.NewInt(1))
	if new(big.Int).Mod(exp, big.NewInt(6)).Sign() != 0 {
		panic("bn254: 6 does not divide p−1")
	}
	exp.Div(exp, big.NewInt(6))
	xi := fe2FromBig(big.NewInt(9), big.NewInt(1))
	var gamma fe2
	gamma.Exp(&xi, exp)
	g[0] = gamma
	for i := 1; i < 5; i++ {
		g[i].Mul(&g[i-1], &gamma)
	}
	return
}

// Frobenius sets e = a^p. On the tower basis {w^k} the map conjugates
// each Fp2 coefficient (the p-power Frobenius of Fp2) and multiplies the
// w^k slot by γ₁^k, since w^p = γ₁·w.
func (e *fe12) Frobenius(a *fe12) *fe12 {
	var t fe2
	e.c0.c0.Conjugate(&a.c0.c0)
	t.Conjugate(&a.c1.c0)
	e.c1.c0.Mul(&t, &frobGammaP1[0])
	t.Conjugate(&a.c0.c1)
	e.c0.c1.Mul(&t, &frobGammaP1[1])
	t.Conjugate(&a.c1.c1)
	e.c1.c1.Mul(&t, &frobGammaP1[2])
	t.Conjugate(&a.c0.c2)
	e.c0.c2.Mul(&t, &frobGammaP1[3])
	t.Conjugate(&a.c1.c2)
	e.c1.c2.Mul(&t, &frobGammaP1[4])
	return e
}

// uNAF is the BN parameter u in non-adjacent form, most significant digit
// last. Conjugation is free inversion in the cyclotomic subgroup, so the
// signed recoding trades binary Hamming weight 28 for NAF weight 24 in
// each of the three hard-part exponentiations by u.
var uNAF = deriveNAF(u)

// deriveNAF returns the non-adjacent form of a positive k (digits in
// {−1, 0, 1}, least significant first, no two adjacent nonzero).
func deriveNAF(k *big.Int) []int8 {
	if k.Sign() <= 0 {
		panic("bn254: NAF recoding of a non-positive exponent")
	}
	n := new(big.Int).Set(k)
	var digits []int8
	four := big.NewInt(4)
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			d := int8(2 - new(big.Int).Mod(n, four).Int64())
			digits = append(digits, d)
			n.Sub(n, big.NewInt(int64(d)))
		} else {
			digits = append(digits, 0)
		}
		n.Rsh(n, 1)
	}
	if digits[len(digits)-1] != 1 {
		panic("bn254: NAF recoding lost the leading digit")
	}
	return digits
}

// expWindow is one step of a signed sliding-window exponentiation: square
// shift times, then multiply by a^digit (digit odd, or 0 for squarings
// only).
type expWindow struct {
	shift int
	digit int8
}

// uWindows is uNAF cut into windows of width at most three, most
// significant first. A window starts and ends on a nonzero NAF digit, and
// no two NAF digits are adjacent, so every digit is ±1, ±3 or ±5: a table
// of a, a³ and a⁵ serves them all, and conjugation gives the negatives.
var uWindows = deriveWindows(uNAF, 3)

func deriveWindows(naf []int8, width int) []expWindow {
	var out []expWindow
	shift := 0
	for i := len(naf) - 1; i >= 0; {
		if naf[i] == 0 {
			shift++
			i--
			continue
		}
		lo := i - width + 1
		if lo < 0 {
			lo = 0
		}
		for naf[lo] == 0 {
			lo++
		}
		d := 0
		for k := i; k >= lo; k-- {
			d = 2*d + int(naf[k])
		}
		if d > 5 || d < -5 {
			panic("bn254: window digit outside the a, a³, a⁵ table")
		}
		out = append(out, expWindow{shift: shift + i - lo + 1, digit: int8(d)})
		shift = 0
		i = lo - 1
	}
	if shift > 0 {
		out = append(out, expWindow{shift: shift})
	}
	return out
}

// cycloExpU sets e = a^u for a in the cyclotomic subgroup, walking
// uWindows with conj standing in for inversion (a^(p⁶+1) = 1 there): 16
// Fp12 multiplications, two of them for the table, where the digit-by-
// digit NAF walk takes 23.
func (e *fe12) cycloExpU(a *fe12) *fe12 {
	var tab [3]fe12 // a, a³, a⁵
	var a2 fe12
	tab[0].Set(a)
	a2.CyclotomicSquare(a)
	tab[1].Mul(&tab[0], &a2)
	tab[2].Mul(&tab[1], &a2)
	var acc, t fe12
	pick := func(d int8) *fe12 {
		if d < 0 {
			return t.Conjugate(&tab[-d/2])
		}
		return &tab[d/2]
	}
	acc.Set(pick(uWindows[0].digit))
	for _, w := range uWindows[1:] {
		for j := 0; j < w.shift; j++ {
			acc.CyclotomicSquare(&acc)
		}
		if w.digit != 0 {
			acc.Mul(&acc, pick(w.digit))
		}
	}
	return e.Set(&acc)
}

// finalExpHardDecomp sets out = t^((p⁴−p²+1)/r) for t in the cyclotomic
// subgroup, using the Devegili–Scott BN decomposition [eprint 2007/390]:
// the exponent is a polynomial in u, so three exponentiations by u plus
// Frobenius maps and a fixed multiplication chain replace the generic
// 761-bit window. Conjugation is inversion in the cyclotomic subgroup
// (t^(p⁶+1) = 1 there), which the chain uses freely. Identical to
// CycloExpWindow(t, finalExpH) — a differential test pins the equality.
func finalExpHardDecomp(out, t *fe12) {
	var fp, fp2, fp3 fe12
	fp.Frobenius(t)
	fp2.FrobeniusP2(t)
	fp3.Frobenius(&fp2)

	var fu, fu2, fu3 fe12
	fu.cycloExpU(t)
	fu2.cycloExpU(&fu)
	fu3.cycloExpU(&fu2)

	var fup, fu2p, fu3p, y2 fe12
	fup.Frobenius(&fu)
	fu2p.Frobenius(&fu2)
	fu3p.Frobenius(&fu3)
	y2.FrobeniusP2(&fu2)

	var y0, y1, y3, y4, y5, y6 fe12
	y0.Mul(&fp, &fp2)
	y0.Mul(&y0, &fp3)
	y1.Conjugate(t)
	y3.Conjugate(&fup)
	y4.Mul(&fu, &fu2p)
	y4.Conjugate(&y4)
	y5.Conjugate(&fu2)
	y6.Mul(&fu3, &fu3p)
	y6.Conjugate(&y6)

	var t0, t1 fe12
	t0.CyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.CyclotomicSquare(&t1)
	t1.Mul(&t1, &t0)
	t1.CyclotomicSquare(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.CyclotomicSquare(&t0)
	out.Mul(&t0, &t1)
}

// finalExpDecomp maps a Miller value into GT:
// f ↦ f^((p¹²−1)/r) = ((conj(f)·f⁻¹)^(p²+1))^((p⁴−p²+1)/r), the hard
// part through finalExpHardDecomp. It is the only final exponentiation in
// the package; the tests keep the generic windowed one as its oracle.
func finalExpDecomp(f *fe12) *fe12 {
	var inv, g fe12
	inv.Invert(f)
	g.Conjugate(f)
	g.Mul(&g, &inv) // f^(p⁶−1)
	var t fe12
	t.FrobeniusP2(&g)
	t.Mul(&t, &g) // ^(p²+1); now in the cyclotomic subgroup
	out := new(fe12)
	finalExpHardDecomp(out, &t)
	return out
}

// g2PsiX/g2PsiY are the twist-endomorphism coefficients: composing
// untwist → p-power Frobenius → twist gives
//
//	ψ(x, y) = (γ₁²·conj(x), γ₁³·conj(y))
//
// since the untwisted coordinates sit at w² and w³. ψ acts as
// multiplication by 6u² (≡ p mod Order) on the prime-order subgroup of the
// twist.
var (
	g2PsiX = frobGammaP1[1]
	g2PsiY = frobGammaP1[2]
)

// PairScratch holds the reusable buffers of PairBatch. Reusing one across
// calls keeps the pipeline at zero heap allocations per ciphertext (an
// allocation test pins this); a nil scratch works and allocates per call.
// A PairScratch must not be used concurrently.
type PairScratch struct {
	xq, yinv, pre1 []fe
	valid          []bool
	pre            []fe12
}

// NewPairScratch returns scratch space sized for batches of up to n
// elements (it grows on demand if a larger batch arrives).
func NewPairScratch(n int) *PairScratch {
	s := new(PairScratch)
	s.grow(n)
	return s
}

func (s *PairScratch) grow(n int) {
	if cap(s.xq) < n {
		s.xq = make([]fe, n)
		s.yinv = make([]fe, n)
		s.pre1 = make([]fe, n)
		s.valid = make([]bool, n)
		s.pre = make([]fe12, n)
	}
	s.xq = s.xq[:n]
	s.yinv = s.yinv[:n]
	s.pre1 = s.pre1[:n]
	s.valid = s.valid[:n]
	s.pre = s.pre[:n]
}

// PairBatch computes AtePair(Pᵢ, q) for a batch of wire-encoded G1 points,
// writing the pairing values into dst and per-element validity into ok
// (both must have len(raws)). ok[i] is false exactly when G1.Unmarshal
// would reject raws[i]; dst[i] is then the identity, as it is for an
// encoded infinity. Results for valid elements are identical to Unmarshal
// + pc.Pair. Four phases:
//
//  1. decode (length, coordinate range, curve equation), then the replay
//     coordinates x/y and 1/y of every point with ONE shared Fp inversion;
//  2. one replay of q's line table per point;
//  3. easy part of the final exponentiation with ONE shared Fp12 inversion;
//  4. decomposed hard part per element.
//
// Both shared inversions mask invalid and infinity slots out of their
// prefix chains before they run — the batch-inversion invariant of
// batch.go — so those slots never corrupt their neighbors.
//
// An AtePrecomputedG2 is read-only here and safe for concurrent PairBatch
// calls with distinct scratches.
func (pc *AtePrecomputedG2) PairBatch(raws [][]byte, dst []GT, ok []bool, scratch *PairScratch) {
	n := len(raws)
	if len(dst) != n || len(ok) != n {
		panic("bn254: PairBatch slice length mismatch")
	}
	ateOracleCheck()
	if scratch == nil {
		scratch = new(PairScratch)
	}
	scratch.grow(n)

	// Phase 1: decode. Only finite points with a live key reach the chains.
	var p G1
	acc1 := feOne
	for i, raw := range raws {
		ok[i] = p.Unmarshal(raw) == nil
		dst[i].e.SetOne()
		scratch.valid[i] = ok[i] && !p.inf && !pc.inf
		if scratch.valid[i] {
			scratch.xq[i], scratch.yinv[i] = p.x, p.y
			scratch.pre1[i] = acc1
			feMul(&acc1, &acc1, &p.y)
		}
	}
	feInv(&acc1, &acc1)
	for i := n - 1; i >= 0; i-- {
		if !scratch.valid[i] {
			continue
		}
		var yinv fe
		feMul(&yinv, &acc1, &scratch.pre1[i])
		feMul(&acc1, &acc1, &scratch.yinv[i])
		scratch.yinv[i] = yinv
		feMul(&scratch.xq[i], &scratch.xq[i], &yinv)
	}

	// Phase 2: replay the line table against each point.
	for i := range raws {
		if scratch.valid[i] {
			pair := [1]ateFixedPair{{pc.lines, &scratch.xq[i], &scratch.yinv[i]}}
			ateEvalLinesInto(&dst[i].e, pair[:])
		}
	}

	// Phase 3: easy part of the final exponentiation with ONE shared Fp12
	// inversion. Miller values of valid pairings are nonzero (products of
	// nonzero line values), so the prefix chain over valid slots cannot
	// contain zero.
	var acc fe12
	acc.SetOne()
	for i := range raws {
		if !scratch.valid[i] {
			continue
		}
		scratch.pre[i] = acc
		acc.Mul(&acc, &dst[i].e)
	}
	var inv fe12
	inv.Invert(&acc)
	for i := n - 1; i >= 0; i-- {
		if !scratch.valid[i] {
			continue
		}
		var fInv, g fe12
		fInv.Mul(&inv, &scratch.pre[i])
		inv.Mul(&inv, &dst[i].e)
		g.Conjugate(&dst[i].e)
		g.Mul(&g, &fInv) // f^(p⁶−1)
		var t fe12
		t.FrobeniusP2(&g)
		dst[i].e.Mul(&t, &g) // ^(p²+1): now cyclotomic
	}

	// Phase 4: decomposed hard part per element.
	for i := range raws {
		if scratch.valid[i] {
			finalExpHardDecomp(&dst[i].e, &dst[i].e)
		}
	}
}
