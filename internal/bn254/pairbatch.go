package bn254

import "math/big"

// Batched pairing pipeline for the mailbox-scan pattern: one fixed G1
// key (AtePrecomputedG1) paired against a whole slice of wire-encoded G2
// points. Three per-element costs of the scalar path shrink here:
//
//   - the subgroup check of G2.Unmarshal (a full Order-bit ladder) becomes
//     the Galbraith–Scott short-vector check (isInSubgroupGS, one 63-bit
//     ladder plus ψ maps);
//   - the easy part of the final exponentiation shares one Fp12 inversion
//     across the whole batch (Montgomery trick, see batch.go);
//   - the hard part runs through the Devegili–Scott BN decomposition:
//     three exponentiations by the curve parameter u (63 bits each) plus
//     Frobenius maps and a short multiplication chain.
//
// The scalar Unmarshal + AtePrecomputedG1.Pair path is the element-wise
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

// cycloExpU sets e = a^u for a in the cyclotomic subgroup, walking uNAF
// with conj(a) standing in for a⁻¹ (a^(p⁶+1) = 1 there).
func (e *fe12) cycloExpU(a *fe12) *fe12 {
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

// Batch element states after the decode phase.
const (
	batchInvalid = uint8(iota)
	batchInf
	batchPoint
)

// g2DecodeBatch decodes one wire-encoded G2 element for the batch
// pipeline: same length/range/curve acceptance as G2.Unmarshal, with the
// Galbraith–Scott short-vector check in place of the Order ladder. Both
// checks accept exactly the same set of points; differential and fuzz
// tests pin the equivalence.
func g2DecodeBatch(q *G2, raw []byte) uint8 {
	if len(raw) != g2MarshalledSize {
		return batchInvalid
	}
	allZero := true
	for _, b := range raw {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return batchInf
	}
	var coords [4]fe
	for i := range coords {
		if !feSetBytes(&coords[i], raw[i*32:(i+1)*32]) {
			return batchInvalid
		}
	}
	q.x = fe2{c0: coords[0], c1: coords[1]}
	q.y = fe2{c0: coords[2], c1: coords[3]}
	q.inf = false
	if !q.IsOnCurve() {
		return batchInvalid
	}
	if !q.isInSubgroupGS() {
		return batchInvalid
	}
	return batchPoint
}

// PairScratch holds the reusable buffers of PairBatch. Reusing one across
// calls keeps the pipeline at zero heap allocations per ciphertext (an
// allocation test pins this); a nil scratch works and allocates per call.
// A PairScratch must not be used concurrently.
type PairScratch struct {
	qx, qy []fe2
	state  []uint8
	pre    []fe12
}

// NewPairScratch returns scratch space sized for batches of up to n
// elements (it grows on demand if a larger batch arrives).
func NewPairScratch(n int) *PairScratch {
	s := new(PairScratch)
	s.grow(n)
	return s
}

func (s *PairScratch) grow(n int) {
	if cap(s.qx) < n {
		s.qx = make([]fe2, n)
		s.qy = make([]fe2, n)
		s.state = make([]uint8, n)
		s.pre = make([]fe12, n)
	}
	s.qx = s.qx[:n]
	s.qy = s.qy[:n]
	s.state = s.state[:n]
	s.pre = s.pre[:n]
}

// PairBatch computes AtePair(p, Qᵢ) for a batch of wire-encoded G2 points,
// writing the pairing values into dst and per-element validity into ok
// (both must have len(raws)). ok[i] is false exactly when G2.Unmarshal
// would reject raws[i]; dst[i] is then the identity. Results for valid
// elements are identical to Unmarshal + pc.Pair. Four phases:
//
//  1. decode + curve check + Galbraith–Scott short-vector subgroup check;
//  2. one ~65-iteration ate Miller loop per element, lines on the fly;
//  3. easy part of the final exponentiation with ONE shared Fp12 inversion
//     (invalid/infinity slots are masked before the prefix chain — the
//     batch-inversion invariant of batch.go — so they never corrupt their
//     neighbors);
//  4. decomposed hard part per element.
//
// An AtePrecomputedG1 is read-only here and safe for concurrent PairBatch
// calls with distinct scratches.
func (pc *AtePrecomputedG1) PairBatch(raws [][]byte, dst []GT, ok []bool, scratch *PairScratch) {
	n := len(raws)
	if len(dst) != n || len(ok) != n {
		panic("bn254: PairBatch slice length mismatch")
	}
	ateOracleCheck()
	if scratch == nil {
		scratch = new(PairScratch)
	}
	scratch.grow(n)

	// Phase 1: decode + curve + GS subgroup checks.
	var q G2
	for i := range raws {
		st := g2DecodeBatch(&q, raws[i])
		scratch.state[i] = st
		if st == batchPoint {
			scratch.qx[i] = q.x
			scratch.qy[i] = q.y
		}
	}

	if pc.inf {
		// Pairing with the precomputation of infinity (or an erased key)
		// is the identity for every decodable element.
		for i := range raws {
			ok[i] = scratch.state[i] != batchInvalid
			dst[i].e.SetOne()
		}
		return
	}

	// Phase 2: ate Miller loops (lines on the fly, no allocation).
	for i := range raws {
		if scratch.state[i] == batchPoint {
			q.x = scratch.qx[i]
			q.y = scratch.qy[i]
			q.inf = false
			ateMillerInto(&dst[i].e, &pc.xp, &pc.yp, &q)
		}
	}

	// Phase 3: easy part of the final exponentiation with ONE shared Fp12
	// inversion. Miller values of valid pairings are nonzero (products of
	// nonzero line values), so the prefix chain over batchPoint slots
	// cannot contain zero.
	var acc fe12
	acc.SetOne()
	for i := range raws {
		if scratch.state[i] != batchPoint {
			continue
		}
		scratch.pre[i] = acc
		acc.Mul(&acc, &dst[i].e)
	}
	var inv fe12
	inv.Invert(&acc)
	for i := n - 1; i >= 0; i-- {
		if scratch.state[i] != batchPoint {
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
		switch scratch.state[i] {
		case batchPoint:
			ok[i] = true
			finalExpHardDecomp(&dst[i].e, &dst[i].e)
		case batchInf:
			ok[i] = true
			dst[i].e.SetOne()
		default:
			ok[i] = false
			dst[i].e.SetOne()
		}
	}
}
