package bn254

import (
	"math/big"
	"sync"
)

// laneBreakEven is the fewest entries PairMarshalledBatch pairs in
// lanes: a group costs the same however many of its lanes hold an entry,
// so a remainder of fewer entries than this takes the scalar path. See
// EXPERIMENTS.md, "Eight trial decryptions per lane walk", for the
// measurement behind it.
const laneBreakEven = 3

// laneLine is one monic line of a replay table in the lanes' form: la's
// and lb's coefficients as five 52-bit limbs each, converted once per
// batch and broadcast to every lane where the replay reads them.
type laneLine struct {
	la, lb [2][5]uint64
}

// laneOp names a kernel, for the operation counts.
type laneOp int

const (
	laneOpMul laneOp = iota
	laneOpAdd
	laneOpMul2
	laneOpSquare2
	laneOpAdd2
	laneOpMulXi2
	laneOpAdd6
	laneOpKinds
)

// laneState is the lane pairing's memory: the replay table in lane form,
// the decode's and the replay's values, every temporary of the tower and
// the final exponentiation, and the kernel calls since it was zeroed, by
// kind. Everything but the counts is a function of the identity key or of
// the entries; PairMarshalledBatch zeroes the whole state before it
// returns it to laneStates, and no value it held outlives the batch.
type laneState struct {
	lines [ateMaxLines]laneLine

	rhs, r, xq, yinv laneFe
	f                lane12
	b, a, lc         lane2

	fe  [3]laneFe // invert2
	t2  [10]lane2 // mul6, mulBy01 and cyclotomicSquare
	i2  [6]lane2  // invert6
	t6  [6]lane6  // mul12, square12, mulLine and invert12
	u   [5]lane12 // cycloExpU
	h   [9]lane12 // the final exponentiation
	ops [laneOpKinds]uint64
}

// laneStates holds the states of finished batches, zeroed, so that a
// scan allocates one per worker at most and not one per batch.
var laneStates = sync.Pool{New: func() any { return new(laneState) }}

// Constants every lane reads: zero, one, the Frobenius twists, and the
// replay coordinates of the public point an empty lane pairs with.
var (
	laneZero6  lane6
	laneOneFe  laneFe
	laneFrobP1 [5]lane2
	laneFrobP2 [5]lane2

	laneDummyXq, laneDummyYinv fe
)

func init() {
	laneOneFe.broadcast(&feOne)
	for k := range laneFrobP1 {
		laneFrobP1[k].broadcast(&frobGammaP1[k])
		laneFrobP2[k].broadcast(&frobGammaP2[k])
	}
	laneDummyXq, laneDummyYinv = ateFixedPoint(G1Generator())
}

// bcast puts the coefficients c into every lane of e.
func (e *lane2) bcast(c *[2][5]uint64) {
	for k := 0; k < 5; k++ {
		for j := 0; j < laneCount; j++ {
			e.c0[k][j] = c[0][k]
			e.c1[k][j] = c[1][k]
		}
	}
}

// The kernels, counted.

func (s *laneState) mul(z, x, y *laneFe) { laneMul(z, x, y); s.ops[laneOpMul]++ }
func (s *laneState) sub(z, x, y *laneFe) { laneSub(z, x, y); s.ops[laneOpAdd]++ }
func (s *laneState) add(z, x, y *laneFe) { laneAdd(z, x, y); s.ops[laneOpAdd]++ }
func (s *laneState) mul2(z, x, y *lane2) { lane2Mul(z, x, y); s.ops[laneOpMul2]++ }
func (s *laneState) sqr2(z, x *lane2)    { lane2Square(z, x); s.ops[laneOpSquare2]++ }
func (s *laneState) add2(z, x, y *lane2) { lane2Add(z, x, y); s.ops[laneOpAdd2]++ }
func (s *laneState) sub2(z, x, y *lane2) { lane2Sub(z, x, y); s.ops[laneOpAdd2]++ }
func (s *laneState) xi2(z, x *lane2)     { lane2MulXi(z, x); s.ops[laneOpMulXi2]++ }

// The tower, as fe2.go, fe6.go and fe12.go have it, on lane elements:
// the same formulas, with every temporary in s. Every receiver may alias
// an operand unless its comment says otherwise.

func (s *laneState) conj2(z, x *lane2) {
	z.c0 = x.c0
	s.sub(&z.c1, &laneZero6.c0.c1, &x.c1)
}

// mulFe2 sets z = x·k for k in Fp.
func (s *laneState) mulFe2(z, x *lane2, k *laneFe) {
	s.mul(&z.c0, &x.c0, k)
	s.mul(&z.c1, &x.c1, k)
}

func (s *laneState) add6(e, a, b *lane6) { lane6Add(e, a, b); s.ops[laneOpAdd6]++ }
func (s *laneState) sub6(e, a, b *lane6) { lane6Sub(e, a, b); s.ops[laneOpAdd6]++ }

func (s *laneState) neg6(e, a *lane6) { s.sub6(e, &laneZero6, a) }

// mulV6 is fe6.MulV.
func (s *laneState) mulV6(e, a *lane6) {
	t := &s.t2[0]
	s.xi2(t, &a.c2)
	e.c2 = a.c1
	e.c1 = a.c0
	e.c0 = *t
}

// mul6 is fe6.Mul: six Fp2 products, Karatsuba.
func (s *laneState) mul6(e, a, b *lane6) {
	v0, v1, v2, t := &s.t2[1], &s.t2[2], &s.t2[3], &s.t2[4]
	sa, sb, e0, e1 := &s.t2[5], &s.t2[6], &s.t2[7], &s.t2[8]
	s.mul2(v0, &a.c0, &b.c0)
	s.mul2(v1, &a.c1, &b.c1)
	s.mul2(v2, &a.c2, &b.c2)

	s.add2(sa, &a.c1, &a.c2)
	s.add2(sb, &b.c1, &b.c2)
	s.mul2(t, sa, sb)
	s.sub2(t, t, v1)
	s.sub2(t, t, v2)
	s.xi2(t, t)
	s.add2(e0, v0, t)

	s.add2(sa, &a.c0, &a.c1)
	s.add2(sb, &b.c0, &b.c1)
	s.mul2(t, sa, sb)
	s.sub2(t, t, v0)
	s.sub2(t, t, v1)
	s.xi2(e1, v2)
	s.add2(e1, e1, t)

	s.add2(sa, &a.c0, &a.c2)
	s.add2(sb, &b.c0, &b.c2)
	s.mul2(t, sa, sb)
	s.sub2(t, t, v0)
	s.sub2(t, t, v2)
	s.add2(&e.c2, t, v1)
	e.c0, e.c1 = *e0, *e1
}

// mulBy01 is fe6.mulBy01fe2.
func (s *laneState) mulBy01(e, a *lane6, b0, b1 *lane2) {
	p00, p11, t := &s.t2[1], &s.t2[2], &s.t2[3]
	sa, sb, e0, e1 := &s.t2[4], &s.t2[5], &s.t2[6], &s.t2[7]
	s.mul2(p00, b0, &a.c0)
	s.mul2(p11, b1, &a.c1)

	s.mul2(t, b1, &a.c2)
	s.xi2(t, t)
	s.add2(e0, p00, t)

	s.add2(sa, &a.c0, &a.c1)
	s.add2(sb, b0, b1)
	s.mul2(t, sb, sa)
	s.sub2(t, t, p00)
	s.sub2(e1, t, p11)

	s.mul2(t, b0, &a.c2)
	s.add2(&e.c2, t, p11)
	e.c0, e.c1 = *e0, *e1
}

// mul12 is fe12.Mul.
func (s *laneState) mul12(e, a, b *lane12) {
	v0, v1, cross, sa, sb := &s.t6[0], &s.t6[1], &s.t6[2], &s.t6[3], &s.t6[4]
	s.mul6(v0, &a.c0, &b.c0)
	s.mul6(v1, &a.c1, &b.c1)
	s.add6(sa, &a.c0, &a.c1)
	s.add6(sb, &b.c0, &b.c1)
	s.mul6(cross, sa, sb)
	s.sub6(cross, cross, v0)
	s.sub6(&e.c1, cross, v1)
	s.mulV6(v1, v1)
	s.add6(&e.c0, v0, v1)
}

// square12 is fe12.Square.
func (s *laneState) square12(e, a *lane12) {
	t, sum, mix := &s.t6[0], &s.t6[1], &s.t6[2]
	s.mul6(t, &a.c0, &a.c1)
	s.add6(sum, &a.c0, &a.c1)
	s.mulV6(mix, &a.c1)
	s.add6(mix, &a.c0, mix)
	s.mul6(sum, sum, mix)
	s.sub6(sum, sum, t)
	s.mulV6(mix, t)
	s.sub6(&e.c0, sum, mix)
	s.add6(&e.c1, t, t)
}

// mulLine is fe12.mulAteLineMonic.
func (s *laneState) mulLine(e, a *lane12, b, la *lane2) {
	v0, v1 := &s.t6[0], &s.t6[1]
	s.mulBy01(v0, &a.c0, b, la)
	s.mulBy01(v1, &a.c1, b, la)
	s.mulV6(v1, v1)
	s.add6(&e.c1, &a.c1, v0)
	s.add6(&e.c0, &a.c0, v1)
}

func (s *laneState) conj12(e, a *lane12) {
	e.c0 = a.c0
	s.neg6(&e.c1, &a.c1)
}

// frob12 is fe12.Frobenius.
func (s *laneState) frob12(e, a *lane12) {
	s.conj2(&e.c0.c0, &a.c0.c0)
	for k, slot := range [5][2]*lane2{
		{&e.c1.c0, &a.c1.c0}, {&e.c0.c1, &a.c0.c1}, {&e.c1.c1, &a.c1.c1},
		{&e.c0.c2, &a.c0.c2}, {&e.c1.c2, &a.c1.c2},
	} {
		s.conj2(slot[0], slot[1])
		s.mul2(slot[0], slot[0], &laneFrobP1[k])
	}
}

// frobP2 is fe12.FrobeniusP2.
func (s *laneState) frobP2(e, a *lane12) {
	e.c0.c0 = a.c0.c0
	for k, slot := range [5][2]*lane2{
		{&e.c1.c0, &a.c1.c0}, {&e.c0.c1, &a.c0.c1}, {&e.c1.c1, &a.c1.c1},
		{&e.c0.c2, &a.c0.c2}, {&e.c1.c2, &a.c1.c2},
	} {
		s.mul2(slot[0], slot[1], &laneFrobP2[k])
	}
}

// cycloPair is cycloPair on reduced squares.
func (s *laneState) cycloPair(mix, cross, x, y *lane2) {
	xx, yy, ss := &s.t2[6], &s.t2[7], &s.t2[8]
	s.sqr2(xx, x)
	s.sqr2(yy, y)
	s.add2(ss, x, y)
	s.sqr2(ss, ss)
	s.sub2(ss, ss, xx)
	s.sub2(cross, ss, yy)
	s.xi2(xx, xx)
	s.add2(mix, xx, yy)
}

// cycloSquare is fe12.CyclotomicSquare.
func (s *laneState) cycloSquare(e, a *lane12) {
	t := s.t2[:6]
	s.cycloPair(&t[0], &t[3], &a.c1.c1, &a.c0.c0)
	s.cycloPair(&t[1], &t[4], &a.c0.c2, &a.c1.c0)
	s.cycloPair(&t[2], &t[5], &a.c1.c2, &a.c0.c1)
	s.xi2(&t[5], &t[5])

	d := &s.t2[9]
	for _, r := range [3][3]*lane2{
		{&e.c0.c0, &t[0], &a.c0.c0}, {&e.c0.c1, &t[1], &a.c0.c1}, {&e.c0.c2, &t[2], &a.c0.c2},
	} {
		s.sub2(d, r[1], r[2])
		s.add2(d, d, d)
		s.add2(r[0], d, r[1])
	}
	for _, r := range [3][3]*lane2{
		{&e.c1.c0, &t[5], &a.c1.c0}, {&e.c1.c1, &t[3], &a.c1.c1}, {&e.c1.c2, &t[4], &a.c1.c2},
	} {
		s.add2(d, r[1], r[2])
		s.add2(d, d, d)
		s.add2(r[0], d, r[1])
	}
}

// exp sets z = x^k for a public k by square-and-multiply. z must not be
// x.
func (s *laneState) exp(z, x *laneFe, k *big.Int) {
	*z = laneOneFe
	for i := k.BitLen() - 1; i >= 0; i-- {
		s.mul(z, z, z)
		if k.Bit(i) == 1 {
			s.mul(z, z, x)
		}
	}
}

// invert2 is fe2.Invert, with Fermat's inversion in Fp: zero has no
// inverse and gets zero, with no branch.
func (s *laneState) invert2(e, a *lane2) {
	n0, n1, inv := &s.fe[0], &s.fe[1], &s.fe[2]
	s.mul(n0, &a.c0, &a.c0)
	s.mul(n1, &a.c1, &a.c1)
	s.add(n0, n0, n1)
	s.exp(inv, n0, pMinus2)
	s.mul(&e.c0, &a.c0, inv)
	s.sub(n1, &laneZero6.c0.c1, &a.c1)
	s.mul(&e.c1, n1, inv)
}

// invert6 is fe6.Invert.
func (s *laneState) invert6(e, a *lane6) {
	A, B, C, t, F, f1 := &s.i2[0], &s.i2[1], &s.i2[2], &s.i2[3], &s.i2[4], &s.i2[5]
	s.sqr2(A, &a.c0)
	s.mul2(t, &a.c1, &a.c2)
	s.xi2(t, t)
	s.sub2(A, A, t)

	s.sqr2(B, &a.c2)
	s.xi2(B, B)
	s.mul2(t, &a.c0, &a.c1)
	s.sub2(B, B, t)

	s.sqr2(C, &a.c1)
	s.mul2(t, &a.c0, &a.c2)
	s.sub2(C, C, t)

	s.mul2(F, &a.c0, A)
	s.mul2(f1, &a.c1, C)
	s.xi2(f1, f1)
	s.add2(F, F, f1)
	s.mul2(f1, &a.c2, B)
	s.xi2(f1, f1)
	s.add2(F, F, f1)
	s.invert2(F, F)

	s.mul2(&e.c0, A, F)
	s.mul2(&e.c1, B, F)
	s.mul2(&e.c2, C, F)
}

// invert12 is fe12.Invert.
func (s *laneState) invert12(e, a *lane12) {
	t0, t1, tInv := &s.t6[3], &s.t6[4], &s.t6[5]
	s.mul6(t0, &a.c0, &a.c0)
	s.mul6(t1, &a.c1, &a.c1)
	s.mulV6(t1, t1)
	s.sub6(t0, t0, t1)
	s.invert6(tInv, t0)
	s.mul6(&e.c0, &a.c0, tInv)
	s.neg6(t1, &a.c1)
	s.mul6(&e.c1, t1, tInv)
}

// cycloExpU is fe12.cycloExpU: e must not be a.
func (s *laneState) cycloExpU(e, a *lane12) {
	tab, a2, t := s.u[:3], &s.u[3], &s.u[4]
	tab[0] = *a
	s.cycloSquare(a2, a)
	s.mul12(&tab[1], &tab[0], a2)
	s.mul12(&tab[2], &tab[1], a2)
	pick := func(d int8) *lane12 {
		if d < 0 {
			s.conj12(t, &tab[-d/2])
			return t
		}
		return &tab[d/2]
	}
	*e = *pick(uWindows[0].digit)
	for _, w := range uWindows[1:] {
		for j := 0; j < w.shift; j++ {
			s.cycloSquare(e, e)
		}
		if w.digit != 0 {
			s.mul12(e, e, pick(w.digit))
		}
	}
}

// finalExp is finalExpDecomp and finalExpHardDecomp on s.f, in place:
// the same values, with each temporary's slot reused once it is dead.
func (s *laneState) finalExp() {
	h := &s.h
	// The easy part: t = f^((p⁶−1)(p²+1)).
	inv, g, t := &h[0], &h[1], &h[2]
	s.invert12(inv, &s.f)
	s.conj12(g, &s.f)
	s.mul12(g, g, inv)
	s.frobP2(t, g)
	s.mul12(t, t, g)

	// y0 = t^p · t^(p²) · t^(p³).
	fp, fp2, y0 := &h[0], &h[1], &h[3]
	s.frob12(fp, t)
	s.frobP2(fp2, t)
	s.mul12(y0, fp, fp2)
	s.frob12(fp, fp2)
	s.mul12(y0, y0, fp)

	fu, fu2, fu3 := &h[4], &h[5], &h[6]
	s.cycloExpU(fu, t)
	s.cycloExpU(fu2, fu)
	s.cycloExpU(fu3, fu2)

	y1, y2, y3, y4, y5, y6 := t, &h[7], &h[0], &h[1], fu2, &h[8]
	s.frob12(y3, fu)
	s.conj12(y3, y3)
	s.frob12(y4, fu2)
	s.mul12(y4, fu, y4)
	s.conj12(y4, y4)
	s.frobP2(y2, fu2)
	s.conj12(y5, fu2)
	s.frob12(y6, fu3)
	s.mul12(y6, fu3, y6)
	s.conj12(y6, y6)
	s.conj12(y1, t)

	t0, t1 := fu, fu3
	s.cycloSquare(t0, y6)
	s.mul12(t0, t0, y4)
	s.mul12(t0, t0, y5)
	s.mul12(t1, y3, y5)
	s.mul12(t1, t1, t0)
	s.mul12(t0, t0, y2)
	s.cycloSquare(t1, t1)
	s.mul12(t1, t1, t0)
	s.cycloSquare(t1, t1)
	s.mul12(t0, t1, y1)
	s.mul12(t1, t1, y0)
	s.cycloSquare(t0, t0)
	s.mul12(&s.f, t0, t1)
}

// miller is ateEvalLinesInto for one table, s.lines, against the lanes'
// replay coordinates s.xq and s.yinv, into s.f.
func (s *laneState) miller() {
	s.f = lane12{}
	s.f.c0.c0.c0 = laneOneFe
	k := 0
	apply := func() {
		l := &s.lines[k]
		s.lc.bcast(&l.lb)
		s.mulFe2(&s.b, &s.lc, &s.xq)
		s.lc.bcast(&l.la)
		s.mulFe2(&s.a, &s.lc, &s.yinv)
		s.mulLine(&s.f, &s.f, &s.b, &s.a)
		k++
	}
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		if k > 0 {
			s.square12(&s.f, &s.f)
		}
		apply()
		if ateLoopNAF[i] != 0 {
			apply()
		}
	}
	apply()
	apply()
}

// loadLines converts a replay table into s.lines.
func (s *laneState) loadLines(lines []ateMonicLine) {
	for i := range lines {
		l := &lines[i]
		s.lines[i] = laneLine{
			la: [2][5]uint64{laneLimbs(&l.la.c0), laneLimbs(&l.la.c1)},
			lb: [2][5]uint64{laneLimbs(&l.lb.c0), laneLimbs(&l.lb.c1)},
		}
	}
}

// g1Prefix returns the first 32 bytes of d, or d if it is shorter,
// which the decoder then refuses for its length.
func g1Prefix(d []byte) []byte { return d[:min(len(d), g1MarshalledSize)] }

// pairGroup pairs up to laneCount encoded points with the table in
// s.lines, one lane each, and for each point i, in order, sets *g to its
// pairing and calls fn(base+i, err), as PairMarshalled would give it.
// A lane with no point, or with one that does not decode or is infinity,
// pairs the generator's public coordinates, and its result is dropped.
// Everything before the replay is a function of the points alone, which
// the ciphertexts carry in the clear.
func (s *laneState) pairGroup(g *GT, data [][]byte, base int, fn func(i int, err error)) {
	var x, rhs [laneCount]fe
	var flags [laneCount]byte
	var inf [laneCount]bool
	var errs [laneCount]error
	for j := 0; j < laneCount; j++ {
		rhs[j] = feOne
		if j < len(data) {
			flags[j], inf[j], errs[j] = g1DecompressStart(&x[j], &rhs[j], g1Prefix(data[j]))
			if errs[j] != nil || inf[j] {
				rhs[j] = feOne
			}
		}
		s.rhs.set(j, &rhs[j])
	}
	s.exp(&s.r, &s.rhs, pInvSqrtExp)
	for j := 0; j < laneCount; j++ {
		xq, yinv := laneDummyXq, laneDummyYinv
		if j < len(data) && errs[j] == nil && !inf[j] {
			var p G1
			r := s.r.get(j)
			if errs[j] = g1DecompressFinish(&p, &yinv, &x[j], &rhs[j], &r, flags[j]); errs[j] == nil {
				feMul(&xq, &p.x, &yinv)
			} else {
				yinv = laneDummyYinv
			}
		}
		s.xq.set(j, &xq)
		s.yinv.set(j, &yinv)
	}
	s.miller()
	s.finalExp()
	for j := range data {
		switch {
		case errs[j] != nil:
			*g = GT{}
		case inf[j]:
			g.e.SetOne()
		default:
			s.f.get(j, &g.e)
		}
		fn(base+j, errs[j])
	}
}

// PairMarshalledBatch pairs the point encoded at the start of every
// data[i] (its first 32 bytes, G1.Marshal's length; the rest is
// ignored) with the precomputed q, as PairMarshalled does, and for each,
// in order, sets *g to the pairing value and calls fn(i, err): on a
// decoding error err is PairMarshalled's and *g is zero. It zeroes *g before it returns. Where
// laneAsm is set, eight points share one walk of the pairing (the lane
// pairing), down to a remainder below laneBreakEven; elsewhere, and for
// that remainder, each point is paired on its own. The results are the
// same either way.
func (pc *AtePrecomputedG2) PairMarshalledBatch(g *GT, data [][]byte, fn func(i int, err error)) {
	start := 0
	if laneAsm && !pc.inf && len(data) >= laneBreakEven {
		s := laneStates.Get().(*laneState)
		s.loadLines(pc.lines)
		for ; len(data)-start >= laneBreakEven; start += laneCount {
			s.pairGroup(g, data[start:min(start+laneCount, len(data))], start, fn)
		}
		*s = laneState{}
		laneZeroRegs()
		laneStates.Put(s)
	}
	for i := start; i < len(data); i++ {
		err := pc.pairMarshalled(g, g1Prefix(data[i]))
		if err != nil {
			*g = GT{}
		}
		fn(i, err)
	}
	*g = GT{}
}
