package bn254

import (
	"math/big"
	"math/bits"
)

// fe is a base-field element in Montgomery form: the value represented is
// fe·R⁻¹ mod P with R = 2²⁵⁶, stored as four 64-bit limbs, least
// significant first. Elements are always kept fully reduced (< P), so limb
// equality is value equality.
//
// This is the limb backend that replaced the original big.Int field
// arithmetic (retained as the fp* reference implementation for
// differential tests). All operations are allocation-free; values live on
// the stack. The boundary-conversion rule: values enter the Montgomery
// domain in feFromBig/feSetBytes and leave it in feToBig/feBytes —
// everything in between (towers, curve arithmetic, the Miller loop)
// stays in-domain, so there are no Mod calls and no heap traffic on the
// pairing hot path.
//
// No arithmetic in this file branches on, or indexes by, an operand's
// value: reductions are a trial subtraction whose borrow becomes a mask
// (see "Timing model" in the package documentation).
type fe [4]uint64

// The modulus P, least significant limb first, and feNP = −P⁻¹ mod 2⁶⁴.
// They are constants so the multiplier's inner rows carry them as
// immediates; feDeriveConstants re-derives each from the decimal P at
// start-up and panics on a mismatch, so the literals are verified, not
// trusted. P < 2²⁵⁴: two spare top bits, which every bound below uses.
const (
	feP0 uint64 = 0x3c208c16d87cfd47
	feP1 uint64 = 0x97816a916871ca8d
	feP2 uint64 = 0xb85045b68181585d
	feP3 uint64 = 0x30644e72e131a029
	feNP uint64 = 0x87d20782e4866389

	// feRecip = ⌊2¹²¹ / (⌊P/2¹⁹⁶⌋ + 1)⌋, feReduce5's quotient estimator.
	feRecip uint64 = 0xa948e8c4c4740939
)

// feWide is a 512-bit unsigned integer, least significant limb first: an
// unreduced product, or a sum or difference of such, on its way to one
// feMontReduce. Every feWide handed to feMontReduce is < P·2²⁵⁶; the
// tower code states, where it builds one, why that holds.
type feWide [8]uint64

// feAdd sets z = x + y mod P. The conditional subtraction is feCondSubP's,
// written out: in a function this small the call is a quarter of the cost.
func feAdd(z, x, y *fe) {
	// x, y < P < 2²⁵⁴, so the sum fits without a carry out.
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	s0, b := bits.Sub64(t0, feP0, 0)
	s1, b := bits.Sub64(t1, feP1, b)
	s2, b := bits.Sub64(t2, feP2, b)
	s3, b := bits.Sub64(t3, feP3, b)
	m := -b
	z[0], c = bits.Add64(s0, feP0&m, 0)
	z[1], c = bits.Add64(s1, feP1&m, c)
	z[2], c = bits.Add64(s2, feP2&m, c)
	z[3], _ = bits.Add64(s3, feP3&m, c)
}

// feDouble sets z = 2x mod P.
func feDouble(z, x *fe) { feAdd(z, x, x) }

// feCondSubP returns t − P if t ≥ P and t otherwise, for a four-limb
// t < 2P — the last step of every reduction. The trial subtraction's
// borrow becomes a mask that adds P back: no branch.
func feCondSubP(t0, t1, t2, t3 uint64) (r0, r1, r2, r3 uint64) {
	s0, b := bits.Sub64(t0, feP0, 0)
	s1, b := bits.Sub64(t1, feP1, b)
	s2, b := bits.Sub64(t2, feP2, b)
	s3, b := bits.Sub64(t3, feP3, b)
	m := -b
	var c uint64
	r0, c = bits.Add64(s0, feP0&m, 0)
	r1, c = bits.Add64(s1, feP1&m, c)
	r2, c = bits.Add64(s2, feP2&m, c)
	r3, _ = bits.Add64(s3, feP3&m, c)
	return
}

// feAddUnreduced sets z = x + y with no reduction. The caller's bounds
// must keep the sum under 2²⁵⁶ (two reduced elements always do: 2P <
// 2²⁵⁵); the result may only feed an operand slot documented to take an
// unreduced value.
func feAddUnreduced(z, x, y *fe) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
}

// feReduce5 returns t mod P for a five-limb t < 16P (so t4 < 16): the
// "reduce once" behind every sum that uses P's headroom. It estimates the
// quotient from t's top 64 bits: with top = ⌊t/2¹⁹⁶⌋ and d = ⌊P/2¹⁹⁶⌋ + 1,
// q = ⌊top·feRecip/2¹²¹⌋ satisfies top/d − 2⁻⁵⁷ − 1 < q ≤ top/d ≤ t/P
// (numerator rounded down, denominator up), and t/P < (top+1)/(d−1), so
// 0 ≤ t/P − q < 1 + 2⁻⁵⁰: t − q·P lands in [0, 2P) and one masked
// subtraction finishes. A multiplication by a verified constant, not a
// division; nothing here branches on t.
func feReduce5(t0, t1, t2, t3, t4 uint64) (r0, r1, r2, r3 uint64) {
	q, _ := bits.Mul64(t4<<60|t3>>4, feRecip)
	q >>= 57
	h0, l0 := bits.Mul64(q, feP0)
	h1, l1 := bits.Mul64(q, feP1)
	h2, l2 := bits.Mul64(q, feP2)
	l3 := q * feP3
	l1, c := bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, _ = bits.Add64(l3, h2, c)
	// t − q·P < 2P < 2²⁵⁵: its low four limbs are the whole of it.
	t0, b := bits.Sub64(t0, l0, 0)
	t1, b = bits.Sub64(t1, l1, b)
	t2, b = bits.Sub64(t2, l2, b)
	t3, _ = bits.Sub64(t3, l3, b)
	return feCondSubP(t0, t1, t2, t3)
}

// feLessThanP reports whether z < P. Decoders call it on bytes from the
// wire, which are public.
func feLessThanP(z *fe) bool {
	var b uint64
	_, b = bits.Sub64(z[0], feP0, 0)
	_, b = bits.Sub64(z[1], feP1, b)
	_, b = bits.Sub64(z[2], feP2, b)
	_, b = bits.Sub64(z[3], feP3, b)
	return b == 1
}

// feSub sets z = x − y mod P: the borrow becomes a mask that adds P back.
func feSub(z, x, y *fe) {
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	m := -b
	var c uint64
	z[0], c = bits.Add64(d0, feP0&m, 0)
	z[1], c = bits.Add64(d1, feP1&m, c)
	z[2], c = bits.Add64(d2, feP2&m, c)
	z[3], _ = bits.Add64(d3, feP3&m, c)
}

// feNeg sets z = −x mod P: P − x, masked to zero when x is zero.
func feNeg(z, x *fe) {
	nz := x[0] | x[1] | x[2] | x[3]
	m := -((nz | -nz) >> 63) // all ones unless x = 0
	d0, b := bits.Sub64(feP0, x[0], 0)
	d1, b := bits.Sub64(feP1, x[1], b)
	d2, b := bits.Sub64(feP2, x[2], b)
	d3, _ := bits.Sub64(feP3, x[3], b)
	z[0], z[1], z[2], z[3] = d0&m, d1&m, d2&m, d3&m
}

// feMul sets z = x·y·R⁻¹ mod P: the Montgomery product, as a fused,
// fully unrolled CIOS on scalar locals. Each of the four rows adds x_i·y
// to the running value t and then m·P with m = t₀·(−P⁻¹) mod 2⁶⁴, which
// zeroes t's low limb, and drops that limb. A row is four bits.Mul64
// whose (hi, lo) pairs one carry chain joins into a five-limb product
// (h3 + c cannot overflow: x_i·y < 2³²⁰), and one more chain adds that to
// t.
//
// Bounds: y < P is required; x may be any four-limb value. Between rows
// t < y + P < 2P < 2²⁵⁵ — by induction, (t + (2⁶⁴−1)(y + P))/2⁶⁴ <
// y + P — so t needs four limbs, not five, t + x_i·y + m·P < 2³²⁰ keeps
// the per-row carry word t4 overflow-free, and one masked subtraction of
// P finishes.
func feMul(z, x, y *fe) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, t4 uint64
	var h0, h1, h2, h3, l0, l1, l2, l3 uint64
	var xi, m, c uint64
	// Row 0.
	xi = x[0]
	h0, t0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	t1, c = bits.Add64(l1, h0, 0)
	t2, c = bits.Add64(l2, h1, c)
	t3, c = bits.Add64(l3, h2, c)
	t4 = h3 + c
	m = t0 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	// Row 1.
	xi = x[1]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	m = t0 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	// Row 2.
	xi = x[2]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	m = t0 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	// Row 3.
	xi = x[3]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	m = t0 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	z[0], z[1], z[2], z[3] = feCondSubP(t0, t1, t2, t3)
}

// feSquare sets z = x²·R⁻¹ mod P: ten limb products for the 512-bit
// square (six cross terms doubled, four diagonal) instead of sixteen,
// then one reduction.
func feSquare(z, x *fe) {
	var w feWide
	feSquareWide(&w, x)
	feMontReduce(z, &w)
}

// feMulWide sets w = x·y, the full 512-bit product with no reduction:
// operand scanning, one row per limb of x, rows built like feMul's. Any
// four-limb x and y are allowed (the product of two values < 2²⁵⁶ fits).
func feMulWide(w *feWide, x, y *fe) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var w0, w1, w2, w3, w4, w5, w6, w7 uint64
	var h0, h1, h2, h3, l0, l1, l2, l3 uint64
	var xi, c uint64
	// Row 0.
	xi = x[0]
	h0, w0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	w1, c = bits.Add64(l1, h0, 0)
	w2, c = bits.Add64(l2, h1, c)
	w3, c = bits.Add64(l3, h2, c)
	w4 = h3 + c

	// Row 1.
	xi = x[1]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	w1, c = bits.Add64(w1, l0, 0)
	w2, c = bits.Add64(w2, l1, c)
	w3, c = bits.Add64(w3, l2, c)
	w4, c = bits.Add64(w4, l3, c)
	w5 = h3 + c

	// Row 2.
	xi = x[2]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	w2, c = bits.Add64(w2, l0, 0)
	w3, c = bits.Add64(w3, l1, c)
	w4, c = bits.Add64(w4, l2, c)
	w5, c = bits.Add64(w5, l3, c)
	w6 = h3 + c

	// Row 3.
	xi = x[3]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	w3, c = bits.Add64(w3, l0, 0)
	w4, c = bits.Add64(w4, l1, c)
	w5, c = bits.Add64(w5, l2, c)
	w6, c = bits.Add64(w6, l3, c)
	w7 = h3 + c
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = w0, w1, w2, w3, w4, w5, w6, w7
}

// feSquareWide sets w = x², the full 512-bit square of any four-limb x:
// the six products x_i·x_j (i < j) are summed once and doubled by a
// one-bit shift, then the four squares x_i² are added on the even limbs.
func feSquareWide(w *feWide, x *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var w0, w1, w2, w3, w4, w5, w6, w7 uint64
	var h, l, c uint64

	// Cross terms: x0·(x1, x2, x3) on limbs 1-4.
	h01, l01 := bits.Mul64(x0, x1)
	h02, l02 := bits.Mul64(x0, x2)
	h03, l03 := bits.Mul64(x0, x3)
	w1 = l01
	w2, c = bits.Add64(l02, h01, 0)
	w3, c = bits.Add64(l03, h02, c)
	w4 = h03 + c
	// x1·(x2, x3) on limbs 3-5.
	h12, l12 := bits.Mul64(x1, x2)
	h13, l13 := bits.Mul64(x1, x3)
	l13, c = bits.Add64(l13, h12, 0)
	h13 += c
	w3, c = bits.Add64(w3, l12, 0)
	w4, c = bits.Add64(w4, l13, c)
	w5 = h13 + c
	// x2·x3 on limbs 5-6.
	h, l = bits.Mul64(x2, x3)
	w5, c = bits.Add64(w5, l, 0)
	w6 = h + c

	// Double (the cross sum is < 2⁴⁴⁸·2⁶³, so limb 7 takes one bit).
	w7 = w6 >> 63
	w6 = w6<<1 | w5>>63
	w5 = w5<<1 | w4>>63
	w4 = w4<<1 | w3>>63
	w3 = w3<<1 | w2>>63
	w2 = w2<<1 | w1>>63
	w1 = w1 << 1

	// Diagonal.
	h, w0 = bits.Mul64(x0, x0)
	w1, c = bits.Add64(w1, h, 0)
	h, l = bits.Mul64(x1, x1)
	w2, c = bits.Add64(w2, l, c)
	w3, c = bits.Add64(w3, h, c)
	h, l = bits.Mul64(x2, x2)
	w4, c = bits.Add64(w4, l, c)
	w5, c = bits.Add64(w5, h, c)
	h, l = bits.Mul64(x3, x3)
	w6, c = bits.Add64(w6, l, c)
	w7, _ = bits.Add64(w7, h, c)

	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = w0, w1, w2, w3, w4, w5, w6, w7
}

// feMontReduce sets z = t·R⁻¹ mod P for a 512-bit t < P·2²⁵⁶, leaving t
// untouched. Round i zeroes limb i by adding m·P·2⁶⁴ⁱ with m = t_i·(−P⁻¹)
// mod 2⁶⁴; the round's top word lands on limb i+4 and its carry bit e
// joins the next round's top word (h3 + e cannot overflow: h3 ≤ P's top
// limb < 2⁶²). After four rounds the high half holds (t + M·P)/2²⁵⁶ with
// M < 2²⁵⁶, which is < t/2²⁵⁶ + P < 2P, so nothing carries out of limb 7
// and one masked subtraction finishes.
func feMontReduce(z *fe, t *feWide) {
	t0, t1, t2, t3, t4, t5, t6, t7 := t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]
	var h0, h1, h2, h3, l0, l1, l2, l3 uint64
	var m, c, e uint64
	// Round 0: zero limb 0.
	m = t0 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, e = bits.Add64(t4, h3, c)

	// Round 1: zero limb 1.
	m = t1 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, l2, c)
	t4, c = bits.Add64(t4, l3, c)
	t5, e = bits.Add64(t5, h3+e, c)

	// Round 2: zero limb 2.
	m = t2 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, l1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, c = bits.Add64(t5, l3, c)
	t6, e = bits.Add64(t6, h3+e, c)

	// Round 3: zero limb 3.
	m = t3 * feNP
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t3, l0, 0)
	t4, c = bits.Add64(t4, l1, c)
	t5, c = bits.Add64(t5, l2, c)
	t6, c = bits.Add64(t6, l3, c)
	t7, _ = bits.Add64(t7, h3+e, c)
	z[0], z[1], z[2], z[3] = feCondSubP(t4, t5, t6, t7)
}

// feWideSub sets z = x − y as 512-bit integers, for x ≥ y.
func feWideSub(z, x, y *feWide) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	z[4], b = bits.Sub64(x[4], y[4], b)
	z[5], b = bits.Sub64(x[5], y[5], b)
	z[6], b = bits.Sub64(x[6], y[6], b)
	z[7], _ = bits.Sub64(x[7], y[7], b)
}

// feWideSubMod sets z = x − y, plus P·2²⁵⁶ if that borrowed: for
// x, y < P·2²⁵⁶ the result is again in [0, P·2²⁵⁶) and congruent to
// x − y mod P. P·2²⁵⁶ has a zero low half, so the correction is a masked
// addition of P to the high four limbs.
func feWideSubMod(z, x, y *feWide) {
	var b, c uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	d4, b := bits.Sub64(x[4], y[4], b)
	d5, b := bits.Sub64(x[5], y[5], b)
	d6, b := bits.Sub64(x[6], y[6], b)
	d7, b := bits.Sub64(x[7], y[7], b)
	m := -b
	z[4], c = bits.Add64(d4, feP0&m, 0)
	z[5], c = bits.Add64(d5, feP1&m, c)
	z[6], c = bits.Add64(d6, feP2&m, c)
	z[7], _ = bits.Add64(d7, feP3&m, c)
}

// feWideAddMod sets z = x + y, less P·2²⁵⁶ if the sum reached it: for
// x, y < P·2²⁵⁶ the result is again in [0, P·2²⁵⁶). x + y < 2²⁵⁵·2²⁵⁶
// cannot carry out, and it reaches P·2²⁵⁶ exactly when its high half
// reaches P, so the correction is feAdd's, on the high four limbs.
func feWideAddMod(z, x, y *feWide) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	t4, c := bits.Add64(x[4], y[4], c)
	t5, c := bits.Add64(x[5], y[5], c)
	t6, c := bits.Add64(x[6], y[6], c)
	t7, _ := bits.Add64(x[7], y[7], c)
	z[4], z[5], z[6], z[7] = feCondSubP(t4, t5, t6, t7)
}

// feWideMul9SubAdd sets z ≡ 9x − y + w (mod P) with z < P·2²⁵⁶, for
// x, y, w < P·2²⁵⁶: the real coefficient of w + ξ·(x + y·i), ξ = 9 + i,
// without leaving the unreduced domain. The nine-limb s = 8x + x + w − y
// + P·2²⁵⁶ lies in [0, 11·P·2²⁵⁶) (the added P·2²⁵⁶ covers −y; limb 8
// wraps below zero in between and ends in [0, 3)), so its high five
// limbs are a value < 11P + 1 < 16P that feReduce5 brings under P while
// the low four limbs stay: the result differs from s by a multiple of
// P·2²⁵⁶.
func feWideMul9SubAdd(z, x, y, w *feWide) {
	s0 := x[0] << 3
	s1 := x[1]<<3 | x[0]>>61
	s2 := x[2]<<3 | x[1]>>61
	s3 := x[3]<<3 | x[2]>>61
	s4 := x[4]<<3 | x[3]>>61
	s5 := x[5]<<3 | x[4]>>61
	s6 := x[6]<<3 | x[5]>>61
	s7 := x[7]<<3 | x[6]>>61
	s8 := x[7] >> 61
	var c, b uint64
	s0, c = bits.Add64(s0, x[0], 0)
	s1, c = bits.Add64(s1, x[1], c)
	s2, c = bits.Add64(s2, x[2], c)
	s3, c = bits.Add64(s3, x[3], c)
	s4, c = bits.Add64(s4, x[4], c)
	s5, c = bits.Add64(s5, x[5], c)
	s6, c = bits.Add64(s6, x[6], c)
	s7, c = bits.Add64(s7, x[7], c)
	s8 += c
	s0, c = bits.Add64(s0, w[0], 0)
	s1, c = bits.Add64(s1, w[1], c)
	s2, c = bits.Add64(s2, w[2], c)
	s3, c = bits.Add64(s3, w[3], c)
	s4, c = bits.Add64(s4, w[4], c)
	s5, c = bits.Add64(s5, w[5], c)
	s6, c = bits.Add64(s6, w[6], c)
	s7, c = bits.Add64(s7, w[7], c)
	s8 += c
	s0, b = bits.Sub64(s0, y[0], 0)
	s1, b = bits.Sub64(s1, y[1], b)
	s2, b = bits.Sub64(s2, y[2], b)
	s3, b = bits.Sub64(s3, y[3], b)
	s4, b = bits.Sub64(s4, y[4], b)
	s5, b = bits.Sub64(s5, y[5], b)
	s6, b = bits.Sub64(s6, y[6], b)
	s7, b = bits.Sub64(s7, y[7], b)
	s8 -= b
	s4, c = bits.Add64(s4, feP0, 0)
	s5, c = bits.Add64(s5, feP1, c)
	s6, c = bits.Add64(s6, feP2, c)
	s7, c = bits.Add64(s7, feP3, c)
	s8 += c
	z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	z[4], z[5], z[6], z[7] = feReduce5(s4, s5, s6, s7, s8)
}

// feWideMul9AddAdd sets z ≡ 9x + y + w (mod P) with z < P·2²⁵⁶, for
// x, y, w < P·2²⁵⁶: the imaginary coefficient of w + ξ·(y + x·i). Built
// like feWideMul9SubAdd; s = 8x + x + w + y < 11·P·2²⁵⁶.
func feWideMul9AddAdd(z, x, y, w *feWide) {
	s0 := x[0] << 3
	s1 := x[1]<<3 | x[0]>>61
	s2 := x[2]<<3 | x[1]>>61
	s3 := x[3]<<3 | x[2]>>61
	s4 := x[4]<<3 | x[3]>>61
	s5 := x[5]<<3 | x[4]>>61
	s6 := x[6]<<3 | x[5]>>61
	s7 := x[7]<<3 | x[6]>>61
	s8 := x[7] >> 61
	var c uint64
	s0, c = bits.Add64(s0, x[0], 0)
	s1, c = bits.Add64(s1, x[1], c)
	s2, c = bits.Add64(s2, x[2], c)
	s3, c = bits.Add64(s3, x[3], c)
	s4, c = bits.Add64(s4, x[4], c)
	s5, c = bits.Add64(s5, x[5], c)
	s6, c = bits.Add64(s6, x[6], c)
	s7, c = bits.Add64(s7, x[7], c)
	s8 += c
	s0, c = bits.Add64(s0, w[0], 0)
	s1, c = bits.Add64(s1, w[1], c)
	s2, c = bits.Add64(s2, w[2], c)
	s3, c = bits.Add64(s3, w[3], c)
	s4, c = bits.Add64(s4, w[4], c)
	s5, c = bits.Add64(s5, w[5], c)
	s6, c = bits.Add64(s6, w[6], c)
	s7, c = bits.Add64(s7, w[7], c)
	s8 += c
	s0, c = bits.Add64(s0, y[0], 0)
	s1, c = bits.Add64(s1, y[1], c)
	s2, c = bits.Add64(s2, y[2], c)
	s3, c = bits.Add64(s3, y[3], c)
	s4, c = bits.Add64(s4, y[4], c)
	s5, c = bits.Add64(s5, y[5], c)
	s6, c = bits.Add64(s6, y[6], c)
	s7, c = bits.Add64(s7, y[7], c)
	s8 += c
	z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	z[4], z[5], z[6], z[7] = feReduce5(s4, s5, s6, s7, s8)
}

// feFromMont leaves the Montgomery domain: z = x·R⁻¹ mod P.
func feFromMont(z, x *fe) {
	t := feWide{x[0], x[1], x[2], x[3]}
	feMontReduce(z, &t)
}

// IsZero reports whether the element is zero (in either domain).
func (x *fe) IsZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// Equal reports limb equality, which is value equality because elements
// are kept fully reduced.
func (x *fe) Equal(y *fe) bool {
	return (x[0]^y[0])|(x[1]^y[1])|(x[2]^y[2])|(x[3]^y[3]) == 0
}

// feExp sets z = x^e mod P (e ≥ 0, not secret) by square-and-multiply.
func feExp(z, x *fe, e *big.Int) {
	acc := feOne
	base := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		feSquare(&acc, &acc)
		if e.Bit(i) == 1 {
			feMul(&acc, &acc, &base)
		}
	}
	*z = acc
}

// feInv sets z = x⁻¹ mod P via Fermat (x^(P−2)). It panics on zero, which
// would indicate a bug in a caller (all callers guard against zero
// denominators), matching the fpInv reference.
func feInv(z, x *fe) {
	if x.IsZero() {
		panic("bn254: inversion of zero")
	}
	feExp(z, x, pMinus2)
}

// feSqrt sets z to the principal square root x^((P+1)/4) and reports
// whether x is a quadratic residue. The root agrees exactly with the
// fpSqrt reference, which callers rely on for deterministic hash-to-curve.
func feSqrt(z, x *fe) bool {
	var r, r2 fe
	feExp(&r, x, pSqrtExp)
	feSquare(&r2, &r)
	if !r2.Equal(x) {
		return false
	}
	*z = r
	return true
}

// feFromBig converts a (reduced or unreduced) big.Int into Montgomery form.
func feFromBig(z *fe, x *big.Int) {
	v := x
	if v.Sign() < 0 || v.Cmp(P) >= 0 {
		v = new(big.Int).Mod(x, P)
	}
	var raw fe
	feRawFromBig(&raw, v)
	feMul(z, &raw, &feR2)
}

// feRawFromBig converts a reduced big.Int into four little-endian limbs
// via the canonical byte encoding, independent of the platform's
// big.Word size (Bits() words are 32-bit on GOARCH=386/arm).
func feRawFromBig(raw *fe, v *big.Int) {
	var buf [32]byte
	v.FillBytes(buf[:])
	feRawSetBytes(raw, buf[:])
}

// feRawSetBytes decodes 32 big-endian bytes into little-endian limbs.
func feRawSetBytes(raw *fe, buf []byte) {
	for i := 0; i < 4; i++ {
		var limb uint64
		for j := 0; j < 8; j++ {
			limb = limb<<8 | uint64(buf[i*8+j])
		}
		raw[3-i] = limb
	}
}

// feToBig converts out of Montgomery form into a fresh big.Int.
func feToBig(x *fe) *big.Int {
	var raw fe
	feFromMont(&raw, x)
	var buf [32]byte
	feRawBytes(&raw, &buf)
	return new(big.Int).SetBytes(buf[:])
}

// feBytes writes the canonical 32-byte big-endian encoding of x into buf,
// matching big.Int.FillBytes on the represented value.
func feBytes(x *fe, buf *[32]byte) {
	var raw fe
	feFromMont(&raw, x)
	feRawBytes(&raw, buf)
}

// feRawBytes encodes four little-endian limbs as 32 big-endian bytes.
func feRawBytes(raw *fe, buf *[32]byte) {
	for i := 0; i < 4; i++ {
		limb := raw[3-i]
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(limb >> (56 - 8*j))
		}
	}
}

// feSetBytes parses a 32-byte big-endian encoding, reporting whether the
// value is canonical (< P).
func feSetBytes(z *fe, buf []byte) bool {
	var raw fe
	feRawSetBytes(&raw, buf)
	if !feLessThanP(&raw) {
		return false
	}
	feMul(z, &raw, &feR2)
	return true
}

// feMulBy3 sets z = 3x: 2x + x added unreduced (3P < 2²⁵⁶ fits four
// limbs), then one reduction.
func feMulBy3(z, x *fe) {
	t0 := x[0] << 1
	t1 := x[1]<<1 | x[0]>>63
	t2 := x[2]<<1 | x[1]>>63
	t3 := x[3]<<1 | x[2]>>63
	t0, c := bits.Add64(t0, x[0], 0)
	t1, c = bits.Add64(t1, x[1], c)
	t2, c = bits.Add64(t2, x[2], c)
	t3, _ = bits.Add64(t3, x[3], c)
	z[0], z[1], z[2], z[3] = feReduce5(t0, t1, t2, t3, 0)
}

// feMulBy9 sets z = 9x, reduced once.
func feMulBy9(z, x *fe) {
	z[0], z[1], z[2], z[3] = feReduce5(feTimes9(x))
}

// feTimes9 returns 9x = 8x + x as a five-limb value, unreduced: under 9P
// for a reduced x.
func feTimes9(x *fe) (t0, t1, t2, t3, t4 uint64) {
	t0 = x[0] << 3
	t1 = x[1]<<3 | x[0]>>61
	t2 = x[2]<<3 | x[1]>>61
	t3 = x[3]<<3 | x[2]>>61
	t4 = x[3] >> 61
	var c uint64
	t0, c = bits.Add64(t0, x[0], 0)
	t1, c = bits.Add64(t1, x[1], c)
	t2, c = bits.Add64(t2, x[2], c)
	t3, c = bits.Add64(t3, x[3], c)
	t4 += c
	return
}
