package bn254

// The limb arithmetic as it stood before the fused, branch-free rewrite of
// fe.go: an operand-scanning schoolbook product written to memory, a looped
// Montgomery reduction reading the modulus from a variable, and add, sub
// and neg that branch on the trial subtraction. It left production with
// that rewrite and stays here as a second differential oracle beside the
// big.Int fp* reference: it shares the representation (Montgomery limbs)
// but none of the new code's carry handling, so limb-level slips that a
// value-level check could only catch through feToBig show up directly.

import "math/bits"

var (
	schoolP  = fe{feP0, feP1, feP2, feP3}
	schoolNP = feNP
)

func schoolAdd(z, x, y *fe) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	s0, b := bits.Sub64(t0, schoolP[0], 0)
	s1, b := bits.Sub64(t1, schoolP[1], b)
	s2, b := bits.Sub64(t2, schoolP[2], b)
	s3, b := bits.Sub64(t3, schoolP[3], b)
	if b == 0 {
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

func schoolReduce(z *fe) {
	s0, b := bits.Sub64(z[0], schoolP[0], 0)
	s1, b := bits.Sub64(z[1], schoolP[1], b)
	s2, b := bits.Sub64(z[2], schoolP[2], b)
	s3, b := bits.Sub64(z[3], schoolP[3], b)
	if b == 0 {
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	}
}

func schoolSub(z, x, y *fe) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		z[0], c = bits.Add64(z[0], schoolP[0], 0)
		z[1], c = bits.Add64(z[1], schoolP[1], c)
		z[2], c = bits.Add64(z[2], schoolP[2], c)
		z[3], _ = bits.Add64(z[3], schoolP[3], c)
	}
}

func schoolNeg(z, x *fe) {
	if x.IsZero() {
		*z = fe{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(schoolP[0], x[0], 0)
	z[1], b = bits.Sub64(schoolP[1], x[1], b)
	z[2], b = bits.Sub64(schoolP[2], x[2], b)
	z[3], _ = bits.Sub64(schoolP[3], x[3], b)
}

// schoolMul sets z = x·y·R⁻¹ mod P: the full 512-bit product (operand
// scanning), then word-by-word Montgomery reduction.
func schoolMul(z, x, y *fe) {
	var t [8]uint64
	var carry, c, hi, lo uint64

	hi, t[0] = bits.Mul64(x[0], y[0])
	carry = hi
	hi, lo = bits.Mul64(x[0], y[1])
	t[1], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[0], y[2])
	t[2], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[0], y[3])
	t[3], c = bits.Add64(lo, carry, 0)
	t[4] = hi + c

	for i := 1; i < 4; i++ {
		xi := x[i]
		hi, lo = bits.Mul64(xi, y[0])
		lo, c = bits.Add64(lo, t[i], 0)
		hi += c
		t[i] = lo
		carry = hi
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(xi, y[j])
			lo, c = bits.Add64(lo, t[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[i+j] = lo
			carry = hi
		}
		t[i+4] = carry
	}
	schoolMontReduce(z, &t)
}

// schoolMontReduce folds a 512-bit t < P·2²⁵⁶ into z = t·R⁻¹ mod P.
func schoolMontReduce(z *fe, t *[8]uint64) {
	var e, carry, c, hi, lo uint64
	for i := 0; i < 4; i++ {
		m := t[i] * schoolNP
		hi, lo = bits.Mul64(m, schoolP[0])
		_, c = bits.Add64(lo, t[i], 0)
		carry = hi + c
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(m, schoolP[j])
			lo, c = bits.Add64(lo, t[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[i+j] = lo
			carry = hi
		}
		t[i+4], e = bits.Add64(t[i+4], carry, e)
	}
	z[0], z[1], z[2], z[3] = t[4], t[5], t[6], t[7]
	schoolReduce(z)
}
