package onionbox

import (
	"encoding/binary"
	"math/bits"
)

// fe is an element of GF(2^255 − 19) on five 51-bit limbs, little endian:
// l[0] + l[1]·2^51 + … + l[4]·2^204. Every method leaves its result with
// limbs below 2^52 and accepts inputs in that range; bytes reduces fully.
// No method branches or indexes on the value of an element.
type fe struct{ l [5]uint64 }

const mask51 = 1<<51 - 1

var (
	feOne = fe{[5]uint64{1}}
	// feD2 is 2d, d = −121665/121666 the twisted Edwards constant.
	feD2 = fe{[5]uint64{0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052, 0x6738cc7407977, 0x2406d9dc56dff}}
)

// carry brings every limb under 2^51 + 2^13·19.
func (v *fe) carry() {
	c0, c1, c2, c3, c4 := v.l[0]>>51, v.l[1]>>51, v.l[2]>>51, v.l[3]>>51, v.l[4]>>51
	v.l[0] = v.l[0]&mask51 + c4*19
	v.l[1] = v.l[1]&mask51 + c0
	v.l[2] = v.l[2]&mask51 + c1
	v.l[3] = v.l[3]&mask51 + c2
	v.l[4] = v.l[4]&mask51 + c3
}

func (v *fe) add(a, b *fe) {
	for i := range v.l {
		v.l[i] = a.l[i] + b.l[i]
	}
	v.carry()
}

// sub sets v = a − b, adding 2p first so that no limb goes negative.
func (v *fe) sub(a, b *fe) {
	v.l[0] = a.l[0] + 0xFFFFFFFFFFFDA - b.l[0]
	for i := 1; i < 5; i++ {
		v.l[i] = a.l[i] + 0xFFFFFFFFFFFFE - b.l[i]
	}
	v.carry()
}

func (v *fe) neg(a *fe) { v.sub(&fe{}, a) }

// u128 accumulates 64×64-bit products.
type u128 struct{ lo, hi uint64 }

func (a u128) addMul(x, y uint64) u128 {
	hi, lo := bits.Mul64(x, y)
	lo, c := bits.Add64(lo, a.lo, 0)
	hi, _ = bits.Add64(hi, a.hi, c)
	return u128{lo, hi}
}

func (a u128) shr51() uint64 { return a.hi<<13 | a.lo>>51 }

// reduce128 folds five 128-bit column sums into v.
func (v *fe) reduce128(r0, r1, r2, r3, r4 u128) {
	v.l[0] = r0.lo&mask51 + r4.shr51()*19
	v.l[1] = r1.lo&mask51 + r0.shr51()
	v.l[2] = r2.lo&mask51 + r1.shr51()
	v.l[3] = r3.lo&mask51 + r2.shr51()
	v.l[4] = r4.lo&mask51 + r3.shr51()
	v.carry()
}

func (v *fe) mul(a, b *fe) {
	a0, a1, a2, a3, a4 := a.l[0], a.l[1], a.l[2], a.l[3], a.l[4]
	b0, b1, b2, b3, b4 := b.l[0], b.l[1], b.l[2], b.l[3], b.l[4]
	// 2^255 ≡ 19: a limb product that lands at 2^255 or above wraps
	// around multiplied by 19.
	a1x, a2x, a3x, a4x := a1*19, a2*19, a3*19, a4*19
	r0 := u128{}.addMul(a0, b0).addMul(a1x, b4).addMul(a2x, b3).addMul(a3x, b2).addMul(a4x, b1)
	r1 := u128{}.addMul(a0, b1).addMul(a1, b0).addMul(a2x, b4).addMul(a3x, b3).addMul(a4x, b2)
	r2 := u128{}.addMul(a0, b2).addMul(a1, b1).addMul(a2, b0).addMul(a3x, b4).addMul(a4x, b3)
	r3 := u128{}.addMul(a0, b3).addMul(a1, b2).addMul(a2, b1).addMul(a3, b0).addMul(a4x, b4)
	r4 := u128{}.addMul(a0, b4).addMul(a1, b3).addMul(a2, b2).addMul(a3, b1).addMul(a4, b0)
	v.reduce128(r0, r1, r2, r3, r4)
}

func (v *fe) square(a *fe) {
	a0, a1, a2, a3, a4 := a.l[0], a.l[1], a.l[2], a.l[3], a.l[4]
	a0d, a1d := a0*2, a1*2
	a1x2, a2x2, a3x, a3x2, a4x := a1*38, a2*38, a3*19, a3*38, a4*19
	r0 := u128{}.addMul(a0, a0).addMul(a1x2, a4).addMul(a2x2, a3)
	r1 := u128{}.addMul(a0d, a1).addMul(a2x2, a4).addMul(a3x, a3)
	r2 := u128{}.addMul(a0d, a2).addMul(a1, a1).addMul(a3x2, a4)
	r3 := u128{}.addMul(a0d, a3).addMul(a1d, a2).addMul(a4x, a4)
	r4 := u128{}.addMul(a0d, a4).addMul(a1d, a3).addMul(a2, a2)
	v.reduce128(r0, r1, r2, r3, r4)
}

func (v *fe) squareN(a *fe, n int) {
	v.square(a)
	for i := 1; i < n; i++ {
		v.square(v)
	}
}

// invert sets v = z^(p−2), which is 1/z, or 0 for z = 0. The addition
// chain is fixed: 254 squarings and 11 multiplications whatever z is.
func (v *fe) invert(z *fe) {
	var z2, z9, z11, a, b, c, t fe
	z2.square(z)       // 2
	t.squareN(&z2, 2)  // 8
	z9.mul(&t, z)      // 9
	z11.mul(&z9, &z2)  // 11
	t.square(&z11)     // 22
	a.mul(&t, &z9)     // 2^5 − 1
	t.squareN(&a, 5)   // 2^10 − 2^5
	a.mul(&t, &a)      // 2^10 − 1
	t.squareN(&a, 10)  // 2^20 − 2^10
	b.mul(&t, &a)      // 2^20 − 1
	t.squareN(&b, 20)  // 2^40 − 2^20
	t.mul(&t, &b)      // 2^40 − 1
	t.squareN(&t, 10)  // 2^50 − 2^10
	a.mul(&t, &a)      // 2^50 − 1
	t.squareN(&a, 50)  // 2^100 − 2^50
	c.mul(&t, &a)      // 2^100 − 1
	t.squareN(&c, 100) // 2^200 − 2^100
	t.mul(&t, &c)      // 2^200 − 1
	t.squareN(&t, 50)  // 2^250 − 2^50
	t.mul(&t, &a)      // 2^250 − 1
	t.squareN(&t, 5)   // 2^255 − 2^5
	v.mul(&t, &z11)    // 2^255 − 21
}

// setBytes reads a 32-byte little-endian value as RFC 7748 does: bit 255
// is ignored and values in [p, 2^255) are accepted (bytes reduces them).
func (v *fe) setBytes(x *[32]byte) {
	v.l[0] = binary.LittleEndian.Uint64(x[0:8]) & mask51
	v.l[1] = binary.LittleEndian.Uint64(x[6:14]) >> 3 & mask51
	v.l[2] = binary.LittleEndian.Uint64(x[12:20]) >> 6 & mask51
	v.l[3] = binary.LittleEndian.Uint64(x[19:27]) >> 1 & mask51
	v.l[4] = binary.LittleEndian.Uint64(x[24:32]) >> 12 & mask51
}

// bytes writes the canonical (fully reduced) 32-byte encoding of v.
func (v *fe) bytes(out *[32]byte) {
	t := *v
	t.carry()
	// c is 1 exactly when t ≥ p, that is when t + 19 overflows 2^255.
	c := (t.l[0] + 19) >> 51
	for i := 1; i < 5; i++ {
		c = (t.l[i] + c) >> 51
	}
	t.l[0] += 19 * c
	for i := 0; i < 4; i++ {
		t.l[i+1] += t.l[i] >> 51
		t.l[i] &= mask51
	}
	t.l[4] &= mask51 // drops 2^255 when c was 1: t + 19 − 2^255 = t − p
	binary.LittleEndian.PutUint64(out[0:8], t.l[0]|t.l[1]<<51)
	binary.LittleEndian.PutUint64(out[8:16], t.l[1]>>13|t.l[2]<<38)
	binary.LittleEndian.PutUint64(out[16:24], t.l[2]>>26|t.l[3]<<25)
	binary.LittleEndian.PutUint64(out[24:32], t.l[3]>>39|t.l[4]<<12)
}

// isZero returns 1 if v ≡ 0 mod p and 0 otherwise.
func (v *fe) isZero() uint64 {
	var b [32]byte
	v.bytes(&b)
	var acc byte
	for _, x := range b {
		acc |= x
	}
	return (uint64(acc) - 1) >> 63 // only acc = 0 borrows into bit 63
}

// sel sets v = a if cond is 1 and v = b if cond is 0.
func (v *fe) sel(a, b *fe, cond uint64) {
	m := -cond
	for i := range v.l {
		v.l[i] = m&a.l[i] | ^m&b.l[i]
	}
}
