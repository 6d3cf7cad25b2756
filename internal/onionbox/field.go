package onionbox

import (
	"encoding/binary"
	"math/bits"
)

// fe is an element of GF(2^255 − 19) on four 64-bit limbs, little endian:
// l[0] + l[1]·2^64 + l[2]·2^128 + l[3]·2^192. Any 256-bit value stands for
// its residue mod p: every method accepts all of them and returns one of
// them, and only bytes reduces fully. Since 2^256 ≡ 38, a carry out of the
// top limb folds back into the bottom one multiplied by 38. No method
// branches or indexes on the value of an element.
type fe struct{ l [4]uint64 }

var (
	feOne = fe{[4]uint64{1}}
	// feD2 is 2d, d = −121665/121666 the twisted Edwards constant.
	feD2 = fe{[4]uint64{0xebd69b9426b2f159, 0x00e0149a8283b156, 0x198e80f2eef3d130, 0x2406d9dc56dffce7}}
)

// The multiplications go through feMul and feSquare, which are assembly
// kernels on amd64 with BMI2 and ADX (onionbox_amd64.s) and otherwise
// their Go twins feMulGeneric and feSquareGeneric. countMul and
// countSquare compile to nothing outside the opcount build tag.

func (v *fe) mul(a, b *fe) {
	countMul()
	feMul(v, a, b)
}

func (v *fe) square(a *fe) {
	countSquare()
	feSquare(v, a)
}

func (v *fe) add(a, b *fe) {
	var c uint64
	v.l[0], c = bits.Add64(a.l[0], b.l[0], 0)
	v.l[1], c = bits.Add64(a.l[1], b.l[1], c)
	v.l[2], c = bits.Add64(a.l[2], b.l[2], c)
	v.l[3], c = bits.Add64(a.l[3], b.l[3], c)
	v.fold(c * 38)
}

// sub sets v = a − b. A borrow out of the top limb means 2^256 too much,
// which is 38 too much mod p; taking 38 away can borrow once more only
// when v is then below 38, and the second 38 then cannot borrow.
func (v *fe) sub(a, b *fe) {
	var c uint64
	v.l[0], c = bits.Sub64(a.l[0], b.l[0], 0)
	v.l[1], c = bits.Sub64(a.l[1], b.l[1], c)
	v.l[2], c = bits.Sub64(a.l[2], b.l[2], c)
	v.l[3], c = bits.Sub64(a.l[3], b.l[3], c)
	v.l[0], c = bits.Sub64(v.l[0], c*38, 0)
	v.l[1], c = bits.Sub64(v.l[1], 0, c)
	v.l[2], c = bits.Sub64(v.l[2], 0, c)
	v.l[3], c = bits.Sub64(v.l[3], 0, c)
	v.l[0] -= c * 38
}

func (v *fe) neg(a *fe) { v.sub(&fe{}, a) }

// mul121665 sets v = 121665·a, the ladder's (A − 2)/4 for Curve25519's
// A = 486662.
func (v *fe) mul121665(a *fe) {
	const k = 121665
	h0, l0 := bits.Mul64(a.l[0], k)
	h1, l1 := bits.Mul64(a.l[1], k)
	h2, l2 := bits.Mul64(a.l[2], k)
	h3, l3 := bits.Mul64(a.l[3], k)
	var c uint64
	v.l[0] = l0
	v.l[1], c = bits.Add64(l1, h0, 0)
	v.l[2], c = bits.Add64(l2, h1, c)
	v.l[3], c = bits.Add64(l3, h2, c)
	// The top word h3 + c is below 2^17, so 38 times it fits a limb.
	v.fold((h3 + c) * 38)
}

// fold adds t < 2^64 to v. A carry out of the top limb is 2^256 ≡ 38;
// after one, v is below t, so adding the 38 cannot carry again.
func (v *fe) fold(t uint64) {
	var c uint64
	v.l[0], c = bits.Add64(v.l[0], t, 0)
	v.l[1], c = bits.Add64(v.l[1], 0, c)
	v.l[2], c = bits.Add64(v.l[2], 0, c)
	v.l[3], c = bits.Add64(v.l[3], 0, c)
	v.l[0] += c * 38
}

// reduceWide sets v to a 512-bit value t, least significant word first,
// mod p: the low half plus 38 times the high half is a 261-bit value,
// whose top word, times 38, folds into the low four once more. The
// assembly kernels end with the same three steps, so both paths return
// the same limbs, not only the same residue.
func (v *fe) reduceWide(t *[8]uint64) {
	h0, l0 := bits.Mul64(t[4], 38)
	h1, l1 := bits.Mul64(t[5], 38)
	h2, l2 := bits.Mul64(t[6], 38)
	h3, l3 := bits.Mul64(t[7], 38)
	var c, c2 uint64
	v.l[0], c = bits.Add64(t[0], l0, 0)
	v.l[1], c = bits.Add64(t[1], l1, c)
	v.l[2], c = bits.Add64(t[2], l2, c)
	v.l[3], c = bits.Add64(t[3], l3, c)
	top := h3 + c
	v.l[1], c2 = bits.Add64(v.l[1], h0, 0)
	v.l[2], c2 = bits.Add64(v.l[2], h1, c2)
	v.l[3], c2 = bits.Add64(v.l[3], h2, c2)
	top += c2
	v.fold(top * 38)
}

// feMulGeneric is feMul's Go twin: a schoolbook 512-bit product, row by
// row, then reduceWide.
func feMulGeneric(v, a, b *fe) {
	var t [8]uint64
	var c uint64
	t[0], t[1], t[2], t[3], t[4] = mulRow(a.l[0], b)
	r0, r1, r2, r3, r4 := mulRow(a.l[1], b)
	t[1], c = bits.Add64(t[1], r0, 0)
	t[2], c = bits.Add64(t[2], r1, c)
	t[3], c = bits.Add64(t[3], r2, c)
	t[4], c = bits.Add64(t[4], r3, c)
	t[5] = r4 + c
	r0, r1, r2, r3, r4 = mulRow(a.l[2], b)
	t[2], c = bits.Add64(t[2], r0, 0)
	t[3], c = bits.Add64(t[3], r1, c)
	t[4], c = bits.Add64(t[4], r2, c)
	t[5], c = bits.Add64(t[5], r3, c)
	t[6] = r4 + c
	r0, r1, r2, r3, r4 = mulRow(a.l[3], b)
	t[3], c = bits.Add64(t[3], r0, 0)
	t[4], c = bits.Add64(t[4], r1, c)
	t[5], c = bits.Add64(t[5], r2, c)
	t[6], c = bits.Add64(t[6], r3, c)
	t[7] = r4 + c
	v.reduceWide(&t)
}

// mulRow returns the 320-bit x·b, least significant word first.
func mulRow(x uint64, b *fe) (r0, r1, r2, r3, r4 uint64) {
	var h0, h1, h2, c uint64
	h0, r0 = bits.Mul64(x, b.l[0])
	h1, r1 = bits.Mul64(x, b.l[1])
	h2, r2 = bits.Mul64(x, b.l[2])
	r4, r3 = bits.Mul64(x, b.l[3])
	r1, c = bits.Add64(r1, h0, 0)
	r2, c = bits.Add64(r2, h1, c)
	r3, c = bits.Add64(r3, h2, c)
	return r0, r1, r2, r3, r4 + c
}

// feSquareGeneric is feSquare's Go twin: the six cross products once,
// doubled, plus the four squares, then reduceWide.
func feSquareGeneric(v, a *fe) {
	a0, a1, a2, a3 := a.l[0], a.l[1], a.l[2], a.l[3]
	var t [8]uint64
	var c uint64
	// The cross products a_i·a_j, i < j, at words 1 … 6: a0 times the
	// rest, then a1 times a2 and a3, then a2·a3.
	h1, t1 := bits.Mul64(a0, a1)
	h2, l2 := bits.Mul64(a0, a2)
	h3, l3 := bits.Mul64(a0, a3)
	t2, c := bits.Add64(h1, l2, 0)
	t3, c := bits.Add64(h2, l3, c)
	t4 := h3 + c
	h, l := bits.Mul64(a1, a2)
	t3, c = bits.Add64(t3, l, 0)
	t4, c = bits.Add64(t4, h, c)
	t5 := c
	h, l = bits.Mul64(a1, a3)
	t4, c = bits.Add64(t4, l, 0)
	t5, c = bits.Add64(t5, h, c)
	t6 := c
	h, l = bits.Mul64(a2, a3)
	t5, c = bits.Add64(t5, l, 0)
	t6 += h + c
	// Doubled: the cross sum is below 2^448, so twice it fits words 1 … 7.
	t[7] = t6 >> 63
	t[6] = t6<<1 | t5>>63
	t[5] = t5<<1 | t4>>63
	t[4] = t4<<1 | t3>>63
	t[3] = t3<<1 | t2>>63
	t[2] = t2<<1 | t1>>63
	t[1] = t1 << 1
	// Plus the squares a_i² at words 2i and 2i + 1.
	h, t[0] = bits.Mul64(a0, a0)
	t[1], c = bits.Add64(t[1], h, 0)
	h, l = bits.Mul64(a1, a1)
	t[2], c = bits.Add64(t[2], l, c)
	t[3], c = bits.Add64(t[3], h, c)
	h, l = bits.Mul64(a2, a2)
	t[4], c = bits.Add64(t[4], l, c)
	t[5], c = bits.Add64(t[5], h, c)
	h, l = bits.Mul64(a3, a3)
	t[6], c = bits.Add64(t[6], l, c)
	t[7] += h + c
	v.reduceWide(&t)
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
	v.l[0] = binary.LittleEndian.Uint64(x[0:8])
	v.l[1] = binary.LittleEndian.Uint64(x[8:16])
	v.l[2] = binary.LittleEndian.Uint64(x[16:24])
	v.l[3] = binary.LittleEndian.Uint64(x[24:32]) &^ (1 << 63)
}

// bytes writes the canonical (fully reduced) 32-byte encoding of v.
func (v *fe) bytes(out *[32]byte) {
	t := *v
	// 2^255 ≡ 19: folding bit 255 twice leaves t below 2^255.
	for i := 0; i < 2; i++ {
		top := t.l[3] >> 63
		t.l[3] &^= 1 << 63
		var c uint64
		t.l[0], c = bits.Add64(t.l[0], top*19, 0)
		t.l[1], c = bits.Add64(t.l[1], 0, c)
		t.l[2], c = bits.Add64(t.l[2], 0, c)
		t.l[3] += c
	}
	// t ≥ p exactly when t + 19 reaches 2^255; then t − p is t + 19
	// without bit 255.
	var s fe
	var c uint64
	s.l[0], c = bits.Add64(t.l[0], 19, 0)
	s.l[1], c = bits.Add64(t.l[1], 0, c)
	s.l[2], c = bits.Add64(t.l[2], 0, c)
	s.l[3] = t.l[3] + c
	ge := s.l[3] >> 63
	s.l[3] &^= 1 << 63
	t.sel(&s, &t, ge)
	binary.LittleEndian.PutUint64(out[0:8], t.l[0])
	binary.LittleEndian.PutUint64(out[8:16], t.l[1])
	binary.LittleEndian.PutUint64(out[16:24], t.l[2])
	binary.LittleEndian.PutUint64(out[24:32], t.l[3])
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

// cswap swaps a and b if cond is 1 and leaves them if cond is 0.
func cswap(a, b *fe, cond uint64) {
	m := -cond
	for i := range a.l {
		t := m & (a.l[i] ^ b.l[i])
		a.l[i] ^= t
		b.l[i] ^= t
	}
}
