package onionbox

import "alpenhorn/internal/aead"

// ladder sets (x2 : z2) to the projective u-coordinate of k·P for the
// clamped scalar k of seed (RFC 7748 §5) and the point P whose
// u-coordinate is u: RFC 7748's Montgomery ladder. Each of its 255 steps
// is one masked conditional swap, five multiplications, four squarings
// and a multiplication by 121665, whatever k and u are; bit t of k is
// read at position t, so no memory index depends on it. z2 is zero where
// k·P is the point at infinity, as for a u of low order.
func ladder(x2, z2 *fe, seed *[32]byte, u *fe) {
	var x3, z3, a, aa, b, bb, e, c, d, da, cb fe
	k := *seed
	k[0] &= 248
	k[31] = k[31]&127 | 64
	*x2, *z2 = feOne, fe{}
	x3, z3 = *u, feOne
	var swap uint64
	for t := 254; t >= 0; t-- {
		bit := uint64(k[t>>3]>>(t&7)) & 1
		swap ^= bit
		cswap(x2, &x3, swap)
		cswap(z2, &z3, swap)
		swap = bit
		a.add(x2, z2)
		aa.square(&a)
		b.sub(x2, z2)
		bb.square(&b)
		e.sub(&aa, &bb)
		c.add(&x3, &z3)
		d.sub(&x3, &z3)
		da.mul(&d, &a)
		cb.mul(&c, &b)
		x3.add(&da, &cb)
		x3.square(&x3)
		z3.sub(&da, &cb)
		z3.square(&z3)
		z3.mul(&z3, u)
		x2.mul(&aa, &bb)
		a.mul121665(&e)
		a.add(&a, &aa)
		z2.mul(&e, &a)
	}
	cswap(x2, &x3, swap)
	cswap(z2, &z3, swap)
	// Everything above is a function of the scalar.
	k = [32]byte{}
	x3, z3, a, aa, b, bb, e, c, d, da, cb = fe{}, fe{}, fe{}, fe{}, fe{}, fe{}, fe{}, fe{}, fe{}, fe{}, fe{}
}

// openChunk boxes share one field inversion. 64 of them make its cost
// (265 multiplications) small beside their ladders, as sealChunk does for
// the comb, and keep the scratch at 8 KB.
const openChunk = 64

// openBatch opens boxes[i] with priv and appends its message to dst, for
// every i, and sets ends[i] to len(dst) after that message, or to −1
// where the box did not open: shorter than Overhead, a shared secret of
// zero (the refusal crypto/ecdh makes for a point of low order), or a
// failed tag. It ladders a chunk's boxes — where laneAsm is set, eight
// at a time on the lane ladder (openLanes) down to a remainder below
// laneBreakEven, and that remainder one at a time — shares one inversion
// among them (montgomeryU), then derives each key and opens each box. The
// scratch, all of it a function of priv's scalar, is zeroed before it
// returns.
func openBatch(dst []byte, priv *PrivateKey, boxes [][]byte, ends []int) []byte {
	var num, den, prefix [openChunk]fe
	var shared [openChunk][32]byte
	var lanes laneLadderState
	var eph [32]byte
	var u fe
	used := min(len(boxes), openChunk)
	for len(boxes) > 0 {
		n := min(len(boxes), openChunk)
		i := 0
		if laneAsm {
			for ; n-i >= laneBreakEven; i += laneCount {
				g := min(n-i, laneCount)
				openLanes(&lanes, &priv.seed, boxes[i:i+g], num[i:i+g], den[i:i+g])
			}
		}
		for ; i < n; i++ {
			box := boxes[i]
			if len(box) < Overhead {
				num[i], den[i] = fe{}, feOne // nothing to open; u = 0
				continue
			}
			copy(eph[:], box)
			u.setBytes(&eph)
			ladder(&num[i], &den[i], &priv.seed, &u)
		}
		montgomeryU(shared[:n], num[:n], den[:n], prefix[:n])
		for i, box := range boxes[:n] {
			ends[i] = -1
			if len(box) < Overhead || isZero32(&shared[i]) {
				continue
			}
			key := deriveKey(shared[i][:], box[:32], priv.pub[:])
			out, ok := aead.Open(dst, &key, box[32:])
			key = [32]byte{}
			if ok {
				dst = out
				ends[i] = len(dst)
			}
		}
		boxes, ends = boxes[n:], ends[n:]
	}
	clear(num[:used])
	clear(den[:used])
	clear(prefix[:used])
	clear(shared[:used])
	lanes = laneLadderState{}
	return dst
}

// isZero32 reports whether a shared secret is all zero. It ORs all 32
// bytes before the one branch its caller takes, as crypto/ecdh does.
func isZero32(b *[32]byte) bool {
	var acc byte
	for _, x := range b {
		acc |= x
	}
	return acc == 0
}
