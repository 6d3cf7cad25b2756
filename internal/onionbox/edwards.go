package onionbox

// Points of the twisted Edwards curve −x² + y² = 1 + d·x²y² that is
// birationally equivalent to Curve25519 (RFC 7748 §4.1). The addition
// formulas are complete for it (−1 is a square and d is not), so low-order
// and mixed-order points need no special case and Z is never 0.

// point is (X:Y:Z:T) with x = X/Z, y = Y/Z, xy = T/Z.
type point struct{ x, y, z, t fe }

// completed is the (X:Z, Y:T) output of an addition or doubling, one
// multiplication per coordinate away from a point.
type completed struct{ x, y, z, t fe }

// niels is an affine point stored as (y+x, y−x, 2dxy): adding it to a
// point costs 7 multiplications, the conversion back included.
type niels struct{ yPlusX, yMinusX, t2d fe }

var identityPoint = point{y: feOne, z: feOne}

func (p *point) setAffine(x, y *fe) {
	p.x, p.y, p.z = *x, *y, feOne
	p.t.mul(x, y)
}

func (p *point) set(c *completed) {
	p.x.mul(&c.x, &c.t)
	p.y.mul(&c.y, &c.z)
	p.z.mul(&c.z, &c.t)
	p.t.mul(&c.x, &c.y)
}

// setNoT is set without the T coordinate, which a doubling does not read.
func (p *point) setNoT(c *completed) {
	p.x.mul(&c.x, &c.t)
	p.y.mul(&c.y, &c.z)
	p.z.mul(&c.z, &c.t)
}

func (c *completed) double(p *point) {
	var xx, yy, zz2, xy2 fe
	xx.square(&p.x)
	yy.square(&p.y)
	zz2.square(&p.z)
	zz2.add(&zz2, &zz2)
	xy2.add(&p.x, &p.y)
	xy2.square(&xy2)
	c.y.add(&yy, &xx)
	c.z.sub(&yy, &xx)
	c.x.sub(&xy2, &c.y)
	c.t.sub(&zz2, &c.z)
}

func (c *completed) addNiels(p *point, q *niels) {
	var pp, mm, tt2d, z2 fe
	pp.add(&p.y, &p.x)
	pp.mul(&pp, &q.yPlusX)
	mm.sub(&p.y, &p.x)
	mm.mul(&mm, &q.yMinusX)
	tt2d.mul(&p.t, &q.t2d)
	z2.add(&p.z, &p.z)
	c.x.sub(&pp, &mm)
	c.y.add(&pp, &mm)
	c.z.add(&z2, &tt2d)
	c.t.sub(&z2, &tt2d)
}

// add is the general addition, used only to build tables.
func (c *completed) add(p, q *point) {
	var pp, mm, tt2d, zz2, t fe
	pp.add(&p.y, &p.x)
	t.add(&q.y, &q.x)
	pp.mul(&pp, &t)
	mm.sub(&p.y, &p.x)
	t.sub(&q.y, &q.x)
	mm.mul(&mm, &t)
	tt2d.mul(&p.t, &q.t)
	tt2d.mul(&tt2d, &feD2)
	zz2.mul(&p.z, &q.z)
	zz2.add(&zz2, &zz2)
	c.x.sub(&pp, &mm)
	c.y.add(&pp, &mm)
	c.z.add(&zz2, &tt2d)
	c.t.sub(&zz2, &tt2d)
}

// condNeg negates n if cond is 1: −(x, y) = (−x, y) swaps y+x with y−x
// and flips the sign of 2dxy.
func (n *niels) condNeg(cond uint64) {
	var negT fe
	negT.neg(&n.t2d)
	n.t2d.sel(&negT, &n.t2d, cond)
	m := -cond
	for i := range n.yPlusX.l {
		t := m & (n.yPlusX.l[i] ^ n.yMinusX.l[i])
		n.yPlusX.l[i] ^= t
		n.yMinusX.l[i] ^= t
	}
}

// A combTable holds, for one point P and every window i < 32, the
// multiples 1·256^i·P … 8·256^i·P: with a scalar written as 64 signed
// radix-16 digits (each in [−8, 8]) the product is 64 table additions and
// 4 doublings, whatever the scalar.
type combTable [32][8]niels

// lookup sets n = digit · 256^window · P in constant time: it reads all
// eight entries of the window, keeps the one whose mask is set, and falls
// back to the identity when none is (digit 0).
func (t *combTable) lookup(n *niels, window int, digit int8) {
	sign := uint64(uint8(digit) >> 7)
	abs := uint64((digit ^ -int8(sign)) + int8(sign))
	var r niels
	for j := range t[window] {
		e := &t[window][j]
		m := -(((abs ^ uint64(j+1)) - 1) >> 63) // all ones iff abs = j+1
		for i := range r.t2d.l {
			r.yPlusX.l[i] |= m & e.yPlusX.l[i]
			r.yMinusX.l[i] |= m & e.yMinusX.l[i]
			r.t2d.l[i] |= m & e.t2d.l[i]
		}
	}
	zero := (abs - 1) >> 63
	r.yPlusX.l[0] |= zero
	r.yMinusX.l[0] |= zero
	r.condNeg(sign)
	*n = r
}

// scalarMult sets p = k·P for the scalar whose recoding is digits.
func (t *combTable) scalarMult(p *point, digits *[64]int8) {
	var n niels
	var c completed
	*p = identityPoint
	for i := 1; i < 64; i += 2 {
		t.lookup(&n, i/2, digits[i])
		c.addNiels(p, &n)
		p.set(&c)
	}
	for i := 0; i < 3; i++ {
		c.double(p)
		p.setNoT(&c)
	}
	c.double(p)
	p.set(&c)
	for i := 0; i < 64; i += 2 {
		t.lookup(&n, i/2, digits[i])
		c.addNiels(p, &n)
		p.set(&c)
	}
}

// recode writes the clamped X25519 scalar of seed (RFC 7748 §5) as signed
// radix-16 digits: k = Σ digits[i]·16^i, digits[i] in [−8, 8). Clamping
// keeps k below 2^255, so the top digit takes the last carry and is at
// most 8.
func recode(digits *[64]int8, seed []byte) {
	for i, b := range seed[:32] {
		switch i {
		case 0:
			b &= 248
		case 31:
			b = b&127 | 64
		}
		digits[2*i] = int8(b & 15)
		digits[2*i+1] = int8(b >> 4)
	}
	var carry int8
	for i := 0; i < 63; i++ {
		digits[i] += carry
		carry = (digits[i] + 8) >> 4
		digits[i] -= carry << 4
	}
	digits[63] += carry
}

// fill builds the table of the affine point (x, y): 288 doublings, 96
// additions and one inversion shared by all 256 entries.
func (t *combTable) fill(x, y *fe) {
	var pts [32][8]point
	var q point
	var c completed
	q.setAffine(x, y)
	for i := range pts {
		w := &pts[i]
		w[0] = q
		for j := 1; j < 8; j++ {
			if j&1 == 1 {
				c.double(&w[j/2])
			} else {
				c.add(&w[j-1], &q)
			}
			w[j].set(&c)
		}
		q = w[7] // 8·256^i·P; five more doublings give 256^(i+1)·P
		for j := 0; j < 5; j++ {
			c.double(&q)
			q.set(&c)
		}
	}

	// Montgomery's trick over the 256 Z coordinates.
	var prefix [32 * 8]fe
	acc := feOne
	for i := range pts {
		for j := range pts[i] {
			prefix[i*8+j] = acc
			acc.mul(&acc, &pts[i][j].z)
		}
	}
	acc.invert(&acc)
	for i := len(pts) - 1; i >= 0; i-- {
		for j := 7; j >= 0; j-- {
			p := &pts[i][j]
			var zInv, ax, ay fe
			zInv.mul(&acc, &prefix[i*8+j])
			acc.mul(&acc, &p.z)
			ax.mul(&p.x, &zInv)
			ay.mul(&p.y, &zInv)
			n := &t[i][j]
			n.yPlusX.add(&ay, &ax)
			n.yMinusX.sub(&ay, &ax)
			n.t2d.mul(&ax, &ay)
			n.t2d.mul(&n.t2d, &feD2)
		}
	}
}
