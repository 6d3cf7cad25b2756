package bn254

import (
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// feTwistB is the constant 3/ξ of the sextic twist E'(Fp2): y² = x³ + 3/ξ,
// in the Montgomery domain; feG2GenX/Y are the generator coordinates.
// All derived at startup from the shared decimal constants.
var feTwistB, feG2GenX, feG2GenY = deriveG2Constants()

func deriveG2Constants() (b, gx, gy fe2) {
	xi := fe2FromBig(big.NewInt(9), big.NewInt(1))
	b.Invert(&xi)
	b.MulFe(&b, &feCurveB)
	gx = fe2FromBig(g2GenXA, g2GenXB)
	gy = fe2FromBig(g2GenYA, g2GenYB)
	return
}

// init validates the derived generator: a mistyped constant or a broken
// feTwistB derivation must crash at startup, not ship invalid keys.
func init() {
	gen := G2Generator()
	if !gen.IsOnCurve() {
		panic("bn254: G2 generator is not on the twist curve")
	}
	if !gen.isInSubgroupGS() {
		panic("bn254: G2 generator does not have order Order")
	}
}

// G2 is a point on the sextic twist E'(Fp2): y² = x³ + 3/ξ, stored affine
// on the Montgomery limb backend, restricted to the order-Order subgroup.
// The zero value is NOT valid; use new(G2).SetInfinity(), G2Generator(),
// or an operation that sets the receiver.
type G2 struct {
	x, y fe2
	inf  bool
}

// G2Generator returns the conventional generator of the order-Order subgroup
// of the twist.
func G2Generator() *G2 {
	return &G2{x: feG2GenX, y: feG2GenY}
}

func (p *G2) String() string {
	if p.inf {
		return "G2(∞)"
	}
	return fmt.Sprintf("G2(%v, %v)", &p.x, &p.y)
}

// SetInfinity sets p to the identity element.
func (p *G2) SetInfinity() *G2 {
	*p = G2{inf: true}
	return p
}

// IsInfinity reports whether p is the identity element.
func (p *G2) IsInfinity() bool { return p.inf }

func (p *G2) Set(a *G2) *G2 {
	*p = *a
	return p
}

func (p *G2) Equal(a *G2) bool {
	if p.inf || a.inf {
		return p.inf == a.inf
	}
	return p.x.Equal(&a.x) && p.y.Equal(&a.y)
}

// IsOnCurve reports whether p satisfies the twist equation. It does NOT
// check subgroup membership; see Unmarshal.
func (p *G2) IsOnCurve() bool {
	if p.inf {
		return true
	}
	var y2, x3 fe2
	y2.Square(&p.y)
	x3.Square(&p.x)
	x3.Mul(&x3, &p.x)
	x3.Add(&x3, &feTwistB)
	return y2.Equal(&x3)
}

// Neg sets p = −a.
func (p *G2) Neg(a *G2) *G2 {
	if a.inf {
		return p.SetInfinity()
	}
	p.x = a.x
	p.y.Neg(&a.y)
	p.inf = false
	return p
}

// Add sets p = a + b (affine formulas; the scalar-mult path below is the
// inversion-free Jacobian ladder).
func (p *G2) Add(a, b *G2) *G2 {
	if a.inf {
		return p.Set(b)
	}
	if b.inf {
		return p.Set(a)
	}
	if a.x.Equal(&b.x) {
		if !a.y.Equal(&b.y) || a.y.IsZero() {
			return p.SetInfinity()
		}
		return p.Double(a)
	}
	var lambda, den fe2
	lambda.Sub(&b.y, &a.y)
	den.Sub(&b.x, &a.x)
	den.Invert(&den)
	lambda.Mul(&lambda, &den)
	var x3, y3 fe2
	x3.Square(&lambda)
	x3.Sub(&x3, &a.x)
	x3.Sub(&x3, &b.x)
	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// Double sets p = 2a.
func (p *G2) Double(a *G2) *G2 {
	if a.inf || a.y.IsZero() {
		return p.SetInfinity()
	}
	var lambda, den fe2
	lambda.Square(&a.x)
	var three fe2
	three.Double(&lambda)
	lambda.Add(&three, &lambda)
	den.Double(&a.y)
	den.Invert(&den)
	lambda.Mul(&lambda, &den)
	var x3, y3 fe2
	x3.Square(&lambda)
	x3.Sub(&x3, &a.x)
	x3.Sub(&x3, &a.x)
	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// g2Jac is a twist point in Jacobian coordinates; z = 0 encodes infinity.
type g2Jac struct {
	x, y, z fe2
}

func (j *g2Jac) setInfinity() { *j = g2Jac{} }

func (j *g2Jac) isInfinity() bool { return j.z.IsZero() }

func (j *g2Jac) fromAffine(p *G2) {
	if p.inf {
		j.setInfinity()
		return
	}
	j.x, j.y = p.x, p.y
	j.z.SetOne()
}

func (j *g2Jac) toAffine(p *G2) {
	if j.isInfinity() {
		p.SetInfinity()
		return
	}
	var zInv, zInv2, zInv3 fe2
	zInv.Invert(&j.z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.x.Mul(&j.x, &zInv2)
	p.y.Mul(&j.y, &zInv3)
	p.inf = false
}

func (j *g2Jac) double(a *g2Jac) {
	if a.isInfinity() {
		j.setInfinity()
		return
	}
	var A, B, C, D, E, F fe2
	A.Square(&a.x)
	B.Square(&a.y)
	C.Square(&B)
	D.Add(&a.x, &B)
	D.Square(&D)
	D.Sub(&D, &A)
	D.Sub(&D, &C)
	D.Double(&D)
	E.Double(&A)
	E.Add(&E, &A)
	F.Square(&E)
	var x3, y3, z3, t fe2
	t.Double(&D)
	x3.Sub(&F, &t)
	t.Sub(&D, &x3)
	y3.Mul(&E, &t)
	C.Double(&C)
	C.Double(&C)
	C.Double(&C)
	y3.Sub(&y3, &C)
	z3.Mul(&a.y, &a.z)
	z3.Double(&z3)
	j.x, j.y, j.z = x3, y3, z3
}

func (j *g2Jac) addMixed(a *g2Jac, q *G2) {
	if q.inf {
		*j = *a
		return
	}
	if a.isInfinity() {
		j.fromAffine(q)
		return
	}
	var zz, u2, s2, h, r fe2
	zz.Square(&a.z)
	u2.Mul(&q.x, &zz)
	s2.Mul(&q.y, &a.z)
	s2.Mul(&s2, &zz)
	h.Sub(&u2, &a.x)
	r.Sub(&s2, &a.y)
	if h.IsZero() {
		if r.IsZero() {
			j.double(a)
			return
		}
		j.setInfinity()
		return
	}
	var h2, h3, v fe2
	h2.Square(&h)
	h3.Mul(&h, &h2)
	v.Mul(&a.x, &h2)
	var x3, y3, z3, t fe2
	x3.Square(&r)
	x3.Sub(&x3, &h3)
	t.Double(&v)
	x3.Sub(&x3, &t)
	t.Sub(&v, &x3)
	y3.Mul(&r, &t)
	t.Mul(&a.y, &h3)
	y3.Sub(&y3, &t)
	z3.Mul(&a.z, &h)
	j.x, j.y, j.z = x3, y3, z3
}

// ScalarMult sets p = k·a. The scalar is reduced mod Order.
func (p *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	kr := new(big.Int).Mod(k, Order)
	var acc g2Jac
	acc.setInfinity()
	for i := kr.BitLen() - 1; i >= 0; i-- {
		acc.double(&acc)
		if kr.Bit(i) == 1 {
			acc.addMixed(&acc, a)
		}
	}
	acc.toAffine(p)
	return p
}

// ScalarBaseMult sets p = k·G2gen, using the fixed-base comb table (see
// comb.go). Results are bit-identical to ScalarMult(G2Generator(), k).
func (p *G2) ScalarBaseMult(k *big.Int) *G2 {
	var buf [32]byte
	combScalarBytes(&buf, k)
	var acc g2Jac
	g2CombMult(&acc, &buf)
	acc.toAffine(p)
	return p
}

// g2MarshalledSize is the size of a marshalled G2 point:
// x.c0 ‖ x.c1 ‖ y.c0 ‖ y.c1, 32 bytes each.
const g2MarshalledSize = 128

// Marshal encodes p. Infinity encodes as all zeros.
func (p *G2) Marshal() []byte {
	out := make([]byte, g2MarshalledSize)
	if p.inf {
		return out
	}
	var buf [32]byte
	feBytes(&p.x.c0, &buf)
	copy(out[0:32], buf[:])
	feBytes(&p.x.c1, &buf)
	copy(out[32:64], buf[:])
	feBytes(&p.y.c0, &buf)
	copy(out[64:96], buf[:])
	feBytes(&p.y.c1, &buf)
	copy(out[96:128], buf[:])
	return out
}

// Unmarshal decodes a point previously encoded with Marshal. It validates
// both the curve equation and membership in the order-Order subgroup (the
// twist has composite order, so the subgroup check is required for points
// from untrusted sources). Membership is the Galbraith–Scott short-vector
// check (isInSubgroupGS), which accepts exactly the points the 254-bit
// Order ladder accepts at a quarter of its length.
func (p *G2) Unmarshal(data []byte) error {
	if len(data) != g2MarshalledSize {
		return errors.New("bn254: wrong G2 encoding length")
	}
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		p.SetInfinity()
		return nil
	}
	var coords [4]fe
	for i := range coords {
		if !feSetBytes(&coords[i], data[i*32:(i+1)*32]) {
			return errors.New("bn254: G2 coordinate out of range")
		}
	}
	p.x = fe2{c0: coords[0], c1: coords[1]}
	p.y = fe2{c0: coords[2], c1: coords[3]}
	p.inf = false
	if !p.IsOnCurve() {
		return errors.New("bn254: G2 point not on twist curve")
	}
	if !p.isInSubgroupGS() {
		return errors.New("bn254: G2 point not in prime-order subgroup")
	}
	return nil
}

// g2JacMulU sets out = [u]p, walking the signed recoding of u (negating an
// affine point is one Fp2 negation; NAF weight 24 against binary weight
// 28). It is the one ladder of both the subgroup check and the cofactor
// clearing.
func g2JacMulU(out *g2Jac, p *G2) {
	var np G2
	np.Neg(p)
	out.fromAffine(p)
	for i := len(uNAF) - 2; i >= 0; i-- {
		out.double(out)
		switch uNAF[i] {
		case 1:
			out.addMixed(out, p)
		case -1:
			out.addMixed(out, &np)
		}
	}
}

// clearCofactor sets out = [h(ψ)]p for a twist point p, which lands in the
// prime-order subgroup (Fuentes-Castañeda–Knapp–Rodríguez-Henríquez, "Faster
// hashing to G2", §6.1; the form gnark-crypto uses for BN254):
//
//	[u]p + ψ([3u]p) + ψ²([u]p) + ψ³(p)
//
// One 63-bit ladder, in place of a multiplication by the 254-bit cofactor.
func (p *G2) clearCofactor(out *G2) {
	var up, acc, t g2Jac
	g2JacMulU(&up, p)
	t.double(&up)
	t.add(&t, &up) // [3u]p
	g2JacPsi(&t, &t)
	acc.add(&up, &t)
	g2JacPsi(&t, &up)
	g2JacPsi(&t, &t)
	acc.add(&acc, &t)
	var p3 G2
	g2Psi(&p3, p)
	g2Psi(&p3, &p3)
	g2Psi(&p3, &p3)
	acc.addMixed(&acc, &p3)
	acc.toAffine(out)
}

// HashToG2 hashes an arbitrary message into the prime-order subgroup of
// the twist with domain-separated try-and-increment: SHA-512 of the
// domain, message and a counter gives x ∈ Fp2; the first x with x³ + 3/ξ
// a square gives a twist point (root sign from the digest, so the map is a
// function of (domain, msg) alone), and clearCofactor moves it into the
// subgroup. About two tries on average, each one Fp2 square root.
func HashToG2(domain string, msg []byte) *G2 {
	h := sha512.New()
	var ctr [4]byte
	var p, out G2
	for i := uint32(0); ; i++ {
		h.Reset()
		binary.BigEndian.PutUint32(ctr[:], i)
		h.Write([]byte("alpenhorn/bn254/hash-to-g2:"))
		h.Write([]byte(domain))
		h.Write([]byte{0})
		h.Write(msg)
		h.Write(ctr[:])
		digest := h.Sum(nil)
		x0 := new(big.Int).SetBytes(digest[:32])
		x1 := new(big.Int).SetBytes(digest[32:])
		p.x = fe2FromBig(x0.Mod(x0, P), x1.Mod(x1, P))
		var y2 fe2
		y2.Square(&p.x)
		y2.Mul(&y2, &p.x)
		y2.Add(&y2, &feTwistB)
		if !p.y.Sqrt(&y2) {
			continue
		}
		if digest[0]&1 == 1 {
			p.y.Neg(&p.y)
		}
		p.inf = false
		p.clearCofactor(&out)
		if out.inf {
			continue
		}
		return &out
	}
}
