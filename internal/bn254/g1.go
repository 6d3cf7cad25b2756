package bn254

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// G1 is a point on E(Fp): y² = x³ + 3, stored affine on the Montgomery
// limb backend. The zero value is NOT valid; use new(G1).SetInfinity(),
// G1Generator(), or an operation that sets the receiver. E(Fp) has prime
// order Order, so every curve point other than infinity generates the
// full group.
type G1 struct {
	x, y fe
	inf  bool
}

// g1Gen holds the conventional generator (1, 2) in Montgomery form.
var g1Gen = deriveG1Gen()

func deriveG1Gen() G1 {
	var p G1
	feFromBig(&p.x, big.NewInt(1))
	feFromBig(&p.y, big.NewInt(2))
	return p
}

// G1Generator returns the conventional generator (1, 2).
func G1Generator() *G1 {
	p := g1Gen
	return &p
}

func (p *G1) String() string {
	if p.inf {
		return "G1(∞)"
	}
	return fmt.Sprintf("G1(%v, %v)", feToBig(&p.x), feToBig(&p.y))
}

// SetInfinity sets p to the identity element.
func (p *G1) SetInfinity() *G1 {
	*p = G1{inf: true}
	return p
}

// IsInfinity reports whether p is the identity element.
func (p *G1) IsInfinity() bool { return p.inf }

func (p *G1) Set(a *G1) *G1 {
	*p = *a
	return p
}

func (p *G1) Equal(a *G1) bool {
	if p.inf || a.inf {
		return p.inf == a.inf
	}
	return p.x.Equal(&a.x) && p.y.Equal(&a.y)
}

// IsOnCurve reports whether p satisfies y² = x³ + 3 (infinity counts as on
// the curve).
func (p *G1) IsOnCurve() bool {
	if p.inf {
		return true
	}
	var y2, x3 fe
	feSquare(&y2, &p.y)
	feSquare(&x3, &p.x)
	feMul(&x3, &x3, &p.x)
	feAdd(&x3, &x3, &feCurveB)
	return y2.Equal(&x3)
}

// Neg sets p = −a.
func (p *G1) Neg(a *G1) *G1 {
	if a.inf {
		return p.SetInfinity()
	}
	p.x = a.x
	feNeg(&p.y, &a.y)
	p.inf = false
	return p
}

// Add sets p = a + b using affine chord-and-tangent formulas (one field
// inversion; fine for the aggregation call sites — the scalar-mult and
// pairing hot paths use the inversion-free Jacobian ladder instead).
func (p *G1) Add(a, b *G1) *G1 {
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
	// λ = (by − ay) / (bx − ax)
	var num, den, lambda fe
	feSub(&num, &b.y, &a.y)
	feSub(&den, &b.x, &a.x)
	feInv(&den, &den)
	feMul(&lambda, &num, &den)
	var x3, y3, t fe
	feSquare(&x3, &lambda)
	feSub(&x3, &x3, &a.x)
	feSub(&x3, &x3, &b.x)
	feSub(&t, &a.x, &x3)
	feMul(&y3, &lambda, &t)
	feSub(&y3, &y3, &a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// Double sets p = 2a.
func (p *G1) Double(a *G1) *G1 {
	if a.inf || a.y.IsZero() {
		return p.SetInfinity()
	}
	// λ = 3ax² / 2ay
	var num, den, lambda fe
	feSquare(&num, &a.x)
	feMulBy3(&num, &num)
	feDouble(&den, &a.y)
	feInv(&den, &den)
	feMul(&lambda, &num, &den)
	var x3, y3, t fe
	feSquare(&x3, &lambda)
	feDouble(&t, &a.x)
	feSub(&x3, &x3, &t)
	feSub(&t, &a.x, &x3)
	feMul(&y3, &lambda, &t)
	feSub(&y3, &y3, &a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// g1Jac is a point in Jacobian coordinates (x/z², y/z³); z = 0 encodes
// infinity. Used internally for inversion-free scalar multiplication and
// the Miller loop.
type g1Jac struct {
	x, y, z fe
}

func (j *g1Jac) setInfinity() { *j = g1Jac{} }

func (j *g1Jac) isInfinity() bool { return j.z.IsZero() }

func (j *g1Jac) fromAffine(p *G1) {
	if p.inf {
		j.setInfinity()
		return
	}
	j.x, j.y, j.z = p.x, p.y, feOne
}

func (j *g1Jac) toAffine(p *G1) {
	if j.isInfinity() {
		p.SetInfinity()
		return
	}
	var zInv, zInv2, zInv3 fe
	feInv(&zInv, &j.z)
	feSquare(&zInv2, &zInv)
	feMul(&zInv3, &zInv2, &zInv)
	feMul(&p.x, &j.x, &zInv2)
	feMul(&p.y, &j.y, &zInv3)
	p.inf = false
}

// double sets j = 2a (a = 0 curve; standard Jacobian doubling).
func (j *g1Jac) double(a *g1Jac) {
	if a.isInfinity() {
		j.setInfinity()
		return
	}
	var A, B, C, D, E, F fe
	feSquare(&A, &a.x) // A = X²
	feSquare(&B, &a.y) // B = Y²
	feSquare(&C, &B)   // C = B²
	// D = 2((X+B)² − A − C)
	feAdd(&D, &a.x, &B)
	feSquare(&D, &D)
	feSub(&D, &D, &A)
	feSub(&D, &D, &C)
	feDouble(&D, &D)
	feMulBy3(&E, &A) // E = 3A
	feSquare(&F, &E) // F = E²
	var x3, y3, z3, t fe
	feDouble(&t, &D)
	feSub(&x3, &F, &t) // X3 = F − 2D
	feSub(&t, &D, &x3)
	feMul(&y3, &E, &t)
	feDouble(&C, &C)
	feDouble(&C, &C)
	feDouble(&C, &C)
	feSub(&y3, &y3, &C) // Y3 = E(D−X3) − 8C
	feMul(&z3, &a.y, &a.z)
	feDouble(&z3, &z3) // Z3 = 2YZ
	j.x, j.y, j.z = x3, y3, z3
}

// addMixed sets j = a + q for affine q (classic mixed addition).
func (j *g1Jac) addMixed(a *g1Jac, q *G1) {
	if q.inf {
		*j = *a
		return
	}
	if a.isInfinity() {
		j.fromAffine(q)
		return
	}
	var zz, u2, s2, h, r fe
	feSquare(&zz, &a.z)
	feMul(&u2, &q.x, &zz)
	feMul(&s2, &q.y, &a.z)
	feMul(&s2, &s2, &zz)
	feSub(&h, &u2, &a.x)
	feSub(&r, &s2, &a.y)
	if h.IsZero() {
		if r.IsZero() {
			j.double(a)
			return
		}
		j.setInfinity()
		return
	}
	var h2, h3, v fe
	feSquare(&h2, &h)
	feMul(&h3, &h, &h2)
	feMul(&v, &a.x, &h2)
	var x3, y3, z3, t fe
	feSquare(&x3, &r)
	feSub(&x3, &x3, &h3)
	feDouble(&t, &v)
	feSub(&x3, &x3, &t) // X3 = R² − H³ − 2V
	feSub(&t, &v, &x3)
	feMul(&y3, &r, &t)
	feMul(&t, &a.y, &h3)
	feSub(&y3, &y3, &t)  // Y3 = R(V−X3) − Y·H³
	feMul(&z3, &a.z, &h) // Z3 = Z·H
	j.x, j.y, j.z = x3, y3, z3
}

// ScalarMult sets p = k·a. The scalar is reduced mod Order.
func (p *G1) ScalarMult(a *G1, k *big.Int) *G1 {
	kr := new(big.Int).Mod(k, Order)
	var acc g1Jac
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

// ScalarBaseMult sets p = k·G where G is the conventional generator, using
// the fixed-base comb table (see comb.go). Results are bit-identical to
// ScalarMult(G1Generator(), k).
func (p *G1) ScalarBaseMult(k *big.Int) *G1 {
	var buf [32]byte
	combScalarBytes(&buf, k)
	var acc g1Jac
	g1CombMult(&acc, &buf)
	acc.toAffine(p)
	return p
}

// g1MarshalledSize is the size of a marshalled G1 point: x alone, with
// the sign of y in a spare bit.
const g1MarshalledSize = 32

// Flag bits in the first byte of a G1 encoding. P has 254 bits, so the
// top two bits of a big-endian x are always free.
const (
	g1FlagInfinity = 0x80 // the identity; every other bit is zero
	g1FlagYOdd     = 0x40 // y, as an integer in [0, P), is odd
	g1FlagMask     = g1FlagInfinity | g1FlagYOdd
)

// Marshal encodes p compressed: x as 32 big-endian bytes, with bit 6 of
// the first byte set when y is odd. Infinity encodes as 0x80 followed by
// 31 zero bytes.
func (p *G1) Marshal() []byte {
	out := make([]byte, g1MarshalledSize)
	if p.inf {
		out[0] = g1FlagInfinity
		return out
	}
	feBytes(&p.x, (*[32]byte)(out))
	if feIsOdd(&p.y) {
		out[0] |= g1FlagYOdd
	}
	return out
}

// feIsOdd reports whether x, as an integer in [0, P), is odd.
func feIsOdd(x *fe) bool {
	var raw fe
	feFromMont(&raw, x)
	return raw[0]&1 == 1
}

// G1 decoding errors. They are values, not fresh allocations, so a
// mailbox scan decodes malformed blobs without touching the heap.
var (
	errG1Length     = errors.New("bn254: wrong G1 encoding length")
	errG1Infinity   = errors.New("bn254: G1 infinity encoding has other bits set")
	errG1Coordinate = errors.New("bn254: G1 coordinate out of range")
	errG1OffCurve   = errors.New("bn254: G1 x is not on the curve")
)

// Unmarshal decodes a point encoded with Marshal: it recovers y as the
// square root of x³ + 3 with the encoded sign. It rejects a wrong length,
// x ≥ P, an x with no point on the curve, and the infinity flag with any
// other bit set, so every point has exactly one accepted encoding. Being
// on the curve is the whole check: E(Fp) has prime order, so every curve
// point is in the group.
func (p *G1) Unmarshal(data []byte) error {
	var yinv fe
	return g1Decompress(p, &yinv, data)
}

// g1Decompress is Unmarshal that also sets yinv = 1/y (zero for
// infinity), which the ate replay needs: one exponentiation gives both.
// For a square rhs = x³ + 3, r = rhs^((3P−5)/4) is the inverse of the
// principal root rhs^((P+1)/4), and that root is rhs·r. For a non-square,
// (rhs·r)² = −rhs, which the check rejects.
func g1Decompress(p *G1, yinv *fe, data []byte) error {
	var x, rhs, r fe
	flags, inf, err := g1DecompressStart(&x, &rhs, data)
	if err != nil {
		return err
	}
	if inf {
		p.SetInfinity()
		*yinv = fe{}
		return nil
	}
	feExp(&r, &rhs, pInvSqrtExp)
	return g1DecompressFinish(p, yinv, &x, &rhs, &r, flags)
}

// g1DecompressStart is g1Decompress up to its exponentiation: it checks
// the encoding, and for a finite point sets x and rhs = x³ + 3 and
// returns the flags; for infinity it reports inf. The lane pairing runs
// the exponentiation between the two halves, eight points at a time.
func g1DecompressStart(x, rhs *fe, data []byte) (flags byte, inf bool, err error) {
	if len(data) != g1MarshalledSize {
		return 0, false, errG1Length
	}
	flags = data[0] & g1FlagMask
	if flags&g1FlagInfinity != 0 {
		if data[0] != g1FlagInfinity {
			return 0, false, errG1Infinity
		}
		for _, b := range data[1:] {
			if b != 0 {
				return 0, false, errG1Infinity
			}
		}
		return 0, true, nil
	}
	var buf [32]byte
	copy(buf[:], data)
	buf[0] &^= g1FlagMask
	if !feSetBytes(x, buf[:]) {
		return 0, false, errG1Coordinate
	}
	feSquare(rhs, x)
	feMul(rhs, rhs, x)
	feAdd(rhs, rhs, &feCurveB)
	return flags, false, nil
}

// g1DecompressFinish is g1Decompress after its exponentiation, given
// r = rhs^((3P−5)/4).
func g1DecompressFinish(p *G1, yinv *fe, x, rhs, r *fe, flags byte) error {
	var y, y2 fe
	feMul(&y, rhs, r)
	feSquare(&y2, &y)
	if !y2.Equal(rhs) {
		return errG1OffCurve
	}
	// y ≠ 0 (a prime odd order has no 2-torsion), so exactly one of ±y
	// carries the encoded sign.
	*yinv = *r
	if feIsOdd(&y) != (flags == g1FlagYOdd) {
		feNeg(&y, &y)
		feNeg(yinv, yinv)
	}
	p.x, p.y, p.inf = *x, y, false
	return nil
}

// HashToG1 hashes an arbitrary message to a curve point using domain-
// separated try-and-increment. Because E(Fp) has prime order, the result is
// always a generator of G1 (unless the negligible-probability identity is
// hit, which is rejected). The output is bit-identical to the big.Int
// reference implementation: same hash stream, same principal square root,
// same sign choice.
func HashToG1(domain string, msg []byte) *G1 {
	h := sha256.New()
	var ctr [4]byte
	for i := uint32(0); ; i++ {
		h.Reset()
		binary.BigEndian.PutUint32(ctr[:], i)
		h.Write([]byte("alpenhorn/bn254/hash-to-g1:"))
		h.Write([]byte(domain))
		h.Write([]byte{0})
		h.Write(msg)
		h.Write(ctr[:])
		digest := h.Sum(nil)
		xBig := new(big.Int).SetBytes(digest)
		xBig.Mod(xBig, P)
		var x, y2, y fe
		feFromBig(&x, xBig)
		feSquare(&y2, &x)
		feMul(&y2, &y2, &x)
		feAdd(&y2, &y2, &feCurveB)
		if !feSqrt(&y, &y2) {
			continue
		}
		// Choose the root deterministically from the hash so that the
		// map is a function of (domain, msg) alone.
		if digest[0]&1 == 1 {
			feNeg(&y, &y)
		}
		if y.IsZero() && x.IsZero() {
			continue
		}
		return &G1{x: x, y: y}
	}
}
