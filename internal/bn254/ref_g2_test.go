package bn254

import (
	"errors"
	"fmt"
	"math/big"
)

// twistB is the constant 3/ξ of the sextic twist E'(Fp2): y² = x³ + 3/ξ.
var twistB *gfP2

// g2GenX, g2GenY are the affine coordinates of the conventional refG2
// generator on the twist (the alt_bn128 generator used by EIP-197).
var g2GenX, g2GenY *gfP2

func init() {
	xi := newGFp2().SetInts(big.NewInt(9), big.NewInt(1))
	twistB = newGFp2().Invert(xi)
	twistB.MulScalar(twistB, curveB)

	g2GenX = newGFp2().SetInts(
		bigFromBase10("10857046999023057135944570762232829481370756359578518086990519993285655852781"),
		bigFromBase10("11559732032986387107991004021392285783925812861821192530917403151452391805634"),
	)
	g2GenY = newGFp2().SetInts(
		bigFromBase10("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
		bigFromBase10("4082367875863433681332203403145435568316851327593401208105741076214120093531"),
	)
	gen := refG2Generator()
	if !gen.IsOnCurve() {
		panic("bn254: refG2 generator is not on the twist curve")
	}
	if !new(refG2).ScalarMult(gen, Order).IsInfinity() {
		panic("bn254: refG2 generator does not have order Order")
	}
}

// refG2 is a point on the sextic twist E'(Fp2): y² = x³ + 3/ξ, in affine
// coordinates, restricted to the order-Order subgroup. The zero value is NOT
// valid; use new(refG2).SetInfinity(), refG2Generator(), or an operation that sets
// the receiver.
type refG2 struct {
	x, y *gfP2
	inf  bool
}

// refG2Generator returns the conventional generator of the order-Order subgroup
// of the twist.
func refG2Generator() *refG2 {
	return &refG2{x: newGFp2().Set(g2GenX), y: newGFp2().Set(g2GenY)}
}

func (p *refG2) String() string {
	if p.inf {
		return "refG2(∞)"
	}
	return fmt.Sprintf("refG2(%v, %v)", p.x, p.y)
}

// SetInfinity sets p to the identity element.
func (p *refG2) SetInfinity() *refG2 {
	p.x, p.y, p.inf = newGFp2(), newGFp2(), true
	return p
}

// IsInfinity reports whether p is the identity element.
func (p *refG2) IsInfinity() bool { return p.inf }

func (p *refG2) Set(a *refG2) *refG2 {
	p.x = newGFp2().Set(a.x)
	p.y = newGFp2().Set(a.y)
	p.inf = a.inf
	return p
}

func (p *refG2) Equal(a *refG2) bool {
	if p.inf || a.inf {
		return p.inf == a.inf
	}
	return p.x.Equal(a.x) && p.y.Equal(a.y)
}

// IsOnCurve reports whether p satisfies the twist equation. It does NOT
// check subgroup membership; see Unmarshal.
func (p *refG2) IsOnCurve() bool {
	if p.inf {
		return true
	}
	y2 := newGFp2().Square(p.y)
	x3 := newGFp2().Square(p.x)
	x3.Mul(x3, p.x)
	x3.Add(x3, twistB)
	return y2.Equal(x3)
}

// Neg sets p = −a.
func (p *refG2) Neg(a *refG2) *refG2 {
	if a.inf {
		return p.SetInfinity()
	}
	p.x = newGFp2().Set(a.x)
	p.y = newGFp2().Neg(a.y)
	p.inf = false
	return p
}

// Add sets p = a + b.
func (p *refG2) Add(a, b *refG2) *refG2 {
	if a.inf {
		return p.Set(b)
	}
	if b.inf {
		return p.Set(a)
	}
	if a.x.Equal(b.x) {
		if !a.y.Equal(b.y) || a.y.IsZero() {
			return p.SetInfinity()
		}
		return p.Double(a)
	}
	lambda := newGFp2().Sub(b.y, a.y)
	lambda.Mul(lambda, newGFp2().Invert(newGFp2().Sub(b.x, a.x)))
	x3 := newGFp2().Square(lambda)
	x3.Sub(x3, a.x)
	x3.Sub(x3, b.x)
	y3 := newGFp2().Sub(a.x, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// Double sets p = 2a.
func (p *refG2) Double(a *refG2) *refG2 {
	if a.inf || a.y.IsZero() {
		return p.SetInfinity()
	}
	lambda := newGFp2().Square(a.x)
	lambda.MulScalar(lambda, big.NewInt(3))
	den := newGFp2().Add(a.y, a.y)
	lambda.Mul(lambda, newGFp2().Invert(den))
	x3 := newGFp2().Square(lambda)
	x3.Sub(x3, a.x)
	x3.Sub(x3, a.x)
	y3 := newGFp2().Sub(a.x, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// ScalarMult sets p = k·a. The scalar is reduced mod Order.
func (p *refG2) ScalarMult(a *refG2, k *big.Int) *refG2 {
	kr := new(big.Int).Mod(k, Order)
	acc := new(refG2).SetInfinity()
	base := new(refG2).Set(a)
	for i := kr.BitLen() - 1; i >= 0; i-- {
		acc.Double(acc)
		if kr.Bit(i) == 1 {
			acc.Add(acc, base)
		}
	}
	return p.Set(acc)
}

// ScalarBaseMult sets p = k·G2gen.
func (p *refG2) ScalarBaseMult(k *big.Int) *refG2 {
	return p.ScalarMult(refG2Generator(), k)
}

// Marshal encodes p. Infinity encodes as all zeros.
func (p *refG2) Marshal() []byte {
	out := make([]byte, g2MarshalledSize)
	if p.inf {
		return out
	}
	p.x.c0.FillBytes(out[0:32])
	p.x.c1.FillBytes(out[32:64])
	p.y.c0.FillBytes(out[64:96])
	p.y.c1.FillBytes(out[96:128])
	return out
}

// Unmarshal decodes a point previously encoded with Marshal. It validates
// both the curve equation and membership in the order-Order subgroup (the
// twist has composite order, so the subgroup check is required for points
// from untrusted sources).
func (p *refG2) Unmarshal(data []byte) error {
	if len(data) != g2MarshalledSize {
		return errors.New("bn254: wrong refG2 encoding length")
	}
	coords := make([]*big.Int, 4)
	allZero := true
	for i := range coords {
		coords[i] = new(big.Int).SetBytes(data[i*32 : (i+1)*32])
		if coords[i].Sign() != 0 {
			allZero = false
		}
		if coords[i].Cmp(P) >= 0 {
			return errors.New("bn254: refG2 coordinate out of range")
		}
	}
	if allZero {
		p.SetInfinity()
		return nil
	}
	p.x = &gfP2{c0: coords[0], c1: coords[1]}
	p.y = &gfP2{c0: coords[2], c1: coords[3]}
	p.inf = false
	if !p.IsOnCurve() {
		return errors.New("bn254: refG2 point not on twist curve")
	}
	// Order·p by an unreduced ladder: ScalarMult reduces its scalar mod
	// Order, which would turn this check into 0·p = ∞ for every point.
	acc := new(refG2).SetInfinity()
	for i := Order.BitLen() - 1; i >= 0; i-- {
		acc.Double(acc)
		if Order.Bit(i) == 1 {
			acc.Add(acc, p)
		}
	}
	if !acc.IsInfinity() {
		return errors.New("bn254: refG2 point not in prime-order subgroup")
	}
	return nil
}
