package bn254

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// refG1 is a point on E(Fp): y² = x³ + 3, in affine coordinates. The zero value
// is NOT valid; use new(refG1).SetInfinity(), refG1Generator(), or an operation
// that sets the receiver. E(Fp) has prime order Order, so every curve point
// other than infinity generates the full group.
type refG1 struct {
	x, y *big.Int
	inf  bool
}

// refG1Generator returns the conventional generator (1, 2).
func refG1Generator() *refG1 {
	return &refG1{x: big.NewInt(1), y: big.NewInt(2)}
}

func (p *refG1) String() string {
	if p.inf {
		return "refG1(∞)"
	}
	return fmt.Sprintf("refG1(%v, %v)", p.x, p.y)
}

// SetInfinity sets p to the identity element.
func (p *refG1) SetInfinity() *refG1 {
	p.x, p.y, p.inf = new(big.Int), new(big.Int), true
	return p
}

// IsInfinity reports whether p is the identity element.
func (p *refG1) IsInfinity() bool { return p.inf }

func (p *refG1) Set(a *refG1) *refG1 {
	p.x = new(big.Int).Set(a.x)
	p.y = new(big.Int).Set(a.y)
	p.inf = a.inf
	return p
}

func (p *refG1) Equal(a *refG1) bool {
	if p.inf || a.inf {
		return p.inf == a.inf
	}
	return p.x.Cmp(a.x) == 0 && p.y.Cmp(a.y) == 0
}

// IsOnCurve reports whether p satisfies y² = x³ + 3 (infinity counts as on
// the curve).
func (p *refG1) IsOnCurve() bool {
	if p.inf {
		return true
	}
	y2 := fpSquare(p.y)
	x3 := fpMul(fpSquare(p.x), p.x)
	return y2.Cmp(fpAdd(x3, curveB)) == 0
}

// Neg sets p = −a.
func (p *refG1) Neg(a *refG1) *refG1 {
	if a.inf {
		return p.SetInfinity()
	}
	p.x = new(big.Int).Set(a.x)
	p.y = fpNeg(a.y)
	p.inf = false
	return p
}

// Add sets p = a + b using affine chord-and-tangent formulas.
func (p *refG1) Add(a, b *refG1) *refG1 {
	if a.inf {
		return p.Set(b)
	}
	if b.inf {
		return p.Set(a)
	}
	if a.x.Cmp(b.x) == 0 {
		if a.y.Cmp(b.y) != 0 || a.y.Sign() == 0 {
			// a = −b (or a = b with y = 0, impossible here since
			// x³+3=0 has no roots paired with y=0 on this curve,
			// but handle it anyway).
			return p.SetInfinity()
		}
		return p.Double(a)
	}
	// λ = (by − ay) / (bx − ax)
	lambda := fpMul(fpSub(b.y, a.y), fpInv(fpSub(b.x, a.x)))
	x3 := fpSub(fpSub(fpSquare(lambda), a.x), b.x)
	y3 := fpSub(fpMul(lambda, fpSub(a.x, x3)), a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// Double sets p = 2a.
func (p *refG1) Double(a *refG1) *refG1 {
	if a.inf || a.y.Sign() == 0 {
		return p.SetInfinity()
	}
	// λ = 3ax² / 2ay
	three := big.NewInt(3)
	lambda := fpMul(fpMul(three, fpSquare(a.x)), fpInv(fpDouble(a.y)))
	x3 := fpSub(fpSquare(lambda), fpDouble(a.x))
	y3 := fpSub(fpMul(lambda, fpSub(a.x, x3)), a.y)
	p.x, p.y, p.inf = x3, y3, false
	return p
}

// ScalarMult sets p = k·a. The scalar is reduced mod Order.
func (p *refG1) ScalarMult(a *refG1, k *big.Int) *refG1 {
	kr := new(big.Int).Mod(k, Order)
	acc := new(refG1).SetInfinity()
	base := new(refG1).Set(a)
	for i := kr.BitLen() - 1; i >= 0; i-- {
		acc.Double(acc)
		if kr.Bit(i) == 1 {
			acc.Add(acc, base)
		}
	}
	return p.Set(acc)
}

// ScalarBaseMult sets p = k·G where G is the conventional generator.
func (p *refG1) ScalarBaseMult(k *big.Int) *refG1 {
	return p.ScalarMult(refG1Generator(), k)
}

// Marshal encodes p compressed, as G1.Marshal does: x big-endian, bit 6
// of the first byte set when y is odd, and infinity as 0x80 then zeros.
func (p *refG1) Marshal() []byte {
	out := make([]byte, g1MarshalledSize)
	if p.inf {
		out[0] = g1FlagInfinity
		return out
	}
	p.x.FillBytes(out)
	if p.y.Bit(0) == 1 {
		out[0] |= g1FlagYOdd
	}
	return out
}

// Unmarshal decodes a compressed point, recovering y with fpSqrt and
// rejecting what G1.Unmarshal rejects.
func (p *refG1) Unmarshal(data []byte) error {
	if len(data) != g1MarshalledSize {
		return errors.New("bn254: wrong refG1 encoding length")
	}
	if data[0]&g1FlagInfinity != 0 {
		rest := new(big.Int).SetBytes(data[1:])
		if data[0] != g1FlagInfinity || rest.Sign() != 0 {
			return errors.New("bn254: refG1 infinity encoding has other bits set")
		}
		p.SetInfinity()
		return nil
	}
	odd := data[0]&g1FlagYOdd != 0
	x := new(big.Int).SetBytes(data)
	x.SetBit(x, 8*g1MarshalledSize-2, 0)
	if x.Cmp(P) >= 0 {
		return errors.New("bn254: refG1 coordinate out of range")
	}
	rhs := new(big.Int).Exp(x, big.NewInt(3), P)
	rhs.Add(rhs, curveB)
	y, ok := fpSqrt(rhs)
	if !ok {
		return errors.New("bn254: refG1 x is not on the curve")
	}
	if (y.Bit(0) == 1) != odd {
		y.Sub(P, y)
	}
	p.x, p.y, p.inf = x, y, false
	return nil
}

// refHashToG1 hashes an arbitrary message to a curve point using domain-
// separated try-and-increment. Because E(Fp) has prime order, the result is
// always a generator of refG1 (unless the negligible-probability identity is
// hit, which is rejected).
func refHashToG1(domain string, msg []byte) *refG1 {
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
		x := new(big.Int).SetBytes(digest)
		x.Mod(x, P)
		y2 := fpAdd(fpMul(fpSquare(x), x), curveB)
		y, ok := fpSqrt(y2)
		if !ok {
			continue
		}
		// Choose the root deterministically from the hash so that the
		// map is a function of (domain, msg) alone.
		if digest[0]&1 == 1 {
			y = fpNeg(y)
		}
		if y.Sign() == 0 && x.Sign() == 0 {
			continue
		}
		return &refG1{x: x, y: y}
	}
}
