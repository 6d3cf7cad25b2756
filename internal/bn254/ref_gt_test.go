package bn254

import (
	"errors"
	"math/big"
)

// refGT is an element of the order-Order subgroup of Fp12*, the target group of
// the pairing. The zero value is NOT valid; use refGTOne(), refPair, or an
// operation that sets the receiver.
type refGT struct {
	e *gfP12
}

// refGTOne returns the identity element of refGT.
func refGTOne() *refGT {
	return &refGT{e: newGFp12().SetOne()}
}

func (g *refGT) String() string { return g.e.String() }

func (g *refGT) Set(a *refGT) *refGT {
	g.e = newGFp12().Set(a.e)
	return g
}

// IsOne reports whether g is the identity.
func (g *refGT) IsOne() bool { return g.e.IsOne() }

func (g *refGT) Equal(a *refGT) bool { return g.e.Equal(a.e) }

// Mul sets g = a·b (the refGT group operation).
func (g *refGT) Mul(a, b *refGT) *refGT {
	g.e = newGFp12().Mul(a.e, b.e)
	return g
}

// Invert sets g = a⁻¹.
func (g *refGT) Invert(a *refGT) *refGT {
	g.e = newGFp12().Invert(a.e)
	return g
}

// Exp sets g = a^k. The exponent is reduced mod Order.
func (g *refGT) Exp(a *refGT, k *big.Int) *refGT {
	kr := new(big.Int).Mod(k, Order)
	g.e = newGFp12().Exp(a.e, kr)
	return g
}

// coeffs returns the twelve Fp coefficients of g in a fixed order.
func (g *refGT) coeffs() []*big.Int {
	return []*big.Int{
		g.e.c0.c0.c0, g.e.c0.c0.c1,
		g.e.c0.c1.c0, g.e.c0.c1.c1,
		g.e.c0.c2.c0, g.e.c0.c2.c1,
		g.e.c1.c0.c0, g.e.c1.c0.c1,
		g.e.c1.c1.c0, g.e.c1.c1.c1,
		g.e.c1.c2.c0, g.e.c1.c2.c1,
	}
}

// Marshal encodes g as twelve 32-byte big-endian coefficients.
func (g *refGT) Marshal() []byte {
	out := make([]byte, gtMarshalledSize)
	for i, c := range g.coeffs() {
		c.FillBytes(out[i*32 : (i+1)*32])
	}
	return out
}

// Unmarshal decodes an element encoded with Marshal. It checks coefficient
// ranges but not subgroup membership (checking would cost a full Order-sized
// exponentiation; protocol code never accepts raw refGT elements from
// untrusted sources).
func (g *refGT) Unmarshal(data []byte) error {
	if len(data) != gtMarshalledSize {
		return errors.New("bn254: wrong refGT encoding length")
	}
	g.e = newGFp12()
	for i, c := range g.coeffs() {
		c.SetBytes(data[i*32 : (i+1)*32])
		if c.Cmp(P) >= 0 {
			return errors.New("bn254: refGT coefficient out of range")
		}
	}
	return nil
}
