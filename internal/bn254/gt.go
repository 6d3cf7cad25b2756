package bn254

import (
	"errors"
	"math/big"
)

// GT is an element of the order-Order subgroup of Fp12*, the target group of
// the pairing. The zero value is NOT valid; use AtePair or an operation
// that sets the receiver.
type GT struct {
	e fe12
}

func (g *GT) String() string { return g.e.String() }

func (g *GT) Set(a *GT) *GT {
	g.e = a.e
	return g
}

// IsOne reports whether g is the identity.
func (g *GT) IsOne() bool { return g.e.IsOne() }

func (g *GT) Equal(a *GT) bool { return g.e.Equal(&a.e) }

// Mul sets g = a·b (the GT group operation).
func (g *GT) Mul(a, b *GT) *GT {
	g.e.Mul(&a.e, &b.e)
	return g
}

// Invert sets g = a⁻¹.
func (g *GT) Invert(a *GT) *GT {
	g.e.Invert(&a.e)
	return g
}

// Exp sets g = a^k. The exponent is reduced mod Order.
func (g *GT) Exp(a *GT, k *big.Int) *GT {
	kr := new(big.Int).Mod(k, Order)
	g.e.Exp(&a.e, kr)
	return g
}

// gtMarshalledSize is the size of a marshalled GT element: twelve 32-byte
// Fp coefficients.
const gtMarshalledSize = 384

// coeffs returns pointers to the twelve Fp coefficients of g in the fixed
// marshaling order shared with the reference backend.
func (g *GT) coeffs() [12]*fe {
	return [12]*fe{
		&g.e.c0.c0.c0, &g.e.c0.c0.c1,
		&g.e.c0.c1.c0, &g.e.c0.c1.c1,
		&g.e.c0.c2.c0, &g.e.c0.c2.c1,
		&g.e.c1.c0.c0, &g.e.c1.c0.c1,
		&g.e.c1.c1.c0, &g.e.c1.c1.c1,
		&g.e.c1.c2.c0, &g.e.c1.c2.c1,
	}
}

// Marshal encodes g as twelve 32-byte big-endian coefficients.
func (g *GT) Marshal() []byte {
	return g.AppendMarshal(make([]byte, 0, gtMarshalledSize))
}

// AppendMarshal appends the Marshal encoding of g to dst and returns the
// extended slice. Passing a buffer with spare capacity makes the encoding
// allocation-free — a trial decryption derives its key this way.
func (g *GT) AppendMarshal(dst []byte) []byte {
	var buf [32]byte
	for _, c := range g.coeffs() {
		feBytes(c, &buf)
		dst = append(dst, buf[:]...)
	}
	return dst
}

// Unmarshal decodes an element encoded with Marshal. It checks coefficient
// ranges but not subgroup membership (checking would cost a full Order-sized
// exponentiation; protocol code never accepts raw GT elements from
// untrusted sources).
func (g *GT) Unmarshal(data []byte) error {
	if len(data) != gtMarshalledSize {
		return errors.New("bn254: wrong GT encoding length")
	}
	for i, c := range g.coeffs() {
		if !feSetBytes(c, data[i*32:(i+1)*32]) {
			return errors.New("bn254: GT coefficient out of range")
		}
	}
	return nil
}
