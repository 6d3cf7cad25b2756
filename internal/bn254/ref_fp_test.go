package bn254

import "math/big"

// Base-field helpers of the big.Int REFERENCE backend. All functions
// return values fully reduced mod P; receiver-free helpers keep aliasing
// rules trivial (results are always freshly allocated).
//
// The production arithmetic lives in fe.go (Montgomery limbs). These
// helpers and the gfP2/gfP6/gfP12 towers and refG1/refG2/refGT groups
// built on them are retained as the differential-testing oracle: slow,
// simple, and independent of the limb code's carry chains.

func fpNew() *big.Int { return new(big.Int) }

func fpAdd(a, b *big.Int) *big.Int {
	z := new(big.Int).Add(a, b)
	if z.Cmp(P) >= 0 {
		z.Sub(z, P)
	}
	return z
}

func fpSub(a, b *big.Int) *big.Int {
	z := new(big.Int).Sub(a, b)
	if z.Sign() < 0 {
		z.Add(z, P)
	}
	return z
}

func fpNeg(a *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int)
	}
	return new(big.Int).Sub(P, a)
}

func fpMul(a, b *big.Int) *big.Int {
	z := new(big.Int).Mul(a, b)
	return z.Mod(z, P)
}

func fpSquare(a *big.Int) *big.Int {
	z := new(big.Int).Mul(a, a)
	return z.Mod(z, P)
}

func fpDouble(a *big.Int) *big.Int { return fpAdd(a, a) }

// fpInv returns a⁻¹ mod P. It panics on zero, which would indicate a bug in
// a caller (all callers guard against zero denominators).
func fpInv(a *big.Int) *big.Int {
	if a.Sign() == 0 {
		panic("bn254: inversion of zero")
	}
	return new(big.Int).ModInverse(a, P)
}

func fpExp(a, e *big.Int) *big.Int {
	return new(big.Int).Exp(a, e, P)
}

// fpSqrt returns a square root of a mod P and true, or nil and false if a is
// a quadratic non-residue. P ≡ 3 (mod 4), so the root is a^((P+1)/4); the
// exponent is the hoisted pSqrtExp constant.
func fpSqrt(a *big.Int) (*big.Int, bool) {
	r := fpExp(a, pSqrtExp)
	if fpSquare(r).Cmp(new(big.Int).Mod(a, P)) != 0 {
		return nil, false
	}
	return r, true
}

// curveB is the constant term in the curve equation y² = x³ + curveB.
var curveB = big.NewInt(3)
