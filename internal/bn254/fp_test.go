package bn254

import (
	"crypto/rand"
	"io"
	"math/big"
	"testing"
	"testing/quick"
)

// randFieldElement returns a uniform element of Fp read from r.
func randFieldElement(r io.Reader) (*big.Int, error) {
	return randMod(r, P)
}

// feMulBy9 sets z = 9x, reduced once.
func feMulBy9(z, x *fe) {
	z[0], z[1], z[2], z[3] = feReduce5(feTimes9(x))
}

// GTOne returns the identity element of GT.
func GTOne() *GT {
	g := new(GT)
	g.e.SetOne()
	return g
}

// quickCfg bounds the number of property-test iterations so that the
// big.Int-heavy arithmetic stays fast under `go test`.
var quickCfg = &quick.Config{MaxCount: 20}

func randGFp2(t testing.TB) *gfP2 {
	t.Helper()
	c0, err := randFieldElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := randFieldElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &gfP2{c0: c0, c1: c1}
}

func randGFp6(t testing.TB) *gfP6 {
	t.Helper()
	return &gfP6{c0: randGFp2(t), c1: randGFp2(t), c2: randGFp2(t)}
}

func randGFp12(t testing.TB) *gfP12 {
	t.Helper()
	return &gfP12{c0: randGFp6(t), c1: randGFp6(t)}
}

func TestFpSqrt(t *testing.T) {
	for i := 0; i < 30; i++ {
		a, err := randFieldElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		sq := fpSquare(a)
		r, ok := fpSqrt(sq)
		if !ok {
			t.Fatalf("square %v reported as non-residue", sq)
		}
		if fpSquare(r).Cmp(sq) != 0 {
			t.Fatalf("fpSqrt returned a non-root")
		}
	}
}

func TestFpSqrtNonResidue(t *testing.T) {
	// −1 is a non-residue mod P because P ≡ 3 (mod 4).
	if _, ok := fpSqrt(fpNeg(big.NewInt(1))); ok {
		t.Fatal("-1 must not have a square root mod P")
	}
}

func TestGFp2FieldLaws(t *testing.T) {
	mulComm := func() bool {
		a, b := randGFp2(t), randGFp2(t)
		return newGFp2().Mul(a, b).Equal(newGFp2().Mul(b, a))
	}
	mulAssoc := func() bool {
		a, b, c := randGFp2(t), randGFp2(t), randGFp2(t)
		l := newGFp2().Mul(newGFp2().Mul(a, b), c)
		r := newGFp2().Mul(a, newGFp2().Mul(b, c))
		return l.Equal(r)
	}
	distrib := func() bool {
		a, b, c := randGFp2(t), randGFp2(t), randGFp2(t)
		l := newGFp2().Mul(a, newGFp2().Add(b, c))
		r := newGFp2().Add(newGFp2().Mul(a, b), newGFp2().Mul(a, c))
		return l.Equal(r)
	}
	inverse := func() bool {
		a := randGFp2(t)
		if a.IsZero() {
			return true
		}
		return newGFp2().Mul(a, newGFp2().Invert(a)).IsOne()
	}
	square := func() bool {
		a := randGFp2(t)
		return newGFp2().Square(a).Equal(newGFp2().Mul(a, a))
	}
	for name, prop := range map[string]func() bool{
		"mul-commutative": mulComm,
		"mul-associative": mulAssoc,
		"distributive":    distrib,
		"inverse":         inverse,
		"square-is-mul":   square,
	} {
		if err := quick.Check(prop, quickCfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGFp2SqrtRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		a := randGFp2(t)
		sq := newGFp2().Square(a)
		r := newGFp2()
		if !r.Sqrt(sq) {
			t.Fatal("square of field element reported as non-square")
		}
		if !newGFp2().Square(r).Equal(sq) {
			t.Fatal("Sqrt returned a non-root")
		}
	}
}

func TestGFp2MulXi(t *testing.T) {
	xi := newGFp2().SetInts(big.NewInt(9), big.NewInt(1))
	for i := 0; i < 10; i++ {
		a := randGFp2(t)
		if !newGFp2().MulXi(a).Equal(newGFp2().Mul(a, xi)) {
			t.Fatal("MulXi disagrees with generic multiplication by ξ")
		}
	}
}

func TestGFp6FieldLaws(t *testing.T) {
	mulAssoc := func() bool {
		a, b, c := randGFp6(t), randGFp6(t), randGFp6(t)
		l := newGFp6().Mul(newGFp6().Mul(a, b), c)
		r := newGFp6().Mul(a, newGFp6().Mul(b, c))
		return l.Equal(r)
	}
	inverse := func() bool {
		a := randGFp6(t)
		if a.IsZero() {
			return true
		}
		return newGFp6().Mul(a, newGFp6().Invert(a)).IsOne()
	}
	distrib := func() bool {
		a, b, c := randGFp6(t), randGFp6(t), randGFp6(t)
		l := newGFp6().Mul(a, newGFp6().Add(b, c))
		r := newGFp6().Add(newGFp6().Mul(a, b), newGFp6().Mul(a, c))
		return l.Equal(r)
	}
	for name, prop := range map[string]func() bool{
		"mul-associative": mulAssoc,
		"inverse":         inverse,
		"distributive":    distrib,
	} {
		if err := quick.Check(prop, quickCfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGFp6MulV(t *testing.T) {
	v := newGFp6()
	v.c1.SetOne() // the element v
	for i := 0; i < 10; i++ {
		a := randGFp6(t)
		if !newGFp6().MulV(a).Equal(newGFp6().Mul(a, v)) {
			t.Fatal("MulV disagrees with generic multiplication by v")
		}
	}
}

func TestGFp6VCubedIsXi(t *testing.T) {
	v := newGFp6()
	v.c1.SetOne()
	v3 := newGFp6().Mul(newGFp6().Mul(v, v), v)
	want := newGFp6()
	want.c0.SetInts(big.NewInt(9), big.NewInt(1))
	if !v3.Equal(want) {
		t.Fatalf("v³ = %v, want ξ", v3)
	}
}

func TestGFp12FieldLaws(t *testing.T) {
	mulAssoc := func() bool {
		a, b, c := randGFp12(t), randGFp12(t), randGFp12(t)
		l := newGFp12().Mul(newGFp12().Mul(a, b), c)
		r := newGFp12().Mul(a, newGFp12().Mul(b, c))
		return l.Equal(r)
	}
	inverse := func() bool {
		a := randGFp12(t)
		if a.IsZero() {
			return true
		}
		return newGFp12().Mul(a, newGFp12().Invert(a)).IsOne()
	}
	for name, prop := range map[string]func() bool{
		"mul-associative": mulAssoc,
		"inverse":         inverse,
	} {
		if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGFp12WSquaredIsV(t *testing.T) {
	w := newGFp12()
	w.c1.SetOne() // the element w
	w2 := newGFp12().Mul(w, w)
	want := newGFp12()
	want.c0.c1.SetOne() // the element v
	if !w2.Equal(want) {
		t.Fatalf("w² != v")
	}
}

func TestGFp12ExpLaws(t *testing.T) {
	a := randGFp12(t)
	x, _ := RandomScalar(rand.Reader)
	y, _ := RandomScalar(rand.Reader)
	// a^x · a^y == a^(x+y)
	l := newGFp12().Mul(newGFp12().Exp(a, x), newGFp12().Exp(a, y))
	r := newGFp12().Exp(a, new(big.Int).Add(x, y))
	if !l.Equal(r) {
		t.Fatal("exponent addition law failed")
	}
}
