package bn254

// The pairing laws below run on AtePair, the production pairing; the Tate
// oracle (tate_test.go) is checked against it in ate_test.go and against
// the big.Int reference in differential_test.go.

import (
	"math/big"
	"testing"
)

func TestPairNonDegenerate(t *testing.T) {
	e := AtePair(G1Generator(), G2Generator())
	if e.IsOne() {
		t.Fatal("e(G1, G2) == 1: pairing degenerate")
	}
	// The output must have order dividing Order.
	if !new(GT).Exp(e, Order).IsOne() {
		t.Fatal("pairing output not in order-r subgroup")
	}
}

func TestPairBilinearity(t *testing.T) {
	a := big.NewInt(1234577)
	b := big.NewInt(9876541)

	pa := new(G1).ScalarBaseMult(a)
	qb := new(G2).ScalarBaseMult(b)

	// e(aP, bQ) == e(P, Q)^(ab)
	lhs := AtePair(pa, qb)
	base := AtePair(G1Generator(), G2Generator())
	rhs := new(GT).Exp(base, new(big.Int).Mul(a, b))
	if !lhs.Equal(rhs) {
		t.Fatal("e(aP, bQ) != e(P,Q)^(ab)")
	}

	// e(aP, Q) == e(P, aQ)
	l2 := AtePair(pa, G2Generator())
	r2 := AtePair(G1Generator(), new(G2).ScalarBaseMult(a))
	if !l2.Equal(r2) {
		t.Fatal("e(aP, Q) != e(P, aQ)")
	}
}

func TestPairAdditivity(t *testing.T) {
	// e(P1 + P2, Q) == e(P1, Q)·e(P2, Q) — this is the property
	// Anytrust-IBE and BLS multisignatures rely on.
	p1 := new(G1).ScalarBaseMult(big.NewInt(111))
	p2 := new(G1).ScalarBaseMult(big.NewInt(222))
	q := G2Generator()

	lhs := AtePair(new(G1).Add(p1, p2), q)
	rhs := new(GT).Mul(AtePair(p1, q), AtePair(p2, q))
	if !lhs.Equal(rhs) {
		t.Fatal("pairing not additive in first argument")
	}

	// and in the second argument: e(P, Q1 + Q2) == e(P, Q1)·e(P, Q2)
	q1 := new(G2).ScalarBaseMult(big.NewInt(333))
	q2 := new(G2).ScalarBaseMult(big.NewInt(444))
	p := G1Generator()
	lhs2 := AtePair(p, new(G2).Add(q1, q2))
	rhs2 := new(GT).Mul(AtePair(p, q1), AtePair(p, q2))
	if !lhs2.Equal(rhs2) {
		t.Fatal("pairing not additive in second argument")
	}
}

func TestPairWithInfinity(t *testing.T) {
	if !AtePair(new(G1).SetInfinity(), G2Generator()).IsOne() {
		t.Fatal("e(∞, Q) != 1")
	}
	if !AtePair(G1Generator(), new(G2).SetInfinity()).IsOne() {
		t.Fatal("e(P, ∞) != 1")
	}
}

func TestPairingCheck(t *testing.T) {
	// e(aP, Q)·e(−aP, Q) == 1
	a := big.NewInt(424242)
	pa := new(G1).ScalarBaseMult(a)
	na := new(G1).Neg(pa)
	if !PairingCheck([]*G1{pa, na}, []*G2{G2Generator(), G2Generator()}) {
		t.Fatal("PairingCheck failed on cancelling pair")
	}
	if PairingCheck([]*G1{pa, pa}, []*G2{G2Generator(), G2Generator()}) {
		t.Fatal("PairingCheck accepted non-cancelling pair")
	}
	if PairingCheck([]*G1{pa}, []*G2{}) {
		t.Fatal("PairingCheck accepted mismatched lengths")
	}
}

func BenchmarkPairing(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}

func BenchmarkG1ScalarMult(b *testing.B) {
	k, _ := RandomScalar(zeroReader{})
	_ = k
	k = big.NewInt(0).SetBytes([]byte("arbitrary-bench-scalar-32bytes!!"))
	g := G1Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).ScalarMult(g, k)
	}
}

// zeroReader is an io.Reader of zeros used where deterministic scalars are
// fine for benchmarks.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 1
	}
	return len(p), nil
}
