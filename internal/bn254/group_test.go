package bn254

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func randScalar(t testing.TB) *big.Int {
	t.Helper()
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestG1GeneratorOnCurve(t *testing.T) {
	if !G1Generator().IsOnCurve() {
		t.Fatal("G1 generator not on curve")
	}
}

func TestG1Order(t *testing.T) {
	if !new(G1).ScalarMult(G1Generator(), Order).IsInfinity() {
		t.Fatal("Order·G1 != ∞")
	}
}

func TestG1GroupLaws(t *testing.T) {
	g := G1Generator()
	a, b := randScalar(t), randScalar(t)
	pa := new(G1).ScalarMult(g, a)
	pb := new(G1).ScalarMult(g, b)

	// commutativity
	if !new(G1).Add(pa, pb).Equal(new(G1).Add(pb, pa)) {
		t.Fatal("G1 addition not commutative")
	}
	// aG + bG == (a+b)G
	sum := new(G1).Add(pa, pb)
	want := new(G1).ScalarMult(g, new(big.Int).Add(a, b))
	if !sum.Equal(want) {
		t.Fatal("aG + bG != (a+b)G")
	}
	// P + (−P) == ∞
	if !new(G1).Add(pa, new(G1).Neg(pa)).IsInfinity() {
		t.Fatal("P + (−P) != ∞")
	}
	// P + ∞ == P
	if !new(G1).Add(pa, new(G1).SetInfinity()).Equal(pa) {
		t.Fatal("P + ∞ != P")
	}
	// 2P == P + P
	if !new(G1).Double(pa).Equal(new(G1).Add(pa, pa)) {
		t.Fatal("Double != Add(P, P)")
	}
	// results stay on the curve
	if !sum.IsOnCurve() {
		t.Fatal("sum left the curve")
	}
}

func TestG1MarshalRoundTrip(t *testing.T) {
	p := new(G1).ScalarBaseMult(randScalar(t))
	q := new(G1)
	if err := q.Unmarshal(p.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(q) {
		t.Fatal("G1 marshal round-trip failed")
	}

	inf := new(G1).SetInfinity()
	q2 := new(G1)
	if err := q2.Unmarshal(inf.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !q2.IsInfinity() {
		t.Fatal("infinity round-trip failed")
	}
}

func TestG1UnmarshalRejectsBadPoints(t *testing.T) {
	if err := new(G1).Unmarshal(g1NonResidueX(t)); err == nil {
		t.Fatal("accepted an x with no curve point")
	}
	good := new(G1).ScalarBaseMult(randScalar(t)).Marshal()
	if err := new(G1).Unmarshal(good[:10]); err == nil {
		t.Fatal("accepted short encoding")
	}
	if err := new(G1).Unmarshal(append(good, good...)); err == nil {
		t.Fatal("accepted a 64-byte encoding")
	}
	// x ≥ P
	tooBig := make([]byte, g1MarshalledSize)
	P.FillBytes(tooBig)
	tooBig[g1MarshalledSize-1] += 2
	if err := new(G1).Unmarshal(tooBig); err == nil {
		t.Fatal("accepted out-of-range coordinate")
	}
	// the infinity flag with anything else set
	for _, bad := range [][]byte{append([]byte{g1FlagInfinity | g1FlagYOdd}, make([]byte, 31)...), append([]byte{g1FlagInfinity}, good[1:]...)} {
		if err := new(G1).Unmarshal(bad); err == nil {
			t.Fatalf("accepted infinity encoding %x", bad)
		}
	}
}

func TestHashToG1(t *testing.T) {
	p := HashToG1("test", []byte("alice@example.org"))
	if !p.IsOnCurve() || p.IsInfinity() {
		t.Fatal("hash produced invalid point")
	}
	q := HashToG1("test", []byte("alice@example.org"))
	if !p.Equal(q) {
		t.Fatal("hash not deterministic")
	}
	r := HashToG1("test", []byte("bob@example.org"))
	if p.Equal(r) {
		t.Fatal("distinct messages hashed to same point")
	}
	s := HashToG1("other-domain", []byte("alice@example.org"))
	if p.Equal(s) {
		t.Fatal("domain separation failed")
	}
}

// TestHashToG2 checks the identity hash of the IBE: on the twist, in the
// prime-order subgroup by the Order ladder, deterministic, and separated
// by message and domain. It also pins the cofactor clearing against the
// slow definition: [h(ψ)]p must be a multiple of p's projection, which
// for a twist point means clearing lands in the subgroup from points that
// start outside it.
func TestHashToG2(t *testing.T) {
	p := HashToG2("test", []byte("alice@example.org"))
	if !p.IsOnCurve() || p.IsInfinity() || !p.isInSubgroup() {
		t.Fatal("hash produced a point outside the prime-order subgroup")
	}
	if !p.Equal(HashToG2("test", []byte("alice@example.org"))) {
		t.Fatal("hash not deterministic")
	}
	if p.Equal(HashToG2("test", []byte("bob@example.org"))) {
		t.Fatal("distinct messages hashed to same point")
	}
	if p.Equal(HashToG2("other-domain", []byte("alice@example.org"))) {
		t.Fatal("domain separation failed")
	}
	for i := 0; i < 4; i++ {
		q := randTwistPoint(t)
		if q.isInSubgroup() {
			continue
		}
		var c G2
		q.clearCofactor(&c)
		if c.IsInfinity() || !c.IsOnCurve() || !c.isInSubgroup() {
			t.Fatalf("cofactor clearing left twist point %v outside the subgroup", q)
		}
	}
}

func TestG2GeneratorOnCurve(t *testing.T) {
	if !G2Generator().IsOnCurve() {
		t.Fatal("G2 generator not on twist")
	}
}

func TestG2Order(t *testing.T) {
	if !new(G2).ScalarMult(G2Generator(), Order).IsInfinity() {
		t.Fatal("Order·G2 != ∞")
	}
}

func TestG2GroupLaws(t *testing.T) {
	g := G2Generator()
	a, b := randScalar(t), randScalar(t)
	pa := new(G2).ScalarMult(g, a)
	pb := new(G2).ScalarMult(g, b)

	if !new(G2).Add(pa, pb).Equal(new(G2).Add(pb, pa)) {
		t.Fatal("G2 addition not commutative")
	}
	sum := new(G2).Add(pa, pb)
	want := new(G2).ScalarMult(g, new(big.Int).Add(a, b))
	if !sum.Equal(want) {
		t.Fatal("aG + bG != (a+b)G in G2")
	}
	if !new(G2).Add(pa, new(G2).Neg(pa)).IsInfinity() {
		t.Fatal("P + (−P) != ∞ in G2")
	}
	if !sum.IsOnCurve() {
		t.Fatal("G2 sum left the twist")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	p := new(G2).ScalarBaseMult(randScalar(t))
	q := new(G2)
	if err := q.Unmarshal(p.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(q) {
		t.Fatal("G2 marshal round-trip failed")
	}
	if !bytes.Equal(p.Marshal(), q.Marshal()) {
		t.Fatal("re-marshal mismatch")
	}
}

func TestG2UnmarshalRejectsBadPoints(t *testing.T) {
	bad := make([]byte, g2MarshalledSize)
	bad[31] = 7
	if err := new(G2).Unmarshal(bad); err == nil {
		t.Fatal("accepted off-twist point")
	}
}

func TestGTMarshalRoundTrip(t *testing.T) {
	g := Pair(G1Generator(), G2Generator())
	h := new(GT)
	if err := h.Unmarshal(g.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("GT marshal round-trip failed")
	}
}

// isInSubgroup reports whether Order·p = ∞ (inversion-free check on the
// Jacobian ladder): the oracle the Galbraith–Scott check and HashToG2 are
// pinned against.
func (p *G2) isInSubgroup() bool {
	var acc g2Jac
	acc.setInfinity()
	for i := Order.BitLen() - 1; i >= 0; i-- {
		acc.double(&acc)
		if Order.Bit(i) == 1 {
			acc.addMixed(&acc, p)
		}
	}
	return acc.isInfinity()
}
