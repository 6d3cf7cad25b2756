package bn254

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestAteBilinearity pins the optimal-ate loop against the known-scalar
// bilinearity law on both pairings: AtePair(aP, bQ) = AtePair(P, Q)^(ab)
// and the same for the retained Tate oracle. This is the testable half of
// the fixed-exponent relation e_ate = e_tate^κ: both sides are reduced
// pairings on the same groups, so agreeing with bilinearity everywhere
// forces a fixed κ (κ itself is a ~3000-bit curve constant nobody needs).
func TestAteBilinearity(t *testing.T) {
	p, q := G1Generator(), G2Generator()
	gA := AtePair(p, q)
	gT := Pair(p, q)
	if gA.IsOne() {
		t.Fatal("ate pairing is degenerate on the generators")
	}
	if gA.Equal(gT) {
		t.Fatal("ate and tate values coincide on the generators; κ = 1 means the loops are not distinct")
	}
	for i := 0; i < 4; i++ {
		a, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var ap G1
		var bq G2
		ap.ScalarMult(p, a)
		bq.ScalarMult(q, b)
		ab := new(big.Int).Mul(a, b)
		ab.Mod(ab, Order)
		if !AtePair(&ap, &bq).Equal(new(GT).Exp(gA, ab)) {
			t.Fatalf("ate bilinearity failed on trial %d", i)
		}
		if !Pair(&ap, &bq).Equal(new(GT).Exp(gT, ab)) {
			t.Fatalf("tate oracle bilinearity failed on trial %d", i)
		}
	}
}

// TestAtePairIdentity checks the identity conventions: infinity in either
// argument (and an erased precomputation) pairs to the identity of GT,
// matching Pair.
func TestAtePairIdentity(t *testing.T) {
	p, q := G1Generator(), G2Generator()
	inf1 := new(G1).SetInfinity()
	inf2 := new(G2).SetInfinity()
	if !AtePair(inf1, q).IsOne() || !AtePair(p, inf2).IsOne() || !AtePair(inf1, inf2).IsOne() {
		t.Fatal("AtePair with infinity is not the identity")
	}
	pre := AtePrecomputeG2(q)
	if !pre.Pair(inf1).IsOne() {
		t.Fatal("precomputed AtePair with infinite P is not the identity")
	}
	pre.Erase()
	if !pre.Pair(p).IsOne() {
		t.Fatal("erased AtePrecomputedG2 does not pair to the identity")
	}
	if !AtePrecomputeG2(inf2).Pair(p).IsOne() {
		t.Fatal("precomputation of infinity does not pair to the identity")
	}
}

// TestAtePrecomputeReplay pins the monic line-table replay, through both
// AtePair and the fixed-G2 handle, against the on-the-fly Miller loop
// (ate_fly_test.go) on random points: the reduced values must be
// identical, the Fp2 and Fp factors the replay divides out dying in the
// final exponentiation.
func TestAtePrecomputeReplay(t *testing.T) {
	for i := 0; i < 4; i++ {
		a, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		p := new(G1).ScalarBaseMult(a)
		q := new(G2).ScalarBaseMult(b)
		var f fe12
		ateMillerInto(&f, &p.x, &p.y, q)
		want := finalExpDecomp(&f, &f)
		if got := AtePair(p, q); !got.e.Equal(want) {
			t.Fatalf("AtePair disagrees with the on-the-fly loop on trial %d", i)
		}
		if got := AtePrecomputeG2(q).Pair(p); !got.e.Equal(want) {
			t.Fatalf("AtePrecomputedG2.Pair disagrees with the on-the-fly loop on trial %d", i)
		}
	}
}

// TestPairMarshalledMatchesUnmarshalPair pins the fused decode-and-pair
// of a mailbox scan to Unmarshal then Pair on every shape of G1 encoding
// (g1TestEncodings): the same accept/reject and the same pairing value,
// against a key's table and against the identity's.
func TestPairMarshalledMatchesUnmarshalPair(t *testing.T) {
	tables := []*AtePrecomputedG2{
		AtePrecomputeG2(new(G2).ScalarBaseMult(randScalar(t))),
		AtePrecomputeG2(new(G2).SetInfinity()),
	}
	for _, data := range g1TestEncodings(t) {
		var p G1
		errU := p.Unmarshal(data)
		for i, pc := range tables {
			got, err := pc.PairMarshalled(data)
			if (err == nil) != (errU == nil) {
				t.Fatalf("table %d, %x: PairMarshalled err=%v, Unmarshal err=%v", i, data, err, errU)
			}
			if err == nil && !got.Equal(pc.Pair(&p)) {
				t.Fatalf("table %d, %x: PairMarshalled differs from Unmarshal then Pair", i, data)
			}
		}
	}
}

// TestGSSubgroupDifferential pins the Galbraith–Scott short-vector check
// against the generic Order ladder: identical accept/reject on subgroup
// points, random twist points outside the subgroup, and infinity.
func TestGSSubgroupDifferential(t *testing.T) {
	for i := 0; i < 10; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		q := new(G2).ScalarBaseMult(k)
		if !q.isInSubgroupGS() {
			t.Fatalf("GS check rejected subgroup point %v·G2", k)
		}
	}
	// Off-subgroup twist points, checked directly and through Unmarshal,
	// which runs the GS check on untrusted encodings: both must agree with
	// the Order ladder, and with the big.Int reference decoder.
	for i := 0; i < 10; i++ {
		p := randTwistPoint(t)
		ladder := p.isInSubgroup()
		gs := p.isInSubgroupGS()
		if ladder != gs {
			t.Fatalf("subgroup check disagreement on twist point %v: ladder=%v GS=%v", p, ladder, gs)
		}
		raw := p.Marshal()
		uerr := new(G2).Unmarshal(raw)
		rerr := new(refG2).Unmarshal(raw)
		if (uerr == nil) != ladder || (rerr == nil) != ladder {
			t.Fatalf("Unmarshal disagrees with the Order ladder on twist point %v: ladder=%v Unmarshal err=%v ref err=%v", p, ladder, uerr, rerr)
		}
	}
	for i := 0; i < 4; i++ {
		q := new(G2).ScalarBaseMult(randScalar(t))
		var back G2
		if err := back.Unmarshal(q.Marshal()); err != nil || !back.Equal(q) {
			t.Fatalf("Unmarshal rejected or changed subgroup point %v: %v", q, err)
		}
	}
	if !new(G2).SetInfinity().isInSubgroupGS() {
		t.Fatal("GS check rejected infinity")
	}
	// Small-multiple sanity: the generator and its doubles are in the
	// subgroup.
	for _, k := range []int64{1, 2, 3, 17} {
		q := new(G2).ScalarBaseMult(big.NewInt(k))
		if !q.isInSubgroupGS() {
			t.Fatalf("GS check rejected %d·G2", k)
		}
	}
}

func BenchmarkAtePair(b *testing.B) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	p := new(G1).ScalarBaseMult(k)
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AtePair(p, q)
	}
}

// TestAtePairingCheckDifferential pins the production pairing-product check
// against the Tate PairingCheck oracle: identical accept/reject on random
// valid tuples of 2-4 pairs, on the same tuples with a single scalar bit
// flipped, with infinity substituted on either side of a pair, on the empty
// product and on mismatched lengths — with line tables built fresh per call
// and with tables built once and replayed across calls (the BLS pattern,
// where −G2 and the verification key are fixed).
func TestAtePairingCheckDifferential(t *testing.T) {
	scalar := func() *big.Int {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	fresh := func(qs []*G2) []*AtePrecomputedG2 {
		tables := make([]*AtePrecomputedG2, len(qs))
		for i, q := range qs {
			tables[i] = AtePrecomputeG2(q)
		}
		return tables
	}
	agree := func(name string, ps []*G1, qs []*G2, kept []*AtePrecomputedG2, want bool) {
		t.Helper()
		oracle := PairingCheck(ps, qs)
		if oracle != want {
			t.Fatalf("%s: tate oracle = %v, want %v", name, oracle, want)
		}
		if got := AtePairingCheck(ps, fresh(qs)); got != want {
			t.Fatalf("%s: ate check with fresh tables = %v, want %v", name, got, want)
		}
		for pass := 0; pass < 2; pass++ {
			if got := AtePairingCheck(ps, kept); got != want {
				t.Fatalf("%s: ate check replaying kept tables (pass %d) = %v, want %v", name, pass, got, want)
			}
		}
	}

	for n := 2; n <= 4; n++ {
		// ∏ e(aᵢ·G1, bᵢ·G2) = 1 ⇔ Σ aᵢbᵢ ≡ 0: the last pair cancels the rest.
		as := make([]*big.Int, n)
		ps := make([]*G1, n)
		qs := make([]*G2, n)
		sum := new(big.Int)
		for i := 0; i < n-1; i++ {
			as[i] = scalar()
			b := scalar()
			ps[i] = new(G1).ScalarBaseMult(as[i])
			qs[i] = new(G2).ScalarBaseMult(b)
			sum.Add(sum, new(big.Int).Mul(as[i], b))
		}
		as[n-1] = sum.Neg(sum).Mod(sum, Order)
		ps[n-1] = new(G1).ScalarBaseMult(as[n-1])
		qs[n-1] = G2Generator()
		kept := fresh(qs)
		agree("valid", ps, qs, kept, true)

		// One flipped scalar bit in any single pair breaks the product.
		for i := range ps {
			forged := append([]*G1(nil), ps...)
			bit := new(big.Int).Lsh(big.NewInt(1), uint(7*i+3))
			forged[i] = new(G1).ScalarBaseMult(new(big.Int).Xor(as[i], bit))
			agree("forged G1", forged, qs, kept, false)
		}

		// Infinity on either side drops that pair's factor: what remains
		// no longer cancels.
		holed := append([]*G1(nil), ps...)
		holed[0] = new(G1).SetInfinity()
		agree("infinite G1", holed, qs, kept, false)
		holedQ := append([]*G2(nil), qs...)
		holedQ[n-1] = new(G2).SetInfinity()
		keptQ := append([]*AtePrecomputedG2(nil), kept...)
		keptQ[n-1] = AtePrecomputeG2(holedQ[n-1])
		agree("infinite G2", ps, holedQ, keptQ, false)

		// ...while identity pairs added to a valid tuple change nothing.
		padP := append(append([]*G1(nil), ps...), new(G1).SetInfinity(), ps[0])
		padQ := append(append([]*G2(nil), qs...), qs[0], new(G2).SetInfinity())
		agree("identity padding", padP, padQ, fresh(padQ), true)

		if PairingCheck(ps[:n-1], qs) || AtePairingCheck(ps[:n-1], kept) {
			t.Fatal("mismatched lengths accepted")
		}
	}
	agree("empty product", nil, nil, nil, true)
	inf1, inf2 := new(G1).SetInfinity(), new(G2).SetInfinity()
	agree("all identity", []*G1{inf1, G1Generator()}, []*G2{G2Generator(), inf2},
		fresh([]*G2{G2Generator(), inf2}), true)
	agree("single nontrivial pair", []*G1{G1Generator()}, []*G2{G2Generator()},
		fresh([]*G2{G2Generator()}), false)
}

// TestAtePairingCheckSpeedupPin guards BLS verification's pairing check:
// AtePairingCheck replaying kept line tables must beat the Tate oracle
// check (PairingCheck on the same two pairs) by a clear margin — a shared
// 65-iteration loop against two 254-iteration ones. The floor is 2x, so
// scheduler noise cannot flake the suite while a real regression (an
// unshared loop, the windowed final exponentiation) still trips it.
// Skipped in -short mode.
func TestAtePairingCheckSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// e(H, pk)·e(σ, −G2) with σ = k·H and pk = k·G2: a valid BLS tuple.
	h := HashToG1("pin", []byte("pkg attests bob@example.org at round 42"))
	ps := []*G1{new(G1).ScalarMult(h, k), h}
	qs := []*G2{new(G2).Neg(G2Generator()), new(G2).ScalarBaseMult(k)}
	kept := []*AtePrecomputedG2{AtePrecomputeG2(qs[0]), AtePrecomputeG2(qs[1])}
	if !AtePairingCheck(ps, kept) || !PairingCheck(ps, qs) {
		t.Fatal("valid tuple rejected")
	}

	best := bestInterleaved(15,
		func() { AtePairingCheck(ps, kept) },
		func() { PairingCheck(ps, qs) })
	ate, tate := best[0], best[1]
	if ate*2 > tate {
		t.Errorf("ate check %v is under 2x the tate oracle check %v (ratio %.2fx)",
			ate, tate, float64(tate)/float64(ate))
	}
	t.Logf("ate check %v vs tate oracle check %v: %.2fx", ate, tate, float64(tate)/float64(ate))
}

// TestAteLineTableLength pins the table layout the replay assumes: a
// precomputed table holds exactly ateNumLines lines in a slice of that
// size, and AtePair and AtePrecomputedG2.Pair keep their tables and Fp12
// values on the stack: at most the GT they return reaches the heap, and
// none does when it stays local to an inlining caller.
func TestAteLineTableLength(t *testing.T) {
	pre := AtePrecomputeG2(G2Generator())
	if len(pre.lines) != ateNumLines || cap(pre.lines) != ateNumLines {
		t.Fatalf("line table has len %d cap %d, want %d", len(pre.lines), cap(pre.lines), ateNumLines)
	}
	p, q := G1Generator(), G2Generator()
	if allocs := testing.AllocsPerRun(3, func() { AtePair(p, q) }); allocs > 1 {
		t.Fatalf("AtePair allocates %v times, want at most 1 (its result)", allocs)
	}
	if allocs := testing.AllocsPerRun(3, func() { pre.Pair(p) }); allocs > 1 {
		t.Fatalf("AtePrecomputedG2.Pair allocates %v times, want at most 1 (its result)", allocs)
	}
}
