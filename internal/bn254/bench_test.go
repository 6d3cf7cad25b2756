package bn254

import (
	"crypto/rand"
	"testing"
	"time"
)

// bestInterleaved runs the functions in alternation, trials rounds of
// them, and returns each one's best wall time. The relative pins compare
// minima taken over the same stretch of time: when what the machine gives
// the test drifts — another package's tests, another container — the drift
// lands on both sides of the ratio, not on whichever phase ran second.
func bestInterleaved(trials int, fs ...func()) []time.Duration {
	best := make([]time.Duration, len(fs))
	for i := range best {
		best[i] = 1<<63 - 1
	}
	for t := 0; t < trials; t++ {
		for i, f := range fs {
			start := time.Now()
			f()
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

// TestLimbBackendSpeedupPin is the regression guard for the Montgomery
// limb backend: a full limb pairing must run at least 5x faster than the
// retained big.Int reference ON THE SAME MACHINE, measured back-to-back in
// one test. The measured ratio is ~30-50x, so the 5x floor has a wide
// non-flakiness margin while still catching a silent fallback to big.Int
// (or an accidentally quadratic limb path). Skipped in -short mode (the
// race-detector CI lane) where instrumentation skews both sides.
func TestLimbBackendSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := new(G1).ScalarBaseMult(k)
	q := new(G2).ScalarBaseMult(k)
	refP := new(refG1).ScalarBaseMult(k)
	refQ := new(refG2).ScalarBaseMult(k)

	best := bestInterleaved(2, func() { Pair(p, q) }, func() { refPair(refP, refQ) })
	limb, ref := best[0], best[1]

	const floor = 5
	if limb*floor > ref {
		t.Fatalf("limb pairing %v is under %dx the big.Int reference %v (ratio %.1fx)",
			limb, floor, ref, float64(ref)/float64(limb))
	}
	t.Logf("limb pairing %v vs big.Int reference %v: %.1fx", limb, ref, float64(ref)/float64(limb))
}

func BenchmarkFeMul(b *testing.B) {
	k, _ := randFieldElement(rand.Reader)
	var x, z fe
	feFromBig(&x, k)
	z = x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMul(&z, &z, &x)
	}
}

func BenchmarkFeSquare(b *testing.B) {
	_, z := randFe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSquare(&z, &z)
	}
}

func BenchmarkFeAdd(b *testing.B) {
	_, x := randFe(b)
	z := x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feAdd(&z, &z, &x)
	}
}

func BenchmarkFeSub(b *testing.B) {
	_, x := randFe(b)
	z := x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSub(&z, &x, &z)
	}
}

func BenchmarkFeMulWideReduce(b *testing.B) {
	_, x := randFe(b)
	z := x
	var w feWide
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMulWide(&w, &z, &x)
		feMontReduce(&z, &w)
	}
}

func BenchmarkFe2Mul(b *testing.B) {
	x := fe2FromRef(randRefGFp2(b))
	z := x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&z, &x)
	}
}

func BenchmarkFe2Square(b *testing.B) {
	z := fe2FromRef(randRefGFp2(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Square(&z)
	}
}

func BenchmarkFe6Mul(b *testing.B) {
	x := fe6{fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b))}
	z := x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&z, &x)
	}
}

func BenchmarkFe12Square(b *testing.B) {
	x := fe6{fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b))}
	z := fe12{x, x}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Square(&z)
	}
}

func BenchmarkFe12CyclotomicSquare(b *testing.B) {
	x := fe6{fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b))}
	z := fe12{x, x}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.CyclotomicSquare(&z)
	}
}

func BenchmarkFe12MulAteLine(b *testing.B) {
	x := fe6{fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b))}
	z := fe12{x, x}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.MulAteLine(&z, &x.c0, &x.c1, &x.c2)
	}
}

func BenchmarkFpMulRef(b *testing.B) {
	k, _ := randFieldElement(rand.Reader)
	z := fpMul(k, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z = fpMul(z, k)
	}
	_ = z
}

func BenchmarkPair(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	p := new(G1).ScalarBaseMult(k)
	q := new(G2).ScalarBaseMult(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}

func BenchmarkPairRef(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	p := new(refG1).ScalarBaseMult(k)
	q := new(refG2).ScalarBaseMult(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refPair(p, q)
	}
}

// BenchmarkG1Unmarshal times the compressed-point decode every mailbox
// entry's ciphertext element goes through: one feSqrt of x³ + 3.
func BenchmarkG1Unmarshal(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	data := new(G1).ScalarBaseMult(k).Marshal()
	var p G1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG2Unmarshal(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	data := new(G2).ScalarBaseMult(k).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := new(G2).Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG2ScalarBaseMult(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	p := new(G2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScalarBaseMult(k)
	}
}

func BenchmarkHashToG1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashToG1("bench", []byte{byte(i), byte(i >> 8)})
	}
}

func BenchmarkHashToG2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashToG2("bench", []byte{byte(i), byte(i >> 8)})
	}
}

func BenchmarkFe12MulAteLineMonic(b *testing.B) {
	x := fe6{fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b))}
	z := fe12{x, x}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.mulAteLineMonic(&z, &x.c1, &x.c2)
	}
}

func BenchmarkFe12Mul(b *testing.B) {
	x := fe6{fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b)), fe2FromRef(randRefGFp2(b))}
	z := fe12{x, x}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&z, &z)
	}
}

// cycloBenchInput returns a random element of the cyclotomic subgroup:
// a pairing value before its hard part, where cycloExpU runs.
func cycloBenchInput(b *testing.B) *fe12 {
	b.Helper()
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	var t fe12
	t.Set(&AtePair(new(G1).ScalarBaseMult(k), G2Generator()).e)
	return &t
}

// BenchmarkCycloExpU times one exponentiation by u in the cyclotomic
// subgroup: three of them make up most of the final exponentiation's hard
// part.
func BenchmarkCycloExpU(b *testing.B) {
	a := cycloBenchInput(b)
	var z fe12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.cycloExpU(a)
	}
}

// BenchmarkFinalExpDecomp times the final exponentiation every pairing
// ends in.
func BenchmarkFinalExpDecomp(b *testing.B) {
	a := cycloBenchInput(b)
	var z fe12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExpDecomp(&z, a)
	}
}

// BenchmarkPairMarshalled times the mailbox scan's pairing: a compressed
// G1 point decoded from bytes and paired against a precomputed G2 line
// table, as one trial decryption does.
func BenchmarkPairMarshalled(b *testing.B) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	pc := AtePrecomputeG2(new(G2).ScalarBaseMult(k))
	data := new(G1).ScalarBaseMult(k).Marshal()
	var g GT
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pc.pairMarshalled(&g, data); err != nil {
			b.Fatal(err)
		}
	}
}
