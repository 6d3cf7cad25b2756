package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// skipWithoutLanes skips t where the CPU cannot run the lane kernels,
// saying so: -v shows which machines skipped the lane tests.
func skipWithoutLanes(t testing.TB) {
	t.Helper()
	if !laneAsmSupported {
		t.Skip("no AVX-512 IFMA with OS-saved ZMM state on this CPU: the lane pairing is not built here")
	}
}

// laneSetRaw puts the integer v (below 2P) into lane j as limbs, with
// no conversion: a non-canonical representative, which every kernel must
// take as readily as a reduced one.
func laneSetRaw(f *laneFe, j int, v *big.Int) {
	t := new(big.Int).Set(v)
	m := big.NewInt(laneMask52)
	for k := 0; k < 5; k++ {
		f[k][j] = new(big.Int).And(t, m).Uint64()
		t.Rsh(t, 52)
	}
}

// laneRawBig returns lane j's limbs as an integer.
func laneRawBig(f *laneFe, j int) *big.Int {
	v := new(big.Int)
	for k := 4; k >= 0; k-- {
		v.Lsh(v, 52)
		v.Add(v, new(big.Int).SetUint64(f[k][j]))
	}
	return v
}

// laneCheckInvariant fails t unless every lane of f has limbs below 2⁵²
// and a value below 2P, what every kernel promises.
func laneCheckInvariant(t *testing.T, what string, f *laneFe) {
	t.Helper()
	twoP := new(big.Int).Lsh(P, 1)
	for j := 0; j < laneCount; j++ {
		for k := 0; k < 5; k++ {
			if f[k][j] > laneMask52 {
				t.Fatalf("%s: lane %d limb %d is %#x, above 2^52", what, j, k, f[k][j])
			}
		}
		if laneRawBig(f, j).Cmp(twoP) >= 0 {
			t.Fatalf("%s: lane %d is not below 2P", what, j)
		}
	}
}

// laneFill puts eight field elements into f: random ones, the edge
// values 0, 1 and P − 1, and, in odd lanes of odd trials, the
// representative v + P instead of v.
func laneRandomFe(rng *rand.Rand, trial int) (f laneFe, want [laneCount]fe) {
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(P, big.NewInt(1))}
	for j := 0; j < laneCount; j++ {
		var v *big.Int
		if trial%4 == 0 && j < len(edges) {
			v = edges[j]
		} else {
			v = new(big.Int).Rand(rng, P)
		}
		feFromBig(&want[j], v)
		f.set(j, &want[j])
		if trial%2 == 1 && j%2 == 1 {
			laneSetRaw(&f, j, new(big.Int).Add(laneRawBig(&f, j), P))
		}
	}
	return
}

func laneRandom2(rng *rand.Rand, trial int) (e lane2, want [laneCount]fe2) {
	var w0, w1 [laneCount]fe
	e.c0, w0 = laneRandomFe(rng, trial)
	e.c1, w1 = laneRandomFe(rng, trial+1)
	for j := range want {
		want[j] = fe2{w0[j], w1[j]}
	}
	return
}

// TestLaneKernelsMatchScalar holds every lane kernel, in every lane, to
// the scalar field operation it stands for, on random, edge and
// non-canonical inputs, aliased and not, and checks that each leaves the
// invariant the next kernel relies on.
func TestLaneKernelsMatchScalar(t *testing.T) {
	skipWithoutLanes(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x, wx := laneRandomFe(rng, trial)
		y, wy := laneRandomFe(rng, trial+1)
		for _, op := range []struct {
			name   string
			kernel func(z, x, y *laneFe)
			scalar func(z, x, y *fe)
		}{
			{"mul", laneMul, feMul},
			{"add", laneAdd, feAdd},
			{"sub", laneSub, feSub},
		} {
			var z laneFe
			op.kernel(&z, &x, &y)
			laneCheckInvariant(t, op.name, &z)
			alias := x
			op.kernel(&alias, &alias, &y)
			for j := 0; j < laneCount; j++ {
				var want fe
				op.scalar(&want, &wx[j], &wy[j])
				if got := z.get(j); got != want {
					t.Fatalf("trial %d: lane %s differs in lane %d", trial, op.name, j)
				}
				if got := alias.get(j); got != want {
					t.Fatalf("trial %d: aliased lane %s differs in lane %d", trial, op.name, j)
				}
			}
		}

		a, wa := laneRandom2(rng, trial)
		b, wb := laneRandom2(rng, trial+1)
		for _, op := range []struct {
			name   string
			kernel func(z, x, y *lane2)
			scalar func(z, x, y *fe2)
		}{
			{"fe2 mul", lane2Mul, func(z, x, y *fe2) { z.Mul(x, y) }},
			{"fe2 add", lane2Add, func(z, x, y *fe2) { z.Add(x, y) }},
			{"fe2 sub", lane2Sub, func(z, x, y *fe2) { z.Sub(x, y) }},
			{"fe2 square", func(z, x, _ *lane2) { lane2Square(z, x) }, func(z, x, _ *fe2) { z.Square(x) }},
			{"fe2 mulXi", func(z, x, _ *lane2) { lane2MulXi(z, x) }, func(z, x, _ *fe2) { z.MulXi(x) }},
		} {
			var z lane2
			op.kernel(&z, &a, &b)
			laneCheckInvariant(t, op.name, &z.c0)
			laneCheckInvariant(t, op.name, &z.c1)
			alias := a
			op.kernel(&alias, &alias, &b)
			aliasB := b
			op.kernel(&aliasB, &a, &aliasB)
			for j := 0; j < laneCount; j++ {
				var want fe2
				op.scalar(&want, &wa[j], &wb[j])
				if got := z.get(j); got != want {
					t.Fatalf("trial %d: lane %s differs in lane %d", trial, op.name, j)
				}
				if got := alias.get(j); got != want {
					t.Fatalf("trial %d: lane %s with z = x differs in lane %d", trial, op.name, j)
				}
				if got := aliasB.get(j); got != want && op.name != "fe2 square" && op.name != "fe2 mulXi" {
					t.Fatalf("trial %d: lane %s with z = y differs in lane %d", trial, op.name, j)
				}
			}
		}
	}
}

// TestLaneConversionRoundTrip checks set and get against each other and
// against the lanes' Montgomery radix: lane one is 2²⁶⁰ mod P.
func TestLaneConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		var v fe
		feFromBig(&v, new(big.Int).Rand(rng, P))
		var f laneFe
		f.set(i%laneCount, &v)
		if got := f.get(i % laneCount); got != v {
			t.Fatalf("round trip of %v gave %v", feToBig(&v), feToBig(&got))
		}
	}
	var one laneFe
	one.set(0, &feOne)
	r := new(big.Int).Lsh(big.NewInt(1), 260)
	if laneRawBig(&one, 0).Cmp(r.Mod(r, P)) != 0 {
		t.Fatal("lane one is not 2^260 mod P")
	}
}

// TestLaneKernelBoundaries feeds the additive kernels the raw lane
// values at their comparisons' edges — sums of exactly 2P and just
// around it, differences of exactly zero and ±1, the largest
// representatives 2P − 1 — and holds every result to the scalar
// operation and to the invariant (a sum of 2P must leave as 0, not 2P).
func TestLaneKernelBoundaries(t *testing.T) {
	skipWithoutLanes(t)
	one := big.NewInt(1)
	twoP := new(big.Int).Lsh(P, 1)
	pm1 := new(big.Int).Sub(P, one)
	pp1 := new(big.Int).Add(P, one)
	max := new(big.Int).Sub(twoP, one)
	pairs := [][2]*big.Int{
		{P, P}, {max, one}, {pp1, pm1}, {pm1, pp1}, {new(big.Int), new(big.Int)},
		{max, max}, {P, new(big.Int)}, {max, new(big.Int)}, {pm1, P}, {one, max},
		{pp1, pp1}, {pm1, pm1}, {P, one}, {new(big.Int), P}, {one, new(big.Int)}, {max, pm1},
	}
	for g := 0; g < len(pairs); g += laneCount {
		var x, y lane2
		var wx, wy [laneCount]fe
		for j := 0; j < laneCount; j++ {
			p := pairs[(g+j)%len(pairs)]
			laneSetRaw(&x.c0, j, p[0])
			laneSetRaw(&y.c0, j, p[1])
			laneSetRaw(&x.c1, j, p[1])
			laneSetRaw(&y.c1, j, p[1])
			wx[j], wy[j] = x.c0.get(j), y.c0.get(j)
		}
		for _, op := range []struct {
			name   string
			kernel func(z, x, y *lane2)
			scalar func(z, x, y *fe)
		}{
			{"fe2 add", lane2Add, feAdd},
			{"fe2 sub", lane2Sub, feSub},
			{"fe2 mul", lane2Mul, nil},
		} {
			var z lane2
			op.kernel(&z, &x, &y)
			laneCheckInvariant(t, op.name, &z.c0)
			laneCheckInvariant(t, op.name, &z.c1)
			if op.scalar == nil {
				continue
			}
			for j := 0; j < laneCount; j++ {
				var want fe
				op.scalar(&want, &wx[j], &wy[j])
				if got := z.c0.get(j); got != want {
					t.Fatalf("%s of raw %v and %v is wrong", op.name, pairs[(g+j)%len(pairs)][0], pairs[(g+j)%len(pairs)][1])
				}
			}
		}
		var z lane2
		lane2MulXi(&z, &x)
		laneCheckInvariant(t, "fe2 mulXi", &z.c0)
		laneCheckInvariant(t, "fe2 mulXi", &z.c1)
		lane2Square(&z, &x)
		laneCheckInvariant(t, "fe2 square", &z.c0)
		laneCheckInvariant(t, "fe2 square", &z.c1)
	}
}
