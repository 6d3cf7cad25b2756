package bn254

// Tests of the base field's two paths: the assembly kernels fieldAsm
// selects (fe_amd64.s) and the Go leaves they stand in for.

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// forEachFieldPath runs f as a subtest once per base-field path this
// machine can take — "asm", the kernels, where the CPU has them, then
// "go", the Go leaves — and restores the switch afterwards. fieldAsm is
// package state: a test that calls this must not run in parallel.
func forEachFieldPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := fieldAsm
	defer func() { fieldAsm = saved }()
	for _, path := range []struct {
		name string
		asm  bool
	}{{"asm", true}, {"go", false}} {
		if path.asm && !fieldAsmSupported {
			continue
		}
		fieldAsm = path.asm
		t.Run(path.name, f)
	}
}

// TestFp2KernelsMatchGoTwins holds every Fp2-level kernel to its Go twin
// bit for bit, on edge and random elements and with the result aliasing
// each operand the way the towers call them. The fe2Wide operands are
// products and sums of products, and the invariant's edge: P−1 over
// all-ones low limbs, just under P·2²⁵⁶.
func TestFp2KernelsMatchGoTwins(t *testing.T) {
	if !fieldAsmSupported {
		t.Skip("this CPU lacks BMI2 or ADX: there are no kernels to compare")
	}
	saved := fieldAsm
	fieldAsm = true
	defer func() { fieldAsm = saved }()

	// Reduced elements that drive the carry chains and masked corrections
	// hardest — P−1 and 0 in either order, both P−1, the Montgomery one,
	// zero — then random ones.
	var pm1 fe
	feRawFromBig(&pm1, new(big.Int).Sub(P, big.NewInt(1)))
	elems := []fe2{{pm1, pm1}, {fe{}, pm1}, {pm1, fe{}}, {}, {feOne, fe{}}, {feOne, feOne}}
	for i := 0; i < 40; i++ {
		elems = append(elems, fe2FromRef(randRefGFp2(t)))
	}
	ones := ^uint64(0)
	edge := feWide{ones, ones, ones, ones, pm1[0], pm1[1], pm1[2], pm1[3]}
	wides := []fe2Wide{{edge, edge}, {feWide{}, edge}, {edge, feWide{}}, {}}
	for i := range elems {
		var w fe2Wide
		fe2WideMulGeneric(&w, &elems[i], &elems[(i+1)%len(elems)])
		wides = append(wides, w)
		fe2WideSquareGeneric(&w, &elems[i])
		wides = append(wides, w)
	}

	same := func(op string, i int, got, want any) {
		t.Helper()
		if got != want {
			t.Fatalf("%s on operand set %d: kernel %x, Go twin %x", op, i, got, want)
		}
	}
	for i := range elems {
		a, b := elems[i], elems[(i*7+3)%len(elems)]
		var got, want fe2
		var gotW, wantW fe2Wide

		fe2WideMul(&gotW, &a, &b)
		fe2WideMulGeneric(&wantW, &a, &b)
		same("fe2WideMul", i, gotW, wantW)
		fe2WideSquare(&gotW, &a)
		fe2WideSquareGeneric(&wantW, &a)
		same("fe2WideSquare", i, gotW, wantW)

		fe2AddGeneric(&want, &a, &b)
		fe2Add(&got, &a, &b)
		same("fe2Add", i, got, want)
		got = a
		fe2Add(&got, &got, &b)
		same("fe2Add e=a", i, got, want)
		got = b
		fe2Add(&got, &a, &got)
		same("fe2Add e=b", i, got, want)
		fe2AddGeneric(&want, &a, &a)
		got = a
		fe2Add(&got, &got, &got)
		same("fe2Add e=a=b", i, got, want)

		fe2SubGeneric(&want, &a, &b)
		fe2Sub(&got, &a, &b)
		same("fe2Sub", i, got, want)
		got = a
		fe2Sub(&got, &got, &b)
		same("fe2Sub e=a", i, got, want)
		got = b
		fe2Sub(&got, &a, &got)
		same("fe2Sub e=b", i, got, want)

		fe2MulXiGeneric(&want, &a)
		fe2MulXi(&got, &a)
		same("fe2MulXi", i, got, want)
		got = a
		fe2MulXi(&got, &got)
		same("fe2MulXi e=a", i, got, want)
	}
	for i := range wides {
		u, v := wides[i], wides[(i*5+2)%len(wides)]
		var got, want fe2Wide
		var gotR, wantR fe2

		fe2WideReduce(&gotR, &u)
		fe2WideReduceGeneric(&wantR, &u)
		same("fe2WideReduce", i, gotR, wantR)

		for _, k := range []struct {
			name         string
			kernel, twin func(w, a, b *fe2Wide)
		}{
			{"fe2WideAdd", fe2WideAdd, fe2WideAddGeneric},
			{"fe2WideSub", fe2WideSub, fe2WideSubGeneric},
			{"fe2WideAddMulXi", fe2WideAddMulXi, fe2WideAddMulXiGeneric},
		} {
			k.twin(&want, &u, &v)
			k.kernel(&got, &u, &v)
			same(k.name, i, got, want)
			got = u
			k.kernel(&got, &got, &v)
			same(k.name+" w=a", i, got, want)
			got = v
			k.kernel(&got, &u, &got)
			same(k.name+" w=b", i, got, want)
		}
	}
}

// TestFieldAsmSpeedupPin is the regression guard for the kernels: the
// scan's pairing — a compressed G1 point decoded and paired against a
// precomputed line table — must run at least 1.1x faster with them than
// on the Go leaves, timed in alternation on the same machine. On a
// 2-vCPU Xeon it read 1.41–2.05x in 20 runs, and 1.60–2.26x in 20 runs
// beside a running dial-bulk round benchmark; 1.1x still catches a
// dispatch that silently stopped selecting them. Skipped in -short mode
// and on CPUs without the kernels.
func TestFieldAsmSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	if !fieldAsmSupported {
		t.Skip("this CPU lacks BMI2 or ADX: there are no kernels to time")
	}
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pc := AtePrecomputeG2(new(G2).ScalarBaseMult(k))
	data := new(G1).ScalarBaseMult(k).Marshal()
	saved := fieldAsm
	defer func() { fieldAsm = saved }()

	var g GT
	pairs := func(asm bool) func() {
		return func() {
			fieldAsm = asm
			for i := 0; i < 4; i++ {
				if err := pc.pairMarshalled(&g, data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	best := bestInterleaved(8, pairs(true), pairs(false))
	kernels, leaves := best[0], best[1]

	const floor = 1.1
	ratio := float64(leaves) / float64(kernels)
	if ratio < floor {
		t.Fatalf("pairing with the kernels %v is under %.1fx the Go leaves %v (ratio %.2fx)",
			kernels, floor, leaves, ratio)
	}
	t.Logf("pairing with the kernels %v vs the Go leaves %v: %.2fx", kernels, leaves, ratio)
}
