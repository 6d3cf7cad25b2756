//go:build opcount

package onionbox

import (
	"bytes"
	mathrand "math/rand"
	"testing"
)

// TestOperationCount: a scalar multiplication does the same field work
// whatever its scalar, so its time says nothing of the scalar. The peel's
// ladder and the comb walks of a seal perform the same number of field
// multiplications and squarings for a random, a zero, an all-ones and a
// single-bit scalar, and the ladder also for a point of low order; the
// lane ladder (/lanes) does the scalar ladder's count for every scalar
// and every lane content, in every group of a chunk however full, and the
// lane comb (/comb_lanes) the scalar comb's, for every scalar in every
// lane beside any others, in every group of a sealed batch. Run it with:
// go test -tags opcount -run TestOperationCount ./internal/onionbox
func TestOperationCount(t *testing.T) {
	random := make([]byte, 32)
	mathrand.New(mathrand.NewSource(8)).Read(random)
	oneBit := make([]byte, 32)
	oneBit[12] = 0x10
	scalars := map[string][]byte{
		"random":     random,
		"zero":       make([]byte, 32),
		"all-ones":   bytes.Repeat([]byte{0xff}, 32),
		"single-bit": oneBit,
	}
	nine, lowOrder := fe{[4]uint64{9}}, fe{}
	x, y, ok := edwardsFromU(random)
	for !ok {
		random[0]++
		x, y, ok = edwardsFromU(random)
	}
	var tab combTable
	tab.fill(x, y)

	ops := map[string]func(k []byte){
		"ladder": func(k []byte) {
			var seed [32]byte
			var x2, z2 fe
			copy(seed[:], k)
			ladder(&x2, &z2, &seed, &nine)
		},
		"ladder, low-order u": func(k []byte) {
			var seed [32]byte
			var x2, z2 fe
			copy(seed[:], k)
			ladder(&x2, &z2, &seed, &lowOrder)
		},
		"base comb": func(k []byte) {
			var digits [64]int8
			var p point
			recode(&digits, k)
			baseTable().scalarMult(&p, &digits)
		},
		"key comb": func(k []byte) {
			var digits [64]int8
			var p point
			recode(&digits, k)
			tab.scalarMult(&p, &digits)
		},
	}
	baseTable() // built outside the counts
	type count struct{ muls, squares int }
	for name, op := range ops {
		counts := map[string]count{}
		for sname, k := range scalars {
			opMuls, opSquares = 0, 0
			op(k)
			counts[sname] = count{opMuls, opSquares}
		}
		want := counts["random"]
		if want.muls == 0 {
			t.Fatalf("%s: no multiplication counted; is the opcount seam wired?", name)
		}
		for sname, c := range counts {
			if c != want {
				t.Errorf("%s: %s scalar takes %+v, a random one %+v", name, sname, c, want)
			}
		}
		t.Logf("%s: %d multiplications, %d squarings", name, want.muls, want.squares)
	}

	t.Run("lanes", func(t *testing.T) {
		skipWithoutLanes(t)
		opMuls, opSquares = 0, 0
		var seed [32]byte
		var x2, z2 fe
		ladder(&x2, &z2, &seed, &nine)
		want := count{opMuls, opSquares}

		rng := mathrand.New(mathrand.NewSource(9))
		contents := map[string]func(j int) fe{
			"random":    func(int) fe { return fe{[4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64() >> 1}} },
			"low order": func(int) fe { return lowOrder },
			"fill":      func(int) fe { return laneFill },
			"mixed": func(j int) fe {
				if j%2 == 0 {
					return lowOrder
				}
				return nine
			},
		}
		var st laneLadderState
		for sname, k := range scalars {
			for cname, u := range contents {
				for j := 0; j < laneCount; j++ {
					v := u(j)
					st.u.set(j, &v)
				}
				copy(seed[:], k)
				opLaneCalls, opLaneMuls, opLaneSquares = 0, 0, 0
				laneLadder(&st, &seed)
				if got := (count{opLaneMuls, opLaneSquares}); opLaneCalls != 1 || got != want {
					t.Errorf("%s scalar, %s lanes: %d calls, %+v; the scalar ladder %+v", sname, cname, opLaneCalls, got, want)
				}
			}
		}

		pub, priv, err := GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{laneBreakEven, laneCount - 1, laneCount, laneCount + laneBreakEven, openChunk + 3, 2*openChunk + 1} {
			boxes := chunkBoxes(t, rng, pub, n)
			opLaneCalls, opLaneMuls, opLaneSquares = 0, 0, 0
			withLanes(func() { openBatch(nil, priv, boxes, make([]int, n)) })
			if opLaneCalls == 0 {
				t.Fatalf("a chunk of %d boxes ran no lane ladder", n)
			}
			if opLaneMuls != opLaneCalls*want.muls || opLaneSquares != opLaneCalls*want.squares {
				t.Errorf("a chunk of %d boxes: %d lane ladders did %d multiplications and %d squarings, not %+v each", n, opLaneCalls, opLaneMuls, opLaneSquares, want)
			}
		}
		t.Logf("lane ladder: %d multiplications, %d squarings a call", want.muls, want.squares)
	})

	t.Run("comb lanes", func(t *testing.T) {
		skipWithoutLanes(t)
		var digits [64]int8
		var p point
		recode(&digits, random)
		opMuls, opSquares = 0, 0
		baseTable().scalarMult(&p, &digits)
		want := count{opMuls, opSquares}

		rng := mathrand.New(mathrand.NewSource(10))
		fills := map[string]func(j int, k []byte) []byte{
			"random": func(int, []byte) []byte {
				s := make([]byte, 32)
				rng.Read(s)
				return s
			},
			"zero": func(int, []byte) []byte { return make([]byte, 32) },
			"same": func(_ int, k []byte) []byte { return k },
			"mixed": func(j int, k []byte) []byte {
				if j%2 == 0 {
					return bytes.Repeat([]byte{0xff}, 32)
				}
				return k
			},
		}
		var st laneCombState
		lt := newLaneCombTable(&tab)
		for sname, k := range scalars {
			for fname, fill := range fills {
				var ks [laneCount][32]byte
				for j := range ks {
					copy(ks[j][:], fill(j, k))
				}
				copy(ks[rng.Intn(laneCount)][:], k)
				setLaneDigits(&st, &ks)
				opLaneCalls, opLaneMuls, opLaneSquares = 0, 0, 0
				laneComb(&st, lt)
				if got := (count{opLaneMuls, opLaneSquares}); opLaneCalls != 1 || got != want {
					t.Errorf("%s scalar, %s lanes: %d calls, %+v; the scalar comb %+v", sname, fname, opLaneCalls, got, want)
				}
			}
		}

		pub, _, err := GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSealer(pub, sealChunk)
		for _, n := range []int{2, laneCount - 1, laneCount, laneCount + laneCombBreakEven, sealChunk + 3, 2*sealChunk + 1} {
			seeds := make([]byte, 32*n)
			rng.Read(seeds)
			boxes := make([][]byte, n)
			for i := range boxes {
				boxes[i] = make([]byte, Overhead+8)
			}
			// Two walks, the base table's and the key's, per group of
			// laneCount boxes down to a remainder below laneCombBreakEven.
			calls := 0
			for rest := n; rest > 0; rest -= sealChunk {
				c := min(rest, sealChunk)
				calls += 2 * ((c + laneCount - laneCombBreakEven) / laneCount)
			}
			opLaneCalls, opLaneMuls, opLaneSquares = 0, 0, 0
			withLanes(func() {
				if err := s.sealInPlace(seeds, boxes); err != nil {
					t.Fatal(err)
				}
			})
			if opLaneCalls != calls {
				t.Fatalf("a batch of %d boxes ran %d lane combs, want %d", n, opLaneCalls, calls)
			}
			if opLaneMuls != opLaneCalls*want.muls || opLaneSquares != opLaneCalls*want.squares {
				t.Errorf("a batch of %d boxes: %d lane combs did %d multiplications and %d squarings, not %+v each", n, opLaneCalls, opLaneMuls, opLaneSquares, want)
			}
		}
		t.Logf("lane comb: %d multiplications, %d squarings a call", want.muls, want.squares)
	})
}
