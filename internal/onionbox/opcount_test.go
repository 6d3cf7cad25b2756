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
// single-bit scalar, and the ladder also for a point of low order. Run it
// with: go test -tags opcount -run TestOperationCount ./internal/onionbox
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
}
