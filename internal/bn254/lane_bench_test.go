package bn254

import (
	"math/rand"
	"testing"
)

// BenchmarkLaneFp2Mul times one lane Fp2 multiplication, eight products,
// beside eight scalar fe2.Mul: the ratio the lane field had to reach
// (≤ 0.3) before the lane pairing was built on it.
func BenchmarkLaneFp2Mul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, wx := laneRandom2(rng, 1)
	y, wy := laneRandom2(rng, 2)
	b.Run("lanes", func(b *testing.B) {
		skipWithoutLanes(b)
		var z lane2
		for i := 0; i < b.N; i++ {
			lane2Mul(&z, &x, &y)
		}
	})
	b.Run("asm", func(b *testing.B) {
		var z fe2
		for i := 0; i < b.N; i++ {
			for j := 0; j < laneCount; j++ {
				z.Mul(&wx[j], &wy[j])
			}
		}
	})
}

// BenchmarkLaneKernels times each lane kernel once, eight lanes.
func BenchmarkLaneKernels(b *testing.B) {
	skipWithoutLanes(b)
	rng := rand.New(rand.NewSource(1))
	x, _ := laneRandom2(rng, 1)
	y, _ := laneRandom2(rng, 2)
	var z lane2
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"fe2mul", func() { lane2Mul(&z, &x, &y) }},
		{"fe2square", func() { lane2Square(&z, &x) }},
		{"fe2add", func() { lane2Add(&z, &x, &y) }},
		{"fe2sub", func() { lane2Sub(&z, &x, &y) }},
		{"fe2mulxi", func() { lane2MulXi(&z, &x) }},
		{"femul", func() { laneMul(&z.c0, &x.c0, &y.c0) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.f()
			}
		})
	}
}

// BenchmarkPairMarshalledBatch times one full group (eight entries) of
// PairMarshalledBatch per op on the lane pairing and, as /asm, the same
// eight entries paired one by one; divide by eight for a per-entry cost.
func BenchmarkPairMarshalledBatch(b *testing.B) {
	pc := laneTestKey(b)
	data := laneTestEntries(b, laneCount, false)
	fn := func(int, error) {}
	b.Run("lanes", func(b *testing.B) {
		skipWithoutLanes(b)
		var g GT
		for i := 0; i < b.N; i++ {
			pc.PairMarshalledBatch(&g, data, fn)
		}
	})
	b.Run("asm", func(b *testing.B) {
		saved := laneAsm
		laneAsm = false
		defer func() { laneAsm = saved }()
		var g GT
		for i := 0; i < b.N; i++ {
			pc.PairMarshalledBatch(&g, data, fn)
		}
	})
}

// BenchmarkLaneGroup times one lane walk of a single entry, line table
// conversion included: what a group costs however few of its lanes hold
// an entry. Against BenchmarkPairMarshalled (one entry on the scalar
// path) it gives laneBreakEven.
func BenchmarkLaneGroup(b *testing.B) {
	skipWithoutLanes(b)
	pc := laneTestKey(b)
	data := laneTestEntries(b, 1, false)
	s := new(laneState)
	var g GT
	for i := 0; i < b.N; i++ {
		s.loadLines(pc.lines)
		s.pairGroup(&g, data, 0, func(int, error) {})
	}
}
