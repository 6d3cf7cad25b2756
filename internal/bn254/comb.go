package bn254

import (
	"math/big"
	"sync"
)

// Fixed-base comb tables (Lim–Lee) for the two generators.
//
// A 256-bit scalar is viewed as a combTeeth × combCols bit matrix: tooth j
// covers bits [j·combCols, (j+1)·combCols). Column col selects one bit from
// each tooth, forming an index idx = Σ_j bit(j·combCols + col)·2^j, and the
// precomputed table stores, for every nonzero idx,
//
//	combTable[idx−1] = Σ_{j: bit j of idx set} 2^(j·combCols)·G.
//
// The multiply then walks columns from most to least significant: one
// doubling plus at most one mixed addition per column — 31 doublings and
// ≤32 additions versus the generic ladder's 254 doublings and ~127
// additions. No table entry can be infinity: every combination scalar is a
// sum of distinct powers 2^(32j) with j ≤ 7, hence < 2^225 < Order, and
// the generators have order Order.
//
// Tables are built lazily on first use (two shared-inversion affine
// passes via the batch helpers: 8 spaced generators, then all 255
// combinations), and are strictly internal — scalar multiplication
// results remain bit-identical to the Jacobian ladder.
const (
	combTeeth = 8
	combCols  = 32
	combSize  = 1<<combTeeth - 1
)

var (
	g1CombOnce sync.Once
	g1CombTab  *[combSize]G1

	g2CombOnce sync.Once
	g2CombTab  *[combSize]G2
)

func g1Comb() *[combSize]G1 {
	g1CombOnce.Do(func() {
		// Spaced generators base[j] = 2^(32j)·G via 224 doublings.
		var spaced [combTeeth]g1Jac
		spaced[0].fromAffine(G1Generator())
		for j := 1; j < combTeeth; j++ {
			spaced[j] = spaced[j-1]
			for i := 0; i < combCols; i++ {
				spaced[j].double(&spaced[j])
			}
		}
		var base [combTeeth]G1
		g1JacBatchToAffine(spaced[:], base[:])

		var jacs [combSize]g1Jac
		for idx := 1; idx <= combSize; idx++ {
			low := idx & (-idx) // lowest set bit
			j := 0
			for 1<<j != low {
				j++
			}
			if idx == low {
				jacs[idx-1].fromAffine(&base[j])
			} else {
				jacs[idx-1].addMixed(&jacs[idx-low-1], &base[j])
			}
		}
		tab := new([combSize]G1)
		g1JacBatchToAffine(jacs[:], tab[:])
		for i := range tab {
			if tab[i].inf {
				panic("bn254: G1 comb table contains infinity")
			}
		}
		g1CombTab = tab
	})
	return g1CombTab
}

func g2Comb() *[combSize]G2 {
	g2CombOnce.Do(func() {
		var spaced [combTeeth]g2Jac
		spaced[0].fromAffine(G2Generator())
		for j := 1; j < combTeeth; j++ {
			spaced[j] = spaced[j-1]
			for i := 0; i < combCols; i++ {
				spaced[j].double(&spaced[j])
			}
		}
		var base [combTeeth]G2
		g2JacBatchToAffine(spaced[:], base[:])

		var jacs [combSize]g2Jac
		for idx := 1; idx <= combSize; idx++ {
			low := idx & (-idx)
			j := 0
			for 1<<j != low {
				j++
			}
			if idx == low {
				jacs[idx-1].fromAffine(&base[j])
			} else {
				jacs[idx-1].addMixed(&jacs[idx-low-1], &base[j])
			}
		}
		tab := new([combSize]G2)
		g2JacBatchToAffine(jacs[:], tab[:])
		for i := range tab {
			if tab[i].inf {
				panic("bn254: G2 comb table contains infinity")
			}
		}
		g2CombTab = tab
	})
	return g2CombTab
}

// combScalarBytes reduces k mod Order and fills buf with its 32-byte
// big-endian encoding.
func combScalarBytes(buf *[32]byte, k *big.Int) {
	kr := k
	if k.Sign() < 0 || k.Cmp(Order) >= 0 {
		kr = new(big.Int).Mod(k, Order)
	}
	kr.FillBytes(buf[:])
}

// combIndex extracts the comb digit for one column: bit j·combCols+col of
// the big-endian scalar encoding lands in bit j of the index.
func combIndex(buf *[32]byte, col int) int {
	idx := 0
	for j := 0; j < combTeeth; j++ {
		bit := j*combCols + col
		idx |= int(buf[31-bit>>3]>>(bit&7)&1) << j
	}
	return idx
}

func g1CombMult(acc *g1Jac, buf *[32]byte) {
	tab := g1Comb()
	acc.setInfinity()
	for col := combCols - 1; col >= 0; col-- {
		acc.double(acc)
		if idx := combIndex(buf, col); idx != 0 {
			acc.addMixed(acc, &tab[idx-1])
		}
	}
}

func g2CombMult(acc *g2Jac, buf *[32]byte) {
	tab := g2Comb()
	acc.setInfinity()
	for col := combCols - 1; col >= 0; col-- {
		acc.double(acc)
		if idx := combIndex(buf, col); idx != 0 {
			acc.addMixed(acc, &tab[idx-1])
		}
	}
}

// G1ScalarBaseMultBatch computes kᵢ·G1gen for a whole slice of scalars,
// running the comb ladders in Jacobian form and converting every result
// to affine in one shared-inversion pass. Used by batched noise
// generation; results are identical to calling ScalarBaseMult per scalar.
func G1ScalarBaseMultBatch(ks []*big.Int) []*G1 {
	jacs := make([]g1Jac, len(ks))
	var buf [32]byte
	for i, k := range ks {
		combScalarBytes(&buf, k)
		g1CombMult(&jacs[i], &buf)
	}
	pts := make([]G1, len(ks))
	g1JacBatchToAffine(jacs, pts)
	out := make([]*G1, len(ks))
	for i := range pts {
		out[i] = &pts[i]
	}
	return out
}
