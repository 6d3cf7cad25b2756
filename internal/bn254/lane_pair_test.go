package bn254

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// forEachLanePath runs f as /lanes, with the lane pairing selected, and
// as /scalar, without it; /lanes skips, saying why, on a CPU without
// IFMA.
func forEachLanePath(t *testing.T, f func(t *testing.T)) {
	t.Run("lanes", func(t *testing.T) {
		skipWithoutLanes(t)
		f(t)
	})
	t.Run("scalar", func(t *testing.T) {
		saved := laneAsm
		laneAsm = false
		defer func() { laneAsm = saved }()
		f(t)
	})
}

// laneTestEntries returns n encoded G1 points for a batch: random
// multiples of the generator, with, where edge is set, the edge cases a
// mailbox may hold in between: infinity, an x off the curve, an x ≥ P,
// a bad infinity encoding, a short entry and the generator itself.
func laneTestEntries(t testing.TB, n int, edge bool) [][]byte {
	offCurve := make([]byte, 32)
	offCurve[31] = 3 // x = 3: 27 + 3 = 30 is not a square mod P
	var x big.Int
	for {
		var p G1
		if p.Unmarshal(offCurve) != nil {
			break
		}
		x.SetBytes(offCurve)
		x.Add(&x, big.NewInt(1))
		x.FillBytes(offCurve)
	}
	tooBig := make([]byte, 32)
	P.FillBytes(tooBig)
	badInf := make([]byte, 32)
	badInf[0], badInf[31] = g1FlagInfinity, 1
	edges := [][]byte{
		new(G1).SetInfinity().Marshal(), offCurve, tooBig, badInf,
		make([]byte, 31), G1Generator().Marshal(),
	}
	out := make([][]byte, n)
	for i := range out {
		if edge && i%3 == 1 {
			out[i] = edges[(i/3)%len(edges)]
			continue
		}
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = new(G1).ScalarBaseMult(k).Marshal()
	}
	return out
}

func laneTestKey(t testing.TB) *AtePrecomputedG2 {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return AtePrecomputeG2(new(G2).ScalarBaseMult(k))
}

// checkBatchMatchesScalar runs PairMarshalledBatch on data and holds
// every result, error and call order to PairMarshalled's.
func checkBatchMatchesScalar(t *testing.T, pc *AtePrecomputedG2, data [][]byte) {
	t.Helper()
	next := 0
	var g GT
	pc.PairMarshalledBatch(&g, data, func(i int, err error) {
		if i != next {
			t.Fatalf("entry %d reported out of order (want %d)", i, next)
		}
		next++
		want, wantErr := pc.PairMarshalled(data[i])
		if err != wantErr {
			t.Fatalf("entry %d of %d: error %v, want %v", i, len(data), err, wantErr)
		}
		if err != nil {
			if g != (GT{}) {
				t.Fatalf("entry %d of %d: a failed decode left a value", i, len(data))
			}
			return
		}
		if !g.Equal(want) {
			t.Fatalf("entry %d of %d: pairing differs from PairMarshalled", i, len(data))
		}
	})
	if next != len(data) {
		t.Fatalf("%d of %d entries reported", next, len(data))
	}
	if g != (GT{}) {
		t.Fatal("PairMarshalledBatch left a pairing value in g")
	}
}

// TestPairMarshalledBatchMatchesScalar holds the batch to PairMarshalled
// for every batch length 0–17 (every lane fill of one and two groups,
// and the remainders below laneBreakEven), with and without edge-case
// entries between the points, and for the key of infinity.
func TestPairMarshalledBatchMatchesScalar(t *testing.T) {
	forEachLanePath(t, func(t *testing.T) {
		pc := laneTestKey(t)
		for n := 0; n <= 17; n++ {
			for _, edge := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/edge=%v", n, edge), func(t *testing.T) {
					checkBatchMatchesScalar(t, pc, laneTestEntries(t, n, edge))
				})
			}
		}
		checkBatchMatchesScalar(t, AtePrecomputeG2(new(G2).SetInfinity()), laneTestEntries(t, 9, true))
	})
}

// TestLaneIsolation puts each edge case in each lane of an otherwise
// fixed group of valid points and checks that the other seven lanes'
// pairings do not move.
func TestLaneIsolation(t *testing.T) {
	skipWithoutLanes(t)
	pc := laneTestKey(t)
	base := laneTestEntries(t, laneCount, false)
	want := make([]GT, laneCount)
	for i, d := range base {
		g, err := pc.PairMarshalled(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *g
	}
	edges := laneTestEntries(t, 3*6, true)
	for lane := 0; lane < laneCount; lane++ {
		for e := 1; e < len(edges); e += 3 {
			data := append([][]byte(nil), base...)
			data[lane] = edges[e]
			var g GT
			pc.PairMarshalledBatch(&g, data, func(i int, err error) {
				if i == lane {
					return
				}
				if err != nil || !g.Equal(&want[i]) {
					t.Fatalf("edge case %x in lane %d moved lane %d", edges[e][:4], lane, i)
				}
			})
		}
	}
}

// TestLaneOperationCount checks that a group's walk makes the same
// kernel calls whatever its entries and however many lanes hold one:
// the counts are the walk's, not the data's.
func TestLaneOperationCount(t *testing.T) {
	skipWithoutLanes(t)
	pc := laneTestKey(t)
	s := new(laneState)
	s.loadLines(pc.lines)
	var want [laneOpKinds]uint64
	for n := 1; n <= laneCount; n++ {
		for _, edge := range []bool{false, true} {
			s.ops = [laneOpKinds]uint64{}
			var g GT
			s.pairGroup(&g, laneTestEntries(t, n, edge), 0, func(int, error) {})
			if n == 1 && !edge {
				want = s.ops
				t.Logf("one group's kernel calls: %d Fp mul, %d Fp add/sub, %d Fp2 mul, %d Fp2 square, %d Fp2 add/sub, %d Fp2 ·ξ, %d Fp6 add/sub",
					want[laneOpMul], want[laneOpAdd], want[laneOpMul2], want[laneOpSquare2], want[laneOpAdd2], want[laneOpMulXi2], want[laneOpAdd6])
				continue
			}
			if s.ops != want {
				t.Fatalf("%d entries (edge cases %v): kernel calls %v, want %v", n, edge, s.ops, want)
			}
		}
	}
}

// TestLaneStateErased checks that nothing the lane pairing held
// outlives a batch, whatever its entries: valid points (what a scan
// accepts or rejects after the pairing), points that do not decode,
// infinity and short entries. PairMarshalledBatch returns its state —
// the lane copy of the line table, the decode's and the replay's values
// and every temporary — zeroed, and the key's Erase then zeroes the
// table itself.
func TestLaneStateErased(t *testing.T) {
	skipWithoutLanes(t)
	pc := laneTestKey(t)
	s := new(laneState)
	saved := laneStates.New
	laneStates.New = func() any { return s }
	defer func() { laneStates.New = saved }()
	for laneStates.Get() != s {
		// Drain the pool, so that the batch takes s.
	}
	walked := false
	var g GT
	pc.PairMarshalledBatch(&g, laneTestEntries(t, 2*laneCount+laneBreakEven, true), func(int, error) {
		walked = walked || s.f != (lane12{})
	})
	if !walked {
		t.Fatal("the batch did not walk in the test's state")
	}
	if *s != (laneState{}) {
		t.Fatal("the lane state is not zero after the batch")
	}
	pc.Erase()
	for _, l := range pc.lines[:cap(pc.lines)] {
		if l != (ateMonicLine{}) {
			t.Fatal("a line of the erased table is not zero")
		}
	}
}

// TestPairMarshalledBatchConcurrent runs batches on one key from several
// goroutines at once, as the scan's workers do: each takes its own lane
// state from the pool and reads the key's table, and every result is
// PairMarshalled's. Run it under -race.
func TestPairMarshalledBatchConcurrent(t *testing.T) {
	pc := laneTestKey(t)
	data := laneTestEntries(t, laneCount+laneBreakEven, true)
	want := make([]GT, len(data))
	wantErr := make([]error, len(data))
	for i, d := range data {
		wantErr[i] = pc.pairMarshalled(&want[i], d)
		if wantErr[i] != nil {
			want[i] = GT{}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var g GT
			pc.PairMarshalledBatch(&g, data, func(i int, err error) {
				if err != wantErr[i] || g != want[i] {
					t.Errorf("entry %d differs from PairMarshalled under concurrent batches", i)
				}
			})
		}()
	}
	wg.Wait()
}
