//go:build opcount

package onionbox

// Built with -tags opcount, fe.mul and fe.square count themselves, so
// that TestOperationCount can check that a scalar multiplication does the
// same field work whatever the scalar; the lane ladder's kernel counts
// its own multiplications and squarings, which laneLadder adds here. The
// counters are plain variables: the test that reads them runs alone.
var opMuls, opSquares int

// opLaneCalls, opLaneMuls and opLaneSquares count lane ladders and the
// lane multiplications and squarings they did.
var opLaneCalls, opLaneMuls, opLaneSquares int

func countMul()    { opMuls++ }
func countSquare() { opSquares++ }

func countLanes(muls, squares uint64) {
	opLaneCalls++
	opLaneMuls += int(muls)
	opLaneSquares += int(squares)
}
