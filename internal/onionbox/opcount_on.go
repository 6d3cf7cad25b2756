//go:build opcount

package onionbox

// Built with -tags opcount, fe.mul and fe.square count themselves, so
// that TestOperationCount can check that a scalar multiplication does the
// same field work whatever the scalar. The counters are plain variables:
// the test that reads them runs alone.
var opMuls, opSquares int

func countMul()    { opMuls++ }
func countSquare() { opSquares++ }
