//go:build !opcount

package onionbox

// countMul and countSquare are the operation-count test's seam (see
// opcount_on.go): in a normal build they are empty and inline to nothing.

func countMul()    {}
func countSquare() {}
