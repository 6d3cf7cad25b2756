//go:build !opcount

package onionbox

// countMul, countSquare and countLanes are the operation-count test's
// seam (see opcount_on.go): in a normal build they are empty and inline
// to nothing.

func countMul()                       {}
func countSquare()                    {}
func countLanes(muls, squares uint64) {}
