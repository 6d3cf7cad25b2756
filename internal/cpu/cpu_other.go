//go:build !amd64

package cpu

// Off amd64 no kernel in the repository runs, and no flag is set.
const (
	AESNI   = false
	BMI2ADX = false
	IFMA    = false
)
