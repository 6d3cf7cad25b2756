package cpu

import "testing"

// TestFlagsConsistent logs the probe's findings and checks the one
// implication between them: every CPU with AVX-512 IFMA also has BMI2
// and ADX, so a probe that reports IFMA without them has misread a
// register.
func TestFlagsConsistent(t *testing.T) {
	t.Logf("AES-NI %v, BMI2+ADX %v, AVX-512 IFMA with OS ZMM state %v", AESNI, BMI2ADX, IFMA)
	if IFMA && !BMI2ADX {
		t.Fatal("IFMA reported without BMI2 and ADX")
	}
}
