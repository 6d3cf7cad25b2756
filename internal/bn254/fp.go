package bn254

import (
	"io"
	"math/big"
)

// randMod returns a uniform element of [0, mod) read from r by rejection
// sampling with the hoisted 254-bit mask (both moduli of interest are 254
// bits). The byte-consumption pattern matches crypto/rand.Int exactly, so
// deterministic test streams are unaffected by the hoisting.
func randMod(r io.Reader, mod *big.Int) (*big.Int, error) {
	buf := make([]byte, randByteLen)
	k := new(big.Int)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		buf[0] &= randTopMask
		if k.SetBytes(buf); k.Cmp(mod) < 0 {
			return k, nil
		}
	}
}

// RandomScalar returns a uniform non-zero scalar in [1, Order-1] read from r.
func RandomScalar(r io.Reader) (*big.Int, error) {
	for {
		k, err := randMod(r, Order)
		if err != nil {
			return nil, err
		}
		if k.Sign() != 0 {
			return k, nil
		}
	}
}
