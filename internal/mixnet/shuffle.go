package mixnet

import (
	"encoding/binary"
	"io"
)

// shuffle applies a uniformly random Fisher-Yates permutation to the batch
// using cryptographic randomness. The permutation is never stored: once the
// stack frame is gone, even this server cannot reconstruct the mapping —
// which is exactly the property the anytrust argument needs from the one
// honest server.
func shuffle(rnd io.Reader, batch [][]byte) error {
	for i := len(batch) - 1; i > 0; i-- {
		j, err := uniformInt(rnd, uint64(i+1))
		if err != nil {
			return err
		}
		batch[i], batch[j] = batch[j], batch[i]
	}
	return nil
}

// uniformInt returns a uniform value in [0, n) using rejection sampling.
func uniformInt(rnd io.Reader, n uint64) (uint64, error) {
	if n == 0 {
		panic("mixnet: uniformInt(0)")
	}
	max := ^uint64(0) - (^uint64(0) % n) // largest multiple of n
	var buf [8]byte
	for {
		if _, err := io.ReadFull(rnd, buf[:]); err != nil {
			return 0, err
		}
		v := binary.BigEndian.Uint64(buf[:])
		if v < max {
			return v % n, nil
		}
	}
}
