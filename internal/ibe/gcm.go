package ibe

import (
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
)

// Hand-rolled AES-GCM opening for the batched scan path. The stdlib route
// (aes.NewCipher + cipher.NewGCM + Open) costs four heap allocations per
// ciphertext — the dominant allocation cost of DecryptBatch once the bn254
// pipeline underneath runs at zero. Driving the GCM mode by hand over the
// raw cipher.Block gets trial decryption down to ONE allocation per
// ciphertext (the AES key schedule), with plaintexts carved from a shared
// per-batch arena.
//
// GHASH uses Shoup's 4-bit table method. Table indices are ciphertext
// nibbles — public data — so lookups are not secret-dependent; the table
// CONTENTS depend on the hash key but are only ever XORed. Tag comparison
// is constant-time, and the ciphertext is only decrypted after the tag
// verifies. The stdlib path (aeadOpen) is retained untouched on the scalar
// Decrypt route, and differential + fuzz tests pin this
// implementation against it on every batch shape.

const gcmTagSize = 16

// gf128 is an element of GF(2¹²⁸) in the GCM convention: bits are stored
// big-endian, so the coefficient of x⁰ is lo>>63 and the coefficient of
// x¹²⁷ is hi&1 ("doubling" is therefore a right shift).
type gf128 struct {
	lo, hi uint64
}

// gf128Double multiplies x by the polynomial x, reducing by the GCM
// modulus 1 + x + x² + x⁷ + x¹²⁸.
func gf128Double(x gf128) (d gf128) {
	msbSet := x.hi&1 == 1
	d.hi = x.hi >> 1
	d.hi |= x.lo << 63
	d.lo = x.lo >> 1
	if msbSet {
		d.lo ^= 0xe100000000000000
	}
	return
}

// gf128ReverseBits reverses the bit order of a 4-bit value — table slots
// are indexed by data nibbles, whose bits arrive in the reverse of the
// field's coefficient order.
func gf128ReverseBits(i int) int {
	i = ((i << 2) & 0xc) | ((i >> 2) & 0x3)
	i = ((i << 1) & 0xa) | ((i >> 1) & 0x5)
	return i
}

// gf128ReductionTable folds the four low-degree terms of the modulus for
// each possible 4-bit carry-out of a shift-by-16 step.
var gf128ReductionTable = [16]uint16{
	0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
	0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
}

// ghashTable holds the sixteen multiples {0·H, 1·H, …, 15·H} of the hash
// key in bit-reversed slot order.
type ghashTable [16]gf128

func newGhashTable(h *[16]byte) (tbl ghashTable) {
	x := gf128{
		lo: binary.BigEndian.Uint64(h[:8]),
		hi: binary.BigEndian.Uint64(h[8:]),
	}
	tbl[gf128ReverseBits(1)] = x
	for i := 2; i < 16; i += 2 {
		tbl[gf128ReverseBits(i)] = gf128Double(tbl[gf128ReverseBits(i/2)])
		d := tbl[gf128ReverseBits(i)]
		tbl[gf128ReverseBits(i+1)] = gf128{d.lo ^ x.lo, d.hi ^ x.hi}
	}
	return
}

// mul sets y = y·H, four bits at a time: shift y through z nibble-wise,
// folding each carry through the reduction table and adding the matching
// precomputed multiple of H.
func (tbl *ghashTable) mul(y *gf128) {
	var z gf128
	for i := 0; i < 2; i++ {
		word := y.hi
		if i == 1 {
			word = y.lo
		}
		for j := 0; j < 64; j += 4 {
			msw := z.hi & 0xf
			z.hi >>= 4
			z.hi |= z.lo << 60
			z.lo >>= 4
			z.lo ^= uint64(gf128ReductionTable[msw]) << 48
			t := &tbl[word&0xf]
			z.lo ^= t.lo
			z.hi ^= t.hi
			word >>= 4
		}
	}
	*y = z
}

// absorb folds data into the running GHASH state y (Horner's rule), zero-
// padding the trailing partial block per the GCM spec.
func (tbl *ghashTable) absorb(y *gf128, data []byte) {
	for len(data) >= 16 {
		y.lo ^= binary.BigEndian.Uint64(data)
		y.hi ^= binary.BigEndian.Uint64(data[8:])
		tbl.mul(y)
		data = data[16:]
	}
	if len(data) > 0 {
		var partial [16]byte
		copy(partial[:], data)
		y.lo ^= binary.BigEndian.Uint64(partial[:8])
		y.hi ^= binary.BigEndian.Uint64(partial[8:])
		tbl.mul(y)
	}
}

// gcmScratch holds the block-sized buffers gcmOpen feeds through the
// cipher.Block interface. Escape analysis cannot keep slices that cross an
// interface call on the stack, so these live in the (pooled) caller
// scratch instead of allocating four times per ciphertext.
type gcmScratch struct {
	h, ctr, expect, ks [16]byte
}

// gcmOpen verifies and decrypts box (ciphertext ‖ 16-byte tag) under key
// with the all-zero 12-byte nonce and no additional data — exactly the
// parameters of aeadSeal/aeadOpen, whose keys are unique per encryption.
// The plaintext is appended to dst (a zero-length slice with capacity
// len(box)−16 plus a reused scr keep the call at one allocation: the AES
// key schedule); nil is returned on authentication failure, before any
// plaintext byte is produced.
func gcmOpen(key, dst, box []byte, scr *gcmScratch) ([]byte, bool) {
	if len(box) < gcmTagSize {
		return nil, false
	}
	if scr == nil {
		scr = new(gcmScratch)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		panic("ibe: " + err.Error())
	}
	ct := box[:len(box)-gcmTagSize]
	tag := box[len(box)-gcmTagSize:]

	// Hash key H = E_K(0¹²⁸).
	scr.h = [16]byte{}
	block.Encrypt(scr.h[:], scr.h[:])
	tbl := newGhashTable(&scr.h)

	// S = GHASH_H(C ‖ len(A)·8 ‖ len(C)·8), with A empty.
	var y gf128
	tbl.absorb(&y, ct)
	y.hi ^= uint64(len(ct)) * 8
	tbl.mul(&y)

	// Expected tag = S ⊕ E_K(J₀), J₀ = nonce ‖ 0x00000001.
	scr.ctr = [16]byte{}
	scr.ctr[15] = 1
	block.Encrypt(scr.expect[:], scr.ctr[:])
	binary.BigEndian.PutUint64(scr.expect[:8], binary.BigEndian.Uint64(scr.expect[:8])^y.lo)
	binary.BigEndian.PutUint64(scr.expect[8:], binary.BigEndian.Uint64(scr.expect[8:])^y.hi)
	if subtle.ConstantTimeCompare(scr.expect[:], tag) != 1 {
		return nil, false
	}

	// CTR keystream from counter 2 (counter 1 fed the tag mask).
	counter := uint32(1)
	for off := 0; off < len(ct); off += 16 {
		counter++
		binary.BigEndian.PutUint32(scr.ctr[12:], counter)
		block.Encrypt(scr.ks[:], scr.ctr[:])
		n := len(ct) - off
		if n > 16 {
			n = 16
		}
		for j := 0; j < n; j++ {
			dst = append(dst, ct[off+j]^scr.ks[j])
		}
	}
	return dst, true
}
