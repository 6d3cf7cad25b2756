// Package aead is the one AES-GCM construction the protocol seals with:
// AES-256-GCM under a key that seals exactly one message, with the
// all-zero 96-bit nonce and no additional data. Onion layers (onionbox)
// and IBE ciphertexts (ibe) both derive a fresh key per box, so a fixed
// nonce is safe, as in NaCl's ephemeral-key box. The bytes are those of
// crypto/cipher's GCM with the same key and nonce; differential tests and
// FuzzAEADMatchesStdlib pin them.
//
// # Why not crypto/cipher
//
// The standard route builds the GCM state twice per message: the key
// schedule aes.NewCipher returns, then crypto/cipher's GCM constructor
// copies it and adds a GHASH table (1,280 B in two allocations a message
// with go1.24 on amd64, on every hop of every onion). Here the mode is
// driven over the raw cipher.Block, and the block-sized buffers that cross
// its interface live in pooled scratch, so a message costs ONE heap
// allocation (512 B): the key schedule, which aes.NewCipher returns behind
// an interface and so cannot leave on the caller's stack.
//
// # Timing model
//
// The secrets: the key, the hash key H = E_K(0¹²⁸) and every product with
// it (the running GHASH state), the tag mask E_K(J₀) and the keystream.
// None of them selects a branch or a memory address here. AES is
// crypto/aes's: constant-time on its hardware paths (AES-NI on amd64, the
// ARMv8 instructions on arm64), table-based in its portable fallback, as
// under crypto/cipher's GCM. GHASH multiplies without tables: each
// 64×64-bit carry-less product is sixteen integer multiplications of
// operand parts masked to every fourth bit, whose carries land in bits
// that are masked away (the construction of BearSSL's ghash_ctmul64). A
// 4-bit table would be indexed by nibbles of the running state, which is
// secret from the second block on. The tag comparison is
// subtle.ConstantTimeCompare, and Open decrypts nothing before the tag
// verifies. Lengths are public. The pooled scratch is zeroed before it
// goes back to the pool.
package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"math/bits"
	"sync"
)

const (
	// KeySize is the key length: AES-256.
	KeySize = 32
	// Overhead is the tag a box carries after its ciphertext.
	Overhead = 16
)

// scratch holds the blocks that cross the cipher.Block interface, which
// escape analysis would otherwise move to the heap on every call.
type scratch struct {
	ctr, ks [16]byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// state is one message's mode: the cipher, its GHASH key and the tag mask.
type state struct {
	block   cipher.Block
	s       *scratch
	h       ghashKey
	m1, m0  uint64 // E_K(J₀), J₀ = nonce ‖ 0x00000001, big-endian halves
	counter uint32
}

func newState(key *[KeySize]byte) state {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("aead: " + err.Error()) // unreachable: the key length is fixed
	}
	st := state{block: block, s: scratchPool.Get().(*scratch), counter: 1}
	s := st.s
	block.Encrypt(s.ks[:], s.ctr[:]) // the pool hands out zeroed scratch
	st.h = newGhashKey(&s.ks)
	s.ctr[15] = 1
	block.Encrypt(s.ks[:], s.ctr[:])
	st.m1 = binary.BigEndian.Uint64(s.ks[:8])
	st.m0 = binary.BigEndian.Uint64(s.ks[8:])
	return st
}

// release zeroes the scratch and returns it to the pool.
func (st *state) release() {
	*st.s = scratch{}
	scratchPool.Put(st.s)
}

// xorKeyStream sets dst to src XOR the CTR keystream from counter 2 on
// (counter 1 made the tag mask). dst and src are the same length and
// either equal or disjoint.
func (st *state) xorKeyStream(dst, src []byte) {
	s := st.s
	for len(src) > 0 {
		st.counter++
		binary.BigEndian.PutUint32(s.ctr[12:], st.counter)
		st.block.Encrypt(s.ks[:], s.ctr[:])
		if len(src) < 16 {
			subtle.XORBytes(dst, src, s.ks[:len(src)])
			return
		}
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src)^binary.LittleEndian.Uint64(s.ks[:]))
		binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(src[8:])^binary.LittleEndian.Uint64(s.ks[8:]))
		dst, src = dst[16:], src[16:]
	}
}

// tag computes GHASH_H(ct ‖ len(ct)·8) ⊕ E_K(J₀) into out.
func (st *state) tag(out *[16]byte, ct []byte) {
	y1, y0 := st.h.absorb(0, 0, ct)
	y1, y0 = st.h.mul(y1, y0^uint64(len(ct))*8)
	binary.BigEndian.PutUint64(out[:8], y1^st.m1)
	binary.BigEndian.PutUint64(out[8:], y0^st.m0)
}

// Seal encrypts the message at box[:len(box)−Overhead] in place under key
// and writes its tag into the last Overhead bytes, which may hold
// anything before the call. It panics if box is shorter than Overhead.
func Seal(key *[KeySize]byte, box []byte) {
	n := len(box) - Overhead
	if n < 0 {
		panic("aead: box shorter than its tag")
	}
	msg := box[:n]
	st := newState(key)
	st.xorKeyStream(msg, msg)
	st.tag((*[16]byte)(box[n:]), msg)
	st.release()
}

// Open authenticates box (ciphertext ‖ tag) under key and appends its
// plaintext to dst, growing dst at most once, to exactly the room the
// plaintext needs. On failure it returns dst and false and has written
// nothing: the plaintext is produced only after the tag verifies. dst's
// spare capacity must not overlap box.
func Open(dst []byte, key *[KeySize]byte, box []byte) ([]byte, bool) {
	if len(box) < Overhead {
		return dst, false
	}
	ct := box[:len(box)-Overhead]
	st := newState(key)
	defer st.release()
	var want [16]byte
	st.tag(&want, ct)
	if subtle.ConstantTimeCompare(want[:], box[len(ct):]) != 1 {
		return dst, false
	}
	ret, out := sliceForAppend(dst, len(ct))
	st.xorKeyStream(out, ct)
	return ret, true
}

// sliceForAppend extends in by n bytes, reallocating once if its capacity
// is short, and returns the whole and the n-byte tail.
func sliceForAppend(in []byte, n int) (head, tail []byte) {
	if total := len(in) + n; cap(in) >= total {
		head = in[:total]
	} else {
		head = make([]byte, total)
		copy(head, in)
	}
	return head, head[len(in):]
}

// ghashKey is the hash key H prepared for the carry-less multiplier, in
// GCM's bit order (a block read big-endian holds the coefficient of x⁰ in
// its top bit): its halves h1 ‖ h0, their XOR h2 (Karatsuba's middle
// term), and the bit reversals of all three, which give the upper halves
// of the 64×64-bit products.
type ghashKey struct {
	h0, h1, h2, h0r, h1r, h2r uint64
}

func newGhashKey(h *[16]byte) ghashKey {
	k := ghashKey{h1: binary.BigEndian.Uint64(h[:8]), h0: binary.BigEndian.Uint64(h[8:])}
	k.h2 = k.h0 ^ k.h1
	k.h0r, k.h1r = bits.Reverse64(k.h0), bits.Reverse64(k.h1)
	k.h2r = k.h0r ^ k.h1r
	return k
}

// absorb folds data into the GHASH state y1 ‖ y0 by Horner's rule,
// zero-padding a trailing partial block.
func (k *ghashKey) absorb(y1, y0 uint64, data []byte) (uint64, uint64) {
	for len(data) >= 16 {
		y1, y0 = k.mul(y1^binary.BigEndian.Uint64(data), y0^binary.BigEndian.Uint64(data[8:]))
		data = data[16:]
	}
	if len(data) > 0 {
		var last [16]byte
		copy(last[:], data)
		y1, y0 = k.mul(y1^binary.BigEndian.Uint64(last[:8]), y0^binary.BigEndian.Uint64(last[8:]))
	}
	return y1, y0
}

// mul returns (y1 ‖ y0)·H in GF(2¹²⁸) modulo x¹²⁸ + x⁷ + x² + x + 1.
//
// In GCM's bit order a field element is the bit reversal of its
// polynomial, so the 255-bit carry-less product of two elements is the
// reversal of the polynomial product, one bit short of 256: shifted left
// once, its upper 128 bits hold the coefficients of x⁰…x¹²⁷ and its lower
// 128 bits those of x¹²⁸…x²⁵⁵, which fold back through x¹²⁸ = x⁷+x²+x+1
// (multiplying by x is a right shift in this order).
func (k *ghashKey) mul(y1, y0 uint64) (uint64, uint64) {
	y0r, y1r := bits.Reverse64(y0), bits.Reverse64(y1)
	y2, y2r := y0^y1, y0r^y1r

	// Three 128-bit products by Karatsuba, each as its low 64 bits and,
	// from the reversed operands, its high 64.
	z0 := bmul64(y0, k.h0)
	z1 := bmul64(y1, k.h1)
	z2 := bmul64(y2, k.h2)
	z0h := bmul64(y0r, k.h0r)
	z1h := bmul64(y1r, k.h1r)
	z2h := bmul64(y2r, k.h2r)
	z2 ^= z0 ^ z1
	z2h ^= z0h ^ z1h
	z0h = bits.Reverse64(z0h) >> 1
	z1h = bits.Reverse64(z1h) >> 1
	z2h = bits.Reverse64(z2h) >> 1

	// The 256-bit product v3 ‖ v2 ‖ v1 ‖ v0, shifted left once.
	v0, v1, v2, v3 := z0, z0h^z2, z1^z2h, z1h
	v3 = v3<<1 | v2>>63
	v2 = v2<<1 | v1>>63
	v1 = v1<<1 | v0>>63
	v0 <<= 1

	// Fold x¹²⁸…x²⁵⁵ (v1 ‖ v0) back, highest degrees first.
	v2 ^= v0 ^ v0>>1 ^ v0>>2 ^ v0>>7
	v1 ^= v0<<63 ^ v0<<62 ^ v0<<57
	v3 ^= v1 ^ v1>>1 ^ v1>>2 ^ v1>>7
	v2 ^= v1<<63 ^ v1<<62 ^ v1<<57
	return v3, v2
}

// bmul64 returns the low 64 bits of the carry-less product of x and y.
// Each operand is split into four parts holding every fourth bit, so an
// integer product of two parts has terms in every fourth bit only. Below
// bit 60 at most 15 terms meet in a bit, and their sum fits in that bit
// and the three above it, which belong to the other parts and are masked
// away; from bit 60 on, a sum of 16 carries out of the word.
func bmul64(x, y uint64) uint64 {
	const (
		m0 = 0x1111111111111111
		m1 = 0x2222222222222222
		m2 = 0x4444444444444444
		m3 = 0x8888888888888888
	)
	x0, x1, x2, x3 := x&m0, x&m1, x&m2, x&m3
	y0, y1, y2, y3 := y&m0, y&m1, y&m2, y&m3
	z0 := x0*y0 ^ x1*y3 ^ x2*y2 ^ x3*y1
	z1 := x0*y1 ^ x1*y0 ^ x2*y3 ^ x3*y2
	z2 := x0*y2 ^ x1*y1 ^ x2*y0 ^ x3*y3
	z3 := x0*y3 ^ x1*y2 ^ x2*y1 ^ x3*y0
	return z0&m0 | z1&m1 | z2&m2 | z3&m3
}
