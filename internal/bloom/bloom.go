// Package bloom implements the Bloom filter encoding of dialing mailboxes
// (§5.2 of the paper).
//
// The last mixnet server encodes each dialing mailbox's set of 256-bit dial
// tokens into a Bloom filter, choosing parameters for the number of tokens
// it actually holds. Alpenhorn targets a false-positive rate of 1e-10 using
// 48 bits per element, which shrinks the mailbox 5.3x compared to shipping
// raw tokens while guaranteeing no false negatives (an incoming call is
// never missed; a false positive merely triggers one phantom IncomingCall
// callback roughly once a decade).
package bloom

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// DefaultBitsPerElement is the paper's 48 bits/element design point.
const DefaultBitsPerElement = 48

// Filter is a Bloom filter over byte-string elements. The zero value is not
// usable; call New.
type Filter struct {
	bits    []byte
	m       uint64 // number of bits
	k       uint32 // number of hash probes
	entries uint64 // number of Add calls (for introspection only)
}

// OptimalHashes returns the false-positive-minimizing number of hash probes
// for a given bits-per-element budget: k = round(b·ln 2).
func OptimalHashes(bitsPerElement int) uint32 {
	k := uint32(math.Round(float64(bitsPerElement) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return k
}

// New creates a filter sized for n elements at the given bits-per-element
// budget. n == 0 is allowed and produces a minimal filter.
func New(n int, bitsPerElement int) *Filter {
	if n < 0 {
		panic("bloom: negative element count")
	}
	if bitsPerElement <= 0 {
		panic("bloom: bits per element must be positive")
	}
	m := uint64(n) * uint64(bitsPerElement)
	if m < 64 {
		m = 64
	}
	return &Filter{
		bits: make([]byte, (m+7)/8),
		m:    m,
		k:    OptimalHashes(bitsPerElement),
	}
}

// NewFromElements builds a filter sized for exactly the given elements and
// inserts them all. This is the last mixnet server's per-mailbox encoding
// step; keeping it a single call lets mailbox construction shard whole
// filters across workers without exposing partially built state.
func NewFromElements(elems [][]byte, bitsPerElement int) *Filter {
	f := New(len(elems), bitsPerElement)
	for _, e := range elems {
		f.Add(e)
	}
	return f
}

// probes derives the k bit positions for an element: 64 bits of its SHA-256
// digest seed a splitmix64 stream, and a multiply-high maps each output
// onto [0, m). Double hashing (h1 + i·h2 mod m) fixes a probe set by two
// residues mod m, so two elements share one outright with probability
// ~1/m²: 1e-3 to 1e-6 for the few-token mailboxes of a quiet round, not
// the design's 1e-10.
func (f *Filter) probes(elem []byte, fn func(pos uint64) bool) {
	d := sha256.Sum256(elem)
	s := binary.BigEndian.Uint64(d[0:8])
	for i := uint32(0); i < f.k; i++ {
		s += 0x9e3779b97f4a7c15
		z := (s ^ s>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		pos, _ := bits.Mul64(z^z>>31, f.m)
		if !fn(pos) {
			return
		}
	}
}

// Add inserts an element.
func (f *Filter) Add(elem []byte) {
	f.probes(elem, func(pos uint64) bool {
		f.bits[pos/8] |= 1 << (pos % 8)
		return true
	})
	f.entries++
}

// Test reports whether elem may be in the set. False positives occur with
// probability ~FalsePositiveRate; false negatives never occur.
func (f *Filter) Test(elem []byte) bool {
	found := true
	f.probes(elem, func(pos uint64) bool {
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			found = false
			return false
		}
		return true
	})
	return found
}

// Entries returns the number of elements added.
func (f *Filter) Entries() uint64 { return f.entries }

// SizeBytes returns the size of the filter's bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) }

// FalsePositiveRate estimates the filter's false-positive probability for
// the number of elements actually added: (1 − e^(−kn/m))^k.
func (f *Filter) FalsePositiveRate() float64 {
	if f.entries == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.entries) / float64(f.m)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}

// Marshal encodes the filter: m ‖ k ‖ entries ‖ bits.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8+4+8+len(f.bits))
	binary.BigEndian.PutUint64(out[0:8], f.m)
	binary.BigEndian.PutUint32(out[8:12], f.k)
	binary.BigEndian.PutUint64(out[12:20], f.entries)
	copy(out[20:], f.bits)
	return out
}

// maxHashes bounds the probe count Unmarshal accepts. A mailbox comes from
// whichever CDN node or frontend serves it, and k is what one Test costs;
// the mixnet's filters use OptimalHashes(DefaultBitsPerElement) = 33.
const maxHashes = 64

// Unmarshal decodes a filter encoded with Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 20 {
		return nil, errors.New("bloom: encoding too short")
	}
	m := binary.BigEndian.Uint64(data[0:8])
	k := binary.BigEndian.Uint32(data[8:12])
	entries := binary.BigEndian.Uint64(data[12:20])
	if k == 0 || k > maxHashes || m == 0 {
		return nil, errors.New("bloom: invalid parameters")
	}
	// ⌈m/8⌉ without the m+7 that wraps for m near 2⁶⁴.
	if uint64(len(data)-20) != m/8+(m%8+7)/8 {
		return nil, errors.New("bloom: bit array length mismatch")
	}
	f := &Filter{bits: make([]byte, len(data)-20), m: m, k: k, entries: entries}
	copy(f.bits, data[20:])
	return f, nil
}
