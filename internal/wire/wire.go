// Package wire defines Alpenhorn's binary message formats and a small
// error-sticky codec used to serialize them.
//
// Two properties of the encoding matter for metadata privacy:
//
//  1. Requests are FIXED SIZE. Every client submits exactly one
//     equally-sized onion per round (real or cover), so an observer learns
//     nothing from request sizes or presence.
//  2. Encodings are canonical: signatures are computed over the serialized
//     bytes, so there must be exactly one encoding per message.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Service identifies which of Alpenhorn's two protocols a round belongs to.
type Service uint8

const (
	// AddFriend is the add-friend protocol (§4).
	AddFriend Service = 1
	// Dialing is the dialing protocol (§5).
	Dialing Service = 2
)

// String implements fmt.Stringer.
func (s Service) String() string {
	switch s {
	case AddFriend:
		return "addfriend"
	case Dialing:
		return "dialing"
	default:
		return fmt.Sprintf("service(%d)", uint8(s))
	}
}

// Buffer is an append-only encoder. Write methods never fail.
type Buffer struct {
	b []byte
}

// NewBuffer returns an encoder, optionally wrapping an existing slice.
func NewBuffer(b []byte) *Buffer { return &Buffer{b: b} }

// Bytes returns the encoded bytes.
func (w *Buffer) Bytes() []byte { return w.b }

// Uint8 appends a byte.
func (w *Buffer) Uint8(v uint8) { w.b = append(w.b, v) }

// Uint32 appends a big-endian uint32.
func (w *Buffer) Uint32(v uint32) {
	w.b = binary.BigEndian.AppendUint32(w.b, v)
}

// Uint64 appends a big-endian uint64.
func (w *Buffer) Uint64(v uint64) {
	w.b = binary.BigEndian.AppendUint64(w.b, v)
}

// Raw appends bytes with no length prefix (fixed-size fields).
func (w *Buffer) Raw(v []byte) { w.b = append(w.b, v...) }

// Bytes16 appends a 16-bit length prefix followed by the bytes.
func (w *Buffer) Bytes16(v []byte) {
	if len(v) > 1<<16-1 {
		panic("wire: Bytes16 value too long")
	}
	w.b = binary.BigEndian.AppendUint16(w.b, uint16(len(v)))
	w.b = append(w.b, v...)
}

// Bytes32 appends a 32-bit length prefix followed by the bytes.
func (w *Buffer) Bytes32(v []byte) {
	w.b = binary.BigEndian.AppendUint32(w.b, prefix32(len(v)))
	w.b = append(w.b, v...)
}

// prefix32 returns n as a 32-bit length prefix. It panics past 2³² − 1,
// the longest length the prefix can count.
func prefix32(n int) uint32 {
	if uint64(n) > 1<<32-1 {
		panic("wire: Bytes32 value too long")
	}
	return uint32(n)
}

// String16 appends a length-prefixed string.
func (w *Buffer) String16(v string) { w.Bytes16([]byte(v)) }

// PaddedString appends a string into a fixed-size field: 1 length byte plus
// size content bytes (zero padded). It panics if the string is too long;
// callers validate lengths at API boundaries.
func (w *Buffer) PaddedString(v string, size int) {
	if len(v) > size || size > 255 {
		panic("wire: string does not fit padded field")
	}
	w.b = append(w.b, uint8(len(v)))
	w.b = append(w.b, v...)
	w.b = append(w.b, make([]byte, size-len(v))...)
}

// ErrShortMessage is returned when a decode runs past the end of input.
var ErrShortMessage = errors.New("wire: message too short")

// Reader is an error-sticky decoder: after the first failure, all further
// reads return zero values and Err() reports the failure.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a decoder over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// AllConsumed sets an error if any input remains (canonical encodings must
// consume everything).
func (r *Reader) AllConsumed() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrShortMessage
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// Raw reads exactly n bytes (copied).
func (r *Reader) Raw(n int) []byte {
	v := r.take(n)
	if v == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, v)
	return out
}

// Bytes16 reads a 16-bit length-prefixed byte string.
func (r *Reader) Bytes16() []byte {
	v := r.take(2)
	if v == nil {
		return nil
	}
	return r.Raw(int(binary.BigEndian.Uint16(v)))
}

// Bytes32 reads a 32-bit length-prefixed byte string.
func (r *Reader) Bytes32() []byte {
	v := r.take(4)
	if v == nil {
		return nil
	}
	n := binary.BigEndian.Uint32(v)
	if uint64(n) > uint64(len(r.b)) {
		r.err = ErrShortMessage
		return nil
	}
	return r.Raw(int(n))
}

// String16 reads a length-prefixed string.
func (r *Reader) String16() string { return string(r.Bytes16()) }

// PaddedString reads a fixed-size string field written by
// Buffer.PaddedString.
func (r *Reader) PaddedString(size int) string {
	n := r.Uint8()
	content := r.take(size)
	if content == nil {
		return ""
	}
	if int(n) > size {
		r.err = fmt.Errorf("wire: padded string length %d exceeds field size %d", n, size)
		return ""
	}
	for _, b := range content[n:] {
		if b != 0 {
			r.err = errors.New("wire: nonzero padding in padded string")
			return ""
		}
	}
	return string(content[:n])
}
