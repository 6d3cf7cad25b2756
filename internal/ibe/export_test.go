package ibe

import "io"

// NewDeterministicReader exposes the keyed test stream to the external
// test package (which may import wire; ibe itself may not).
func NewDeterministicReader(key string) io.Reader {
	return &deterministicReader{key: []byte(key)}
}
