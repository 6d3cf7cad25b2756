package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// TestReadFrameRoundTrip pins the framing across the stepped-read
// boundaries: whatever writeFrame wrote, readFrame returns byte for byte.
func TestReadFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, frameReadStep - 1, frameReadStep, frameReadStep + 1, 2 * frameReadStep, 5*frameReadStep + 17} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, payload); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(&wire)
		if err != nil {
			t.Fatalf("%d-byte frame: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame changed in transit", n)
		}
	}
}

// TestReadFrameAllocatesWhatArrives is the unauthenticated-peer case: a
// four-byte header may claim maxMessageSize, but what readFrame allocates
// must follow the bytes that actually arrive, not the claim.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxMessageSize)
	for _, sent := range []int{0, 100, 3 * frameReadStep} {
		stream := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(make([]byte, sent)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(stream)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("frame cut off after %d of %d bytes was accepted", sent, maxMessageSize)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(4*sent + 2*frameReadStep); allocated > limit {
			t.Fatalf("peer sent %d bytes of a claimed %d; readFrame allocated %d (limit %d)",
				sent, maxMessageSize, allocated, limit)
		}
	}

	binary.BigEndian.PutUint32(hdr[:], maxMessageSize+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("frame over maxMessageSize accepted")
	}
}
