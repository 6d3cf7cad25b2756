package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/wire"
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

// FuzzDecodeFrame: a frame payload comes from an unauthenticated peer.
// Decoding never panics; a data frame's blob count is checked against the
// bytes present before the blob table is allocated; and an accepted frame
// has one encoding, so it re-encodes to the bytes it came from.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(`{"method":"mix.info","params":{}}`))
	f.Add([]byte{})
	f.Add(encodeFrame(nil, []byte(`{"method":"mix.stream.chunk"}`), [][]byte{[]byte("onion"), {}, []byte("x")}))
	f.Add(encodeFrame(nil, nil, [][]byte{{}}))
	f.Add([]byte{dataFrame, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		env, bs, err := decodeFrame(payload)
		if err != nil {
			return
		}
		if len(bs) > len(payload)/4 {
			t.Fatalf("%d blobs out of a %d-byte frame", len(bs), len(payload))
		}
		for i, b := range bs {
			if cap(b) != len(b) {
				t.Fatalf("blob %d has capacity %d past its %d bytes", i, cap(b), len(b))
			}
		}
		if again := encodeFrame(nil, env, bs); !bytes.Equal(again, payload) {
			t.Fatalf("frame %x re-encodes as %x", payload, again)
		}
	})
}

// TestDataFrameRoundTrip sends blobs both ways through a Call: the handler
// and the caller each receive exactly what the other sent, as slices of the
// one frame buffer, and the JSON fields beside them arrive too.
func TestDataFrameRoundTrip(t *testing.T) {
	sent := [][]byte{[]byte("first onion"), {}, bytes.Repeat([]byte{0xAA}, 3*frameReadStep/2)}
	s := NewServer()
	HandleFunc(s, "echo", func(a keyedBlobs) (any, error) {
		if err := a.check(); err != nil {
			return nil, err
		}
		// Each non-empty blob starts where the one before it ended: they
		// are consecutive stretches of the frame buffer, not copies.
		var end unsafe.Pointer
		for _, b := range a.blobs {
			if len(b) == 0 {
				continue
			}
			if start := unsafe.Pointer(unsafe.SliceData(b)); end != nil && start != end {
				return nil, errors.New("blobs are not consecutive slices of the frame")
			}
			end = unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), len(b))
		}
		return a, nil
	})
	addr, err := s.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()

	var in, out keyedBlobs
	for i, b := range sent {
		in.add(uint32(i+7), b)
	}
	if err := c.Call("echo", in, &out); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Keys, in.Keys) || len(out.blobs) != len(sent) {
		t.Fatalf("echo returned keys %v and %d blobs, want %v and %d", out.Keys, len(out.blobs), in.Keys, len(sent))
	}
	for i := range sent {
		if !bytes.Equal(out.blobs[i], sent[i]) {
			t.Fatalf("blob %d changed in transit", i)
		}
	}
	if err := c.Call("echo", struct {
		blobs
	}{blobs{[]byte("stray")}}, nil); err == nil {
		t.Fatal("a blob without its key was accepted")
	}
	HandleFunc(s, "plain", func(struct{}) (any, error) { return nil, nil })
	if err := c.Call("plain", blobReply{blobs{[]byte("stray")}}, nil); err == nil {
		t.Fatal("a method whose params carry no blobs accepted some")
	}
}

// TestControlFramesUnchanged pins the bytes of a control call, the
// mix.info handshake every peer reads, as they were recorded before data
// frames existed (protocol version 2): the request, and the reply but for
// the version number itself.
func TestControlFramesUnchanged(t *testing.T) {
	const (
		wantReq   = `{"method":"mix.info","params":{}}`
		wantReply = `{"result":{"name":"golden","position":1,"signing_key":"bxWBcJu3se8DDSENsY47C6HHdvumXYzarQVBUULRifg=","add_friend_mu":2,"dialing_mu":3,"protocol_version":%d,"shard_index":1,"shard_count":2}}`
	)
	af, dl := noise.Laplace{Mu: 2}, noise.Laplace{Mu: 3}
	m, err := mixnet.New(mixnet.Config{
		Name: "golden", Position: 1, ChainLength: 3, AddFriendNoise: &af, DialingNoise: &dl,
		ShardIndex: 1, ShardCount: 2, Rand: mathrand.New(mathrand.NewSource(1)), Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	RegisterMixer(s, m)
	// The client and the server talk through a relay that records the
	// request frame and the reply frame.
	cliEnd, relayCli := net.Pipe()
	relaySrv, srvEnd := net.Pipe()
	go s.serveConn(srvEnd)
	frames := make(chan []byte, 2)
	go func() {
		defer close(frames)
		for _, hop := range [][2]net.Conn{{relayCli, relaySrv}, {relaySrv, relayCli}} {
			payload, err := readFrame(hop[0])
			if err != nil {
				return
			}
			frames <- payload
			writeFrame(hop[1], payload)
		}
	}()
	c := Dial("mem:golden")
	c.conn = cliEnd
	defer c.Close()
	var info MixerInfo
	if err := c.Call("mix.info", struct{}{}, &info); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{wantReq, fmt.Sprintf(wantReply, ProtocolVersion)} {
		if payload := <-frames; string(payload) != want {
			t.Fatalf("control frame %q, want %q", payload, want)
		}
	}
}

// TestDataFrameSendAllocations: a mix.stream.chunk of 64 onions of 200 B,
// sent over mem: to a peer that reads every frame into one reused buffer
// and answers each with the same empty reply, allocates less on the
// sending side than the 12,800 B of onions it carries — the frame is built
// in a pooled buffer, not a fresh one per call.
func TestDataFrameSendAllocations(t *testing.T) {
	ln, err := listenMem("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerDone := make(chan struct{})
	defer func() { <-peerDone }()
	go func() {
		defer close(peerDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var reply bytes.Buffer
		writeFrame(&reply, []byte(`{}`))
		buf := make([]byte, 1<<16)
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			n := binary.BigEndian.Uint32(hdr[:])
			if n > uint32(len(buf)) {
				return
			}
			if _, err := io.ReadFull(conn, buf[:n]); err != nil {
				return
			}
			if _, err := conn.Write(reply.Bytes()); err != nil {
				return
			}
		}
	}()
	c := Dial(ln.Addr().String())
	defer c.Close()

	chunk := chunkArgs{Service: wire.Dialing, Round: 1}
	payload := 0
	for i := 0; i < 64; i++ {
		chunk.blobs = append(chunk.blobs, bytes.Repeat([]byte{byte(i)}, 200))
		payload += 200
	}
	send := func() {
		if err := c.CallOnce("mix.stream.chunk", chunk, nil); err != nil {
			t.Fatal(err)
		}
	}
	send() // dials, and leaves a frame buffer in the pool
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if perCall >= uint64(payload) {
		t.Fatalf("sending a chunk of %d B of onions allocates %d B", payload, perCall)
	}
	t.Logf("sending a chunk of %d B of onions allocates %d B", payload, perCall)
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestControlCallAllocs pins what a call without payload allocates, on
// both ends of a mem: connection, against the count before data frames
// existed: 31, or 33 in a -race build.
func TestControlCallAllocs(t *testing.T) {
	limit := 31.0
	if raceEnabled {
		limit = 33
	}
	s := NewServer()
	HandleFunc(s, "sink", func(struct{}) (any, error) { return nil, nil })
	addr, err := s.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()
	if err := c.Call("sink", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun counts every goroutine's allocations, so a straggler
	// from an earlier test can lift one measurement; the lowest of three
	// is the call's own count.
	n := testing.AllocsPerRun(200, func() { c.Call("sink", struct{}{}, nil) })
	for i := 0; i < 2 && n > limit; i++ {
		n = min(n, testing.AllocsPerRun(200, func() { c.Call("sink", struct{}{}, nil) }))
	}
	if n > limit {
		t.Fatalf("a control call allocates %.0f times, up from %.0f", n, limit)
	}
	t.Logf("a control call allocates %.0f times", n)
}
