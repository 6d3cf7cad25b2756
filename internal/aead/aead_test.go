package aead

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// The standard library's GCM with the same key, nonce and (absent)
// additional data: the oracle every test here compares against.
func stdlibGCM(key *[KeySize]byte) cipher.AEAD {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return gcm
}

var zeroNonce [12]byte

func stdlibSeal(key *[KeySize]byte, msg []byte) []byte {
	return stdlibGCM(key).Seal(nil, zeroNonce[:], msg, nil)
}

func stdlibOpen(key *[KeySize]byte, box []byte) ([]byte, bool) {
	msg, err := stdlibGCM(key).Open(nil, zeroNonce[:], box, nil)
	return msg, err == nil
}

// seal is Seal on a copy of msg with room for the tag.
func seal(key *[KeySize]byte, msg []byte) []byte {
	box := append(append([]byte(nil), msg...), make([]byte, Overhead)...)
	Seal(key, box)
	return box
}

func randomKey(t testing.TB) *[KeySize]byte {
	var key [KeySize]byte
	if _, err := rand.Read(key[:]); err != nil {
		t.Fatal(err)
	}
	return &key
}

// TestOpenMatchesStdlib pins Seal and Open against crypto/cipher's GCM on
// every message length across the block boundaries: byte-identical boxes
// and plaintexts, and identical rejection of tampered tags, tampered
// ciphertext bytes and truncated boxes, with nothing written on failure.
func TestOpenMatchesStdlib(t *testing.T) {
	key := randomKey(t)
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 48, 100, 256, 352} {
		msg := make([]byte, n)
		if _, err := rand.Read(msg); err != nil {
			t.Fatal(err)
		}
		box := seal(key, msg)
		if want := stdlibSeal(key, msg); !bytes.Equal(box, want) {
			t.Fatalf("len %d: Seal %x, stdlib %x", n, box, want)
		}
		got, ok := Open(make([]byte, 0, n), key, box)
		if !ok || !bytes.Equal(got, msg) {
			t.Fatalf("len %d: Open (%x, %v), want %x", n, got, ok, msg)
		}
		for _, idx := range []int{0, len(box) / 2, len(box) - 1} {
			bad := append([]byte(nil), box...)
			bad[idx] ^= 1
			dst := bytes.Repeat([]byte{0xee}, n)[:0]
			out, ok := Open(dst, key, bad)
			if _, stdOK := stdlibOpen(key, bad); stdOK || ok {
				t.Fatalf("len %d: tampered byte %d accepted (stdlib %v, Open %v)", n, idx, stdOK, ok)
			}
			if len(out) != 0 || !bytes.Equal(dst[:n], bytes.Repeat([]byte{0xee}, n)) {
				t.Fatalf("len %d: Open wrote plaintext on an authentication failure", n)
			}
		}
	}
	for _, box := range [][]byte{nil, {1, 2, 3}, make([]byte, Overhead-1)} {
		if _, ok := Open(nil, key, box); ok {
			t.Fatalf("Open accepted a %d-byte box", len(box))
		}
	}
}

// TestOpenAppends: Open appends after what dst already holds, growing it
// once, to exactly the plaintext's room, when its capacity is short.
func TestOpenAppends(t *testing.T) {
	key := randomKey(t)
	msg := []byte("the message")
	box := seal(key, msg)
	for _, dst := range [][]byte{nil, []byte("head:"), make([]byte, 2, 64)} {
		head := append([]byte(nil), dst...)
		got, ok := Open(dst, key, box)
		if !ok || !bytes.Equal(got, append(head, msg...)) {
			t.Fatalf("Open onto %q = (%q, %v)", head, got, ok)
		}
		if cap(dst) < len(head)+len(msg) && cap(got) != len(got) {
			t.Fatalf("Open grew a %d-byte dst to capacity %d for %d bytes", cap(dst), cap(got), len(got))
		}
	}
}

// TestConcurrentUse: goroutines sealing and opening under their own keys
// share only the scratch pool, and each gets its own box and message back.
func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := sha256.Sum256([]byte{byte(g)})
			for i := 0; i < 200; i++ {
				msg := bytes.Repeat([]byte{byte(g), byte(i)}, i%70)
				box := seal(&key, msg)
				if want := stdlibSeal(&key, msg); !bytes.Equal(box, want) {
					t.Errorf("goroutine %d, message %d: Seal differs from the standard library", g, i)
					return
				}
				if got, ok := Open(nil, &key, box); !ok || !bytes.Equal(got, msg) {
					t.Errorf("goroutine %d, message %d: Open (%x, %v)", g, i, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAllocations pins Seal and Open at what aes.NewCipher alone
// allocates, measured here so that the pin moves with the toolchain, when
// Open's dst has room for the plaintext.
func TestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so the scratch pool never warms")
	}
	key := randomKey(t)
	msg := make([]byte, 48)
	box := seal(key, msg)
	dst := make([]byte, 0, len(msg))
	floor := testing.AllocsPerRun(50, func() { aes.NewCipher(key[:]) })
	if n := testing.AllocsPerRun(50, func() { Seal(key, box) }); n != floor {
		t.Errorf("Seal allocates %.1f times; aes.NewCipher alone %.0f", n, floor)
	}
	box = seal(key, msg)
	if n := testing.AllocsPerRun(50, func() { Open(dst, key, box) }); n != floor {
		t.Errorf("Open into a sized buffer allocates %.1f times; aes.NewCipher alone %.0f", n, floor)
	}
}

// FuzzAEADMatchesStdlib: for any key, message up to 600 bytes, flipped
// bit and truncation, Seal equals crypto/cipher's box byte for byte, and
// Open accepts exactly the boxes the standard library accepts and returns
// the same plaintext. Nothing panics.
func FuzzAEADMatchesStdlib(f *testing.F) {
	f.Add([]byte("key"), []byte{}, uint16(0), uint16(0))
	f.Add([]byte("key"), bytes.Repeat([]byte{7}, 33), uint16(9), uint16(0))
	f.Add([]byte("key"), bytes.Repeat([]byte{1}, 400), uint16(0), uint16(17))
	f.Add(make([]byte, KeySize), bytes.Repeat([]byte{0xff}, 16), uint16(8*16+1), uint16(1))
	f.Fuzz(func(t *testing.T, keySeed, msg []byte, flip, cut uint16) {
		key := sha256.Sum256(keySeed)
		if len(keySeed) == KeySize {
			copy(key[:], keySeed)
		}
		if len(msg) > 600 {
			msg = msg[:600]
		}
		box := seal(&key, msg)
		if want := stdlibSeal(&key, msg); !bytes.Equal(box, want) {
			t.Fatalf("Seal %x, stdlib %x", box, want)
		}
		if flip > 0 {
			bit := int(flip-1) % (8 * len(box))
			box[bit/8] ^= 1 << (bit % 8)
		}
		box = box[:len(box)-int(cut)%(len(box)+1)]
		want, wantOK := stdlibOpen(&key, box)
		got, ok := Open(nil, &key, box)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("Open (%x, %v), stdlib (%x, %v)", got, ok, want, wantOK)
		}
	})
}

var sink []byte

// BenchmarkOpen times Open into a sized buffer against the standard
// library's Open of the same box, at the plaintexts of a 128-B and a
// 400-B onion box (onionbox's BenchmarkOpenAppend sizes).
func BenchmarkOpen(b *testing.B) {
	key := randomKey(b)
	for _, n := range []int{80, 352} {
		box := seal(key, make([]byte, n))
		dst := make([]byte, 0, n)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink, _ = Open(dst, key, box)
			}
		})
		b.Run(fmt.Sprintf("%dB/stdlib", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink, _ = stdlibGCM(key).Open(dst, zeroNonce[:], box, nil)
			}
		})
	}
}

// BenchmarkSeal is BenchmarkOpen's sealing side.
func BenchmarkSeal(b *testing.B) {
	key := randomKey(b)
	for _, n := range []int{80, 352} {
		box := make([]byte, n+Overhead)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Seal(key, box)
			}
		})
		b.Run(fmt.Sprintf("%dB/stdlib", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = stdlibGCM(key).Seal(box[:0], zeroNonce[:], box[:n], nil)
			}
		})
	}
}
