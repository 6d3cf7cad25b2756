package onionbox

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	mathrand "math/rand"
	"testing"
	"testing/quick"
)

func TestSealOpen(t *testing.T) {
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("request payload")
	box, err := Seal(rand.Reader, pub, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != len(msg)+Overhead {
		t.Fatalf("box length %d, want %d", len(box), len(msg)+Overhead)
	}
	got, err := Open(priv, box)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext")
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	pub, _, _ := GenerateKey(rand.Reader)
	_, wrongPriv, _ := GenerateKey(rand.Reader)
	box, _ := Seal(rand.Reader, pub, []byte("secret"))
	if _, err := Open(wrongPriv, box); err == nil {
		t.Fatal("opened with wrong key")
	}
}

func TestOpenCorruptedFails(t *testing.T) {
	pub, priv, _ := GenerateKey(rand.Reader)
	box, _ := Seal(rand.Reader, pub, []byte("secret"))
	for _, i := range []int{0, 31, 32, len(box) - 1} {
		bad := bytes.Clone(box)
		bad[i] ^= 1
		if _, err := Open(priv, bad); err == nil {
			t.Fatalf("opened corrupted box (byte %d)", i)
		}
	}
	if _, err := Open(priv, box[:Overhead-1]); err == nil {
		t.Fatal("opened truncated box")
	}
}

func TestSealRandomized(t *testing.T) {
	// Two seals of the same message must differ (fresh ephemeral keys),
	// otherwise the mixnet could link repeated requests.
	pub, _, _ := GenerateKey(rand.Reader)
	b1, _ := Seal(rand.Reader, pub, []byte("m"))
	b2, _ := Seal(rand.Reader, pub, []byte("m"))
	if bytes.Equal(b1, b2) {
		t.Fatal("sealing is deterministic")
	}
}

func TestWrapOnionPeelsInOrder(t *testing.T) {
	const hops = 3
	var pubs []*PublicKey
	var privs []*PrivateKey
	for i := 0; i < hops; i++ {
		pub, priv, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
		privs = append(privs, priv)
	}
	msg := []byte("inner request")
	onion, err := WrapOnion(rand.Reader, pubs, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(onion) != OnionSize(len(msg), hops) {
		t.Fatalf("onion size %d, want %d", len(onion), OnionSize(len(msg), hops))
	}
	// Peel in order: server 0 first.
	cur := onion
	for i := 0; i < hops; i++ {
		cur, err = Open(privs[i], cur)
		if err != nil {
			t.Fatalf("hop %d failed to peel: %v", i, err)
		}
	}
	if !bytes.Equal(cur, msg) {
		t.Fatal("wrong inner message")
	}

	// Peeling out of order must fail.
	if _, err := Open(privs[1], onion); err == nil {
		t.Fatal("hop 1 peeled hop 0's layer")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	pub, priv, _ := GenerateKey(rand.Reader)
	pub2, err := UnmarshalPublicKey(pub.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	box, _ := Seal(rand.Reader, pub2, []byte("m"))
	if _, err := Open(priv, box); err != nil {
		t.Fatal("round-tripped public key broke sealing")
	}
	if !bytes.Equal(priv.Public().Bytes(), pub.Bytes()) {
		t.Fatal("Public() mismatch")
	}
	if _, err := UnmarshalPublicKey([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestSealOpenProperty(t *testing.T) {
	pub, priv, _ := GenerateKey(rand.Reader)
	roundTrip := func(msg []byte) bool {
		box, err := Seal(rand.Reader, pub, msg)
		if err != nil {
			return false
		}
		got, err := Open(priv, box)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ecdhKey is priv as a crypto/ecdh key, the oracle's side of the ladder.
func ecdhKey(priv *PrivateKey) *ecdh.PrivateKey {
	k, err := ecdh.X25519().NewPrivateKey(priv.seed[:])
	if err != nil {
		panic(err)
	}
	return k
}

// stdlibOpen opens a box the way the package did before internal/aead:
// crypto/ecdh, the same key derivation, then crypto/cipher's AES-GCM with
// the all-zero nonce. It is the oracle FuzzOpenAppend checks against.
func stdlibOpen(priv *PrivateKey, box []byte) ([]byte, bool) {
	if len(box) < Overhead {
		return nil, false
	}
	eph, err := ecdh.X25519().NewPublicKey(box[:32])
	if err != nil {
		return nil, false
	}
	shared, err := ecdhKey(priv).ECDH(eph)
	if err != nil {
		return nil, false
	}
	key := deriveKey(shared, box[:32], priv.pub[:])
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	msg, err := gcm.Open(nil, make([]byte, gcm.NonceSize()), box[32:], nil)
	return msg, err == nil
}

// FuzzOpenAppend: a mixer opens whatever bytes arrive as an onion. Against
// a real key, OpenAppend never panics, returns dst as it was on failure,
// and opens exactly the boxes the standard library's route opens, to the
// same message, on both field paths.
func FuzzOpenAppend(f *testing.F) {
	pub, priv, err := GenerateKey(mathrand.New(mathrand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	for _, msg := range [][]byte{nil, []byte("a dial token"), make([]byte, 352)} {
		box, err := Seal(rand.Reader, pub, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(box)
		tampered := bytes.Clone(box)
		tampered[len(box)-1] ^= 1
		f.Add(tampered)
	}
	f.Add([]byte{})
	f.Add(make([]byte, Overhead))
	f.Fuzz(func(t *testing.T, box []byte) {
		want, wantOK := stdlibOpen(priv, box)
		onBothPaths(func() {
			head := []byte("head")
			got, err := OpenAppend(head[:len(head):len(head)], priv, box)
			if (err == nil) != wantOK {
				t.Fatalf("OpenAppend error %v, standard library opens: %v", err, wantOK)
			}
			if !bytes.Equal(got, append(head, want...)) {
				t.Fatalf("OpenAppend gave %x, standard library %x", got, want)
			}
		})
	})
}
