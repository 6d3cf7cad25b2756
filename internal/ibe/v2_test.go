package ibe

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// The "V2" names below are the deprecated forwarders that bench/probe.go,
// frozen, still calls. These tests hold them to the one tier: every V2 name
// must behave byte for byte like its unversioned target, so the bench
// measures exactly what clients run.

// TestV2RoundTrip pins EncryptV2 and both PrecomputeV2 forwarders end to
// end: on the same randomness EncryptV2 emits Encrypt's exact bytes, plain
// and precomputed, and the result opens with Decrypt for aggregated keys,
// precomputed or not, but not under the wrong identity or an erased key.
func TestV2RoundTrip(t *testing.T) {
	pubs, privs := setupN(t, 2)
	mpk := AggregateMasterKeys(pubs...)
	const identity = "bob@example.org"
	ipk := AggregatePrivateKeys(
		Extract(privs[0], identity),
		Extract(privs[1], identity),
	)
	msg := []byte("sealed under the ate loop")
	ctxt, err := EncryptV2(&deterministicReader{key: []byte("v2")}, mpk, identity, msg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encrypt(&deterministicReader{key: []byte("v2")}, mpk, identity, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ctxt, want) {
		t.Fatal("EncryptV2 and Encrypt produced different bytes on the same randomness")
	}
	if len(ctxt) != len(msg)+Overhead {
		t.Fatalf("ciphertext is %d bytes, want %d", len(ctxt), len(msg)+Overhead)
	}
	got, ok := Decrypt(ipk, ctxt)
	if !ok || !bytes.Equal(got, msg) {
		t.Fatalf("round trip failed: (%q, %v)", got, ok)
	}

	if mpk.PrecomputeV2() != mpk {
		t.Fatal("MasterPublicKey.PrecomputeV2 did not return its key")
	}
	if ipk.PrecomputeV2() != ipk || ipk.pre == nil {
		t.Fatal("IdentityPrivateKey.PrecomputeV2 did not precompute the key in place")
	}
	ctxt2, err := EncryptV2(&deterministicReader{key: []byte("v2")}, mpk, identity, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ctxt2, want) {
		t.Fatal("PrecomputeV2 changed ciphertext bytes")
	}
	if got, ok := Decrypt(ipk, ctxt); !ok || !bytes.Equal(got, msg) {
		t.Fatalf("precomputed round trip failed: (%q, %v)", got, ok)
	}

	other := AggregatePrivateKeys(
		Extract(privs[0], "eve@example.org"),
		Extract(privs[1], "eve@example.org"),
	)
	if _, ok := Decrypt(other, ctxt); ok {
		t.Fatal("ciphertext decrypted under the wrong identity")
	}
	ipk.Erase()
	if ipk.pre != nil {
		t.Fatal("Erase left the PrecomputeV2 precomputation behind")
	}
	if _, ok := Decrypt(ipk, ctxt); ok {
		t.Fatal("erased key still decrypts")
	}
}

// mixedBatchV2 is mixedBatch sealed through EncryptV2, the call the bench
// probe makes.
func mixedBatchV2(t testing.TB, mpk *MasterPublicKey, identity string) [][]byte {
	t.Helper()
	enc := func(id string, msg []byte) []byte {
		c, err := EncryptV2(rand.Reader, mpk, id, msg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	good := enc(identity, []byte("hello from the v2 batch"))
	corruptPoint := append([]byte(nil), good...)
	corruptPoint[17] ^= 1
	corruptTag := append([]byte(nil), enc(identity, []byte("doomed"))...)
	corruptTag[len(corruptTag)-1] ^= 1
	noise, err := RandomCiphertext(rand.Reader, 24)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		good,
		enc("someone-else@example.org", []byte("not for us")),
		corruptPoint,
		[]byte{1, 2, 3},
		nil,
		corruptTag,
		noise,
		enc(identity, []byte("second real v2 message")),
	}
}

// TestDecryptBatchV2MatchesDecryptV2 pins DecryptBatchV2 element-wise
// against both DecryptBatch and the scalar Decrypt on a batch interleaving
// every failure mode, for plain, PrecomputeV2'd and erased keys.
func TestDecryptBatchV2MatchesDecryptV2(t *testing.T) {
	pubs, privs := setupN(t, 2)
	mpk := AggregateMasterKeys(pubs...)
	const identity = "bob@example.org"
	ipk := AggregatePrivateKeys(
		Extract(privs[0], identity),
		Extract(privs[1], identity),
	)
	ctxts := mixedBatchV2(t, mpk, identity)

	check := func(label string) {
		t.Helper()
		msgs, oks := DecryptBatchV2(ipk, ctxts)
		bMsgs, bOks := DecryptBatch(ipk, ctxts)
		for i, c := range ctxts {
			wantMsg, wantOK := Decrypt(ipk, c)
			if oks[i] != wantOK || !bytes.Equal(msgs[i], wantMsg) {
				t.Fatalf("%s element %d: DecryptBatchV2 (%q, %v) != Decrypt (%q, %v)",
					label, i, msgs[i], oks[i], wantMsg, wantOK)
			}
			if oks[i] != bOks[i] || !bytes.Equal(msgs[i], bMsgs[i]) {
				t.Fatalf("%s element %d: DecryptBatchV2 (%q, %v) != DecryptBatch (%q, %v)",
					label, i, msgs[i], oks[i], bMsgs[i], bOks[i])
			}
		}
	}
	check("plain")
	msgs, oks := DecryptBatchV2(ipk, ctxts)
	if !oks[0] || !oks[7] {
		t.Fatal("batch rejected genuine ciphertexts")
	}
	if oks[1] || oks[2] || oks[3] || oks[4] || oks[5] || oks[6] {
		t.Fatal("batch accepted a foreign/corrupt/noise ciphertext")
	}
	if !bytes.Equal(msgs[0], []byte("hello from the v2 batch")) {
		t.Fatalf("batch plaintext mismatch: %q", msgs[0])
	}
	ipk.PrecomputeV2()
	check("precomputed")
	ipk.Erase()
	check("erased")
}

// FuzzDecryptBatchV2MatchesDecryptV2 fuzzes the bench probe's path —
// EncryptV2, PrecomputeV2, DecryptBatchV2 — against the scalar Decrypt:
// adversarial blobs (arbitrary lengths, corrupted and off-curve points)
// interleaved with a genuine
// ciphertext, asserting element-wise equivalence and that invalid
// neighbors never poison the shared-inversion pass.
func FuzzDecryptBatchV2MatchesDecryptV2(f *testing.F) {
	pub, priv, err := Setup(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	const identity = "bob@example.org"
	ipk := Extract(priv, identity).PrecomputeV2()
	secret := []byte("the real v2 message")
	good, err := EncryptV2(rand.Reader, pub.PrecomputeV2(), identity, secret)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, Overhead))
	f.Add(append([]byte(nil), good...))
	corrupt := append([]byte(nil), good...)
	corrupt[31] ^= 0xff
	f.Add(corrupt)
	offCurve := append([]byte(nil), good...)
	offCurve[63] ^= 2
	f.Add(offCurve)

	f.Fuzz(func(t *testing.T, data []byte) {
		var ctxts [][]byte
		ctxts = append(ctxts, good)
		for len(data) > 0 && len(ctxts) < 7 {
			n := Overhead + 8
			if n > len(data) {
				n = len(data)
			}
			ctxts = append(ctxts, data[:n])
			data = data[n:]
		}
		ctxts = append(ctxts, good)

		msgs, oks := DecryptBatchV2(ipk, ctxts)
		for i, c := range ctxts {
			wantMsg, wantOK := Decrypt(ipk, c)
			if oks[i] != wantOK || !bytes.Equal(msgs[i], wantMsg) {
				t.Fatalf("element %d (%d bytes): batch (%q, %v) != single (%q, %v)",
					i, len(c), msgs[i], oks[i], wantMsg, wantOK)
			}
		}
		if !oks[0] || !bytes.Equal(msgs[0], secret) || !oks[len(ctxts)-1] {
			t.Fatal("genuine ciphertext was poisoned by its batch neighbors")
		}
	})
}
