package bls

import (
	"crypto/rand"
	"testing"
	"time"

	"alpenhorn/internal/bn254"
)

func TestSignVerify(t *testing.T) {
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("alice@example.org|signing-key|round-42")
	sig := Sign(priv, msg)
	if !Verify(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(pub, []byte("different message"), sig) {
		t.Fatal("signature verified for wrong message")
	}
	otherPub, _, _ := GenerateKey(rand.Reader)
	if Verify(otherPub, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestMultisignature(t *testing.T) {
	// The PKGSigs use case (§4.5): n PKGs sign the same message; the
	// aggregate verifies under the aggregate public key.
	msg := []byte("bob@example.org|key|round-7")
	var pubs []*PublicKey
	var sigs []*Signature
	for i := 0; i < 3; i++ {
		pub, priv, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
		sigs = append(sigs, Sign(priv, msg))
	}
	aggSig := AggregateSignatures(sigs...)
	aggPub := AggregatePublicKeys(pubs...)
	if !Verify(aggPub, msg, aggSig) {
		t.Fatal("multisignature rejected")
	}

	// Dropping one signature must break verification: a recipient is
	// guaranteed that ALL PKGs (including the honest one) attested.
	partial := AggregateSignatures(sigs[:2]...)
	if Verify(aggPub, msg, partial) {
		t.Fatal("partial multisignature accepted")
	}
}

func TestMultisignatureForgeryByDishonestMajority(t *testing.T) {
	// Even n−1 colluding PKGs cannot produce a multisignature that
	// verifies under an aggregate including the honest PKG's key.
	msg := []byte("victim@example.org|fake-key|round-9")
	honestPub, _, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var dishonestSigs []*Signature
	var allPubs = []*PublicKey{honestPub}
	for i := 0; i < 2; i++ {
		pub, priv, _ := GenerateKey(rand.Reader)
		allPubs = append(allPubs, pub)
		dishonestSigs = append(dishonestSigs, Sign(priv, msg))
	}
	forged := AggregateSignatures(dishonestSigs...)
	if Verify(AggregatePublicKeys(allPubs...), msg, forged) {
		t.Fatal("forgery without honest PKG's signature accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("round-trip")
	sig := Sign(priv, msg)

	pub2, err := UnmarshalPublicKey(pub.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := UnmarshalSignature(sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(pub2, msg, sig2) {
		t.Fatal("round-tripped signature rejected")
	}
	if !pub.Equal(pub2) {
		t.Fatal("public key round-trip not equal")
	}

	priv2, err := UnmarshalPrivateKey(priv.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(pub, msg, Sign(priv2, msg)) {
		t.Fatal("round-tripped private key produces bad signatures")
	}
	if !priv.Public().Equal(pub) {
		t.Fatal("Public() disagrees with GenerateKey")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPublicKey(make([]byte, 10)); err == nil {
		t.Fatal("short public key accepted")
	}
	bad := make([]byte, PublicKeySize)
	bad[0] = 0xff
	if _, err := UnmarshalPublicKey(bad); err == nil {
		t.Fatal("invalid public key accepted")
	}
	if _, err := UnmarshalPrivateKey(make([]byte, PrivateKeySize)); err == nil {
		t.Fatal("zero private key accepted")
	}
}

func TestSignatureSizeConstant(t *testing.T) {
	// Multisig compactness: aggregating does not grow the signature.
	msg := []byte("m")
	var sigs []*Signature
	for i := 0; i < 5; i++ {
		_, priv, _ := GenerateKey(rand.Reader)
		sigs = append(sigs, Sign(priv, msg))
	}
	agg := AggregateSignatures(sigs...)
	if len(agg.Marshal()) != SignatureSize {
		t.Fatalf("aggregate signature size %d, want %d", len(agg.Marshal()), SignatureSize)
	}
}

// TestVerifyMatchesTwoPairReconstruction pins the combined pairing check
// that Verify uses — one shared Miller product over kept line tables —
// against the textbook two-pairing reconstruction e(σ, G2) == e(H(m), pk)
// computed via two independent bn254.AtePair calls. The two paths must
// agree on valid signatures, tampered messages, tampered signatures, and
// mismatched keys.
func TestVerifyMatchesTwoPairReconstruction(t *testing.T) {
	reconstruct := func(pub *PublicKey, msg []byte, sig *Signature) bool {
		if pub == nil || sig == nil || sig.s.IsInfinity() {
			return false
		}
		h := bn254.HashToG1("bls-signature", msg)
		return bn254.AtePair(sig.s, bn254.G2Generator()).Equal(bn254.AtePair(h, pub.p))
	}
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	otherPub, _, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pkg attests bob@example.org at round 42")
	sig := Sign(priv, msg)
	tamperedSig := &Signature{s: new(bn254.G1).Add(sig.s, sig.s)}
	cases := []struct {
		name string
		pub  *PublicKey
		msg  []byte
		sig  *Signature
		want bool
	}{
		{"valid", pub, msg, sig, true},
		{"tampered message", pub, []byte("pkg attests eve@example.org at round 42"), sig, false},
		{"tampered signature", pub, msg, tamperedSig, false},
		{"wrong key", otherPub, msg, sig, false},
	}
	for _, c := range cases {
		got := Verify(c.pub, c.msg, c.sig)
		oracle := reconstruct(c.pub, c.msg, c.sig)
		if got != c.want || oracle != c.want {
			t.Fatalf("%s: Verify=%v oracle=%v want=%v", c.name, got, oracle, c.want)
		}
	}
}

// TestVerifySpeedupPin guards what Verify adds on top of bn254's pairing
// check: the kept line tables of −G2 and the public key, and one shared
// loop for both pairs. It must beat the textbook reconstruction — two
// independent bn254.AtePair calls, lines built per call, two final
// exponentiations; hashing included on both sides — by a clear margin.
// (bn254's TestAtePairingCheckSpeedupPin pins the check itself against the
// Tate oracle.) The measured ratio is ~2.1x and the floor 1.5x, which
// leaves room for scheduler noise while a real regression (tables rebuilt
// per call, an unshared loop) still trips it. Skipped in -short mode.
func TestVerifySpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pkg attests bob@example.org at round 42")
	sig := Sign(priv, msg)
	twoPairs := func() bool {
		h := bn254.HashToG1(hashDomain, msg)
		return bn254.AtePair(sig.s, bn254.G2Generator()).Equal(bn254.AtePair(h, pub.p))
	}
	if !Verify(pub, msg, sig) || !twoPairs() { // also warms both line tables
		t.Fatal("valid signature rejected")
	}

	// Best of 15, the two sides in alternation, so that a change in the
	// machine's load falls on both.
	kept, textbook := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 15; i++ {
		start := time.Now()
		Verify(pub, msg, sig)
		kept = min(kept, time.Since(start))
		start = time.Now()
		twoPairs()
		textbook = min(textbook, time.Since(start))
	}
	if kept*3 > textbook*2 {
		t.Errorf("Verify %v is under 1.5x two AtePair calls %v (ratio %.2fx)",
			kept, textbook, float64(textbook)/float64(kept))
	}
	t.Logf("Verify %v vs two AtePair calls %v: %.2fx", kept, textbook, float64(textbook)/float64(kept))
}

func BenchmarkVerify(b *testing.B) {
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("pkg attests bob@example.org at round 42")
	sig := Sign(priv, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(pub, msg, sig) {
			b.Fatal("valid signature rejected")
		}
	}
}
