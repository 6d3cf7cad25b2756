// Package ibe implements Boneh-Franklin identity-based encryption over the
// bn254 pairing group, extended with Alpenhorn's Anytrust-IBE construction
// (§4.2 of the paper, Appendix A).
//
// In Anytrust-IBE there are n independent private-key generators (PKGs).
// Clients encrypt to the SUM of the master public keys and decrypt with the
// SUM of the identity private keys obtained from each PKG. The scheme stays
// secure as long as any single PKG keeps its master secret private, and —
// unlike the naive onion construction, also provided here as the paper's
// baseline (OnionEncrypt) — ciphertext size and decryption time are
// independent of the number of PKGs.
//
// Ciphertexts are anonymous (§4.3): they consist of a uniformly distributed
// group element and an AEAD blob keyed by the pairing value, so they reveal
// nothing about the recipient identity. This property is what lets the
// Alpenhorn mixnet generate indistinguishable noise messages.
//
// The pairing is bn254's optimal ate pairing, the only one every client,
// PKG and mixer uses, and the AEAD key is SHA-256 over a domain tag and the
// marshalled pairing value. Ciphertexts from an earlier Tate-keyed tier do
// not open here: they fail authentication like any foreign message.
package ibe

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"io"
	"math/big"

	"alpenhorn/internal/bn254"
)

// hashToG1Domain domain-separates identity hashing from other uses of the
// curve.
const hashToG1Domain = "bf-ibe-identity"

// Overhead is the ciphertext expansion in bytes: a marshalled G2 point plus
// an AES-GCM tag.
const Overhead = 128 + 16

// MasterPublicKey is a PKG's per-round master public key (or an aggregation
// of several PKGs' keys).
type MasterPublicKey struct {
	p *bn254.G2

	// pre caches the ate line ladder of p. Set by Precompute; nil keys
	// work identically, just without the cached ladder.
	pre *bn254.AtePrecomputedG2
}

// Precompute caches the optimal-ate line ladder of the key for repeated
// encryption against the same round key: the ate ladder runs over this
// fixed G2 argument, so Encrypt replays ~90 precomputed line triples
// instead of re-running the twist arithmetic per message. Encrypt produces
// identical ciphertexts either way. Not safe to call concurrently with
// Encrypt on the same key.
func (k *MasterPublicKey) Precompute() *MasterPublicKey {
	k.pre = bn254.AtePrecomputeG2(k.p)
	return k
}

// Deprecated: PrecomputeV2 is Precompute; bench/probe.go, frozen for this PR, calls it.
func (k *MasterPublicKey) PrecomputeV2() *MasterPublicKey { return k.Precompute() }

// MasterPrivateKey is a PKG's per-round master secret.
type MasterPrivateKey struct {
	s *big.Int
}

// IdentityPrivateKey is the decryption key for one identity under one master
// key (or an aggregation of such keys under several masters).
type IdentityPrivateKey struct {
	d *bn254.G1

	// pre caches the key's pairing evaluation coordinates. Set by
	// Precompute; scrubbed by Erase.
	pre *bn254.AtePrecomputedG1
}

// Precompute prepares the key for a mailbox scan. The ate Miller ladder
// runs over the varying ciphertext element, so there are no lines to
// replay for a fixed G1 key; what Precompute buys is one handle that the
// scan's workers share and that Erase scrubs once. Decryption results are
// identical either way. Not safe to call concurrently with Decrypt on the
// same key.
func (k *IdentityPrivateKey) Precompute() *IdentityPrivateKey {
	k.pre = bn254.AtePrecomputeG1(k.d)
	return k
}

// Deprecated: PrecomputeV2 is Precompute; bench/probe.go, frozen for this PR, calls it.
func (k *IdentityPrivateKey) PrecomputeV2() *IdentityPrivateKey { return k.Precompute() }

// Setup generates a fresh master key pair for one PKG.
func Setup(rand io.Reader) (*MasterPublicKey, *MasterPrivateKey, error) {
	s, err := bn254.RandomScalar(rand)
	if err != nil {
		return nil, nil, err
	}
	pub := new(bn254.G2).ScalarBaseMult(s)
	return &MasterPublicKey{p: pub}, &MasterPrivateKey{s: s}, nil
}

// Extract computes the identity private key d = s·H1(id) for an identity.
func Extract(msk *MasterPrivateKey, identity string) *IdentityPrivateKey {
	q := bn254.HashToG1(hashToG1Domain, []byte(identity))
	return &IdentityPrivateKey{d: new(bn254.G1).ScalarMult(q, msk.s)}
}

// AggregateMasterKeys sums master public keys from independent PKGs,
// producing the Anytrust-IBE encryption key Σ Mᵢpub.
func AggregateMasterKeys(keys ...*MasterPublicKey) *MasterPublicKey {
	sum := new(bn254.G2).SetInfinity()
	for _, k := range keys {
		sum.Add(sum, k.p)
	}
	return &MasterPublicKey{p: sum}
}

// AggregatePrivateKeys sums identity private keys issued by independent
// PKGs, producing the Anytrust-IBE decryption key Σ identityᵢpriv.
func AggregatePrivateKeys(keys ...*IdentityPrivateKey) *IdentityPrivateKey {
	sum := new(bn254.G1).SetInfinity()
	for _, k := range keys {
		sum.Add(sum, k.d)
	}
	return &IdentityPrivateKey{d: sum}
}

// sealKeyPrefix domain-separates the AEAD key derivation. Its "-v2" is the
// tag of the optimal-ate tier that was once negotiated beside a Tate one;
// keeping it keeps every ciphertext byte-identical to that tier's.
var sealKeyPrefix = []byte("alpenhorn/ibe/seal-key-v2:")

// sealKey derives the AEAD key from the pairing value.
func sealKey(g *bn254.GT) []byte {
	h := sha256.New()
	h.Write(sealKeyPrefix)
	h.Write(g.Marshal())
	return h.Sum(nil)
}

// aeadSeal encrypts msg under key with a fixed nonce. The key is unique per
// encryption (it is derived from a fresh pairing value), so a fixed nonce is
// safe, mirroring NaCl's ephemeral-key box construction.
func aeadSeal(key, msg []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic("ibe: " + err.Error())
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic("ibe: " + err.Error())
	}
	nonce := make([]byte, gcm.NonceSize())
	return gcm.Seal(nil, nonce, msg, nil)
}

func aeadOpen(key, box []byte) ([]byte, bool) {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic("ibe: " + err.Error())
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic("ibe: " + err.Error())
	}
	nonce := make([]byte, gcm.NonceSize())
	msg, err := gcm.Open(nil, nonce, box, nil)
	if err != nil {
		return nil, false
	}
	return msg, true
}

// Encrypt encrypts msg to the given identity under the (possibly aggregated)
// master public key. The ciphertext is len(msg)+Overhead bytes and reveals
// nothing about the identity it is encrypted to.
func Encrypt(rand io.Reader, mpk *MasterPublicKey, identity string, msg []byte) ([]byte, error) {
	r, err := bn254.RandomScalar(rand)
	if err != nil {
		return nil, err
	}
	u := new(bn254.G2).ScalarBaseMult(r)
	q := bn254.HashToG1(hashToG1Domain, []byte(identity))
	// e(Q, mpk)^r = e(r·Q, mpk) by bilinearity: folding r into the cheap
	// G1 scalar multiplication replaces a full GT exponentiation.
	rq := new(bn254.G1).ScalarMult(q, r)
	var g *bn254.GT
	if mpk.pre != nil {
		g = mpk.pre.Pair(rq)
	} else {
		g = bn254.AtePair(rq, mpk.p)
	}

	out := make([]byte, 0, len(msg)+Overhead)
	out = append(out, u.Marshal()...)
	out = append(out, aeadSeal(sealKey(g), msg)...)
	return out, nil
}

// Deprecated: EncryptV2 is Encrypt; bench/probe.go, frozen for this PR, calls it.
func EncryptV2(rand io.Reader, mpk *MasterPublicKey, identity string, msg []byte) ([]byte, error) {
	return Encrypt(rand, mpk, identity, msg)
}

// Decrypt attempts to decrypt a ciphertext with the given (possibly
// aggregated) identity private key. It returns ok=false if the ciphertext
// is malformed or was not encrypted to this key's identity — callers scan
// whole mailboxes with exactly this check (Algorithm 1, step 4). It is the
// scalar oracle for DecryptBatch: it unmarshals through the full
// Order-ladder subgroup check and opens through the stdlib AEAD, and
// differential tests pin DecryptBatch against it element-wise.
func Decrypt(ipk *IdentityPrivateKey, ctxt []byte) ([]byte, bool) {
	if len(ctxt) < Overhead {
		return nil, false
	}
	u := new(bn254.G2)
	if err := u.Unmarshal(ctxt[:128]); err != nil {
		return nil, false
	}
	var g *bn254.GT
	if ipk.pre != nil {
		g = ipk.pre.Pair(u)
	} else {
		g = bn254.AtePair(ipk.d, u)
	}
	return aeadOpen(sealKey(g), ctxt[128:])
}

// MasterPublicKeySize and IdentityPrivateKeySize are the marshalled sizes.
const (
	MasterPublicKeySize    = 128
	IdentityPrivateKeySize = 64
)

// Marshal encodes the master public key.
func (k *MasterPublicKey) Marshal() []byte { return k.p.Marshal() }

// UnmarshalMasterPublicKey decodes and validates a master public key.
func UnmarshalMasterPublicKey(data []byte) (*MasterPublicKey, error) {
	p := new(bn254.G2)
	if err := p.Unmarshal(data); err != nil {
		return nil, err
	}
	return &MasterPublicKey{p: p}, nil
}

// Marshal encodes the identity private key.
func (k *IdentityPrivateKey) Marshal() []byte { return k.d.Marshal() }

// UnmarshalIdentityPrivateKey decodes and validates an identity private key.
func UnmarshalIdentityPrivateKey(data []byte) (*IdentityPrivateKey, error) {
	d := new(bn254.G1)
	if err := d.Unmarshal(data); err != nil {
		return nil, err
	}
	return &IdentityPrivateKey{d: d}, nil
}

// Marshal encodes the master private key (used only for tests and for
// in-memory transfer between a PKG's round structures; master secrets are
// never sent on the wire).
func (k *MasterPrivateKey) Marshal() []byte {
	out := make([]byte, 32)
	k.s.FillBytes(out)
	return out
}

// UnmarshalMasterPrivateKey decodes a master private key.
func UnmarshalMasterPrivateKey(data []byte) (*MasterPrivateKey, error) {
	if len(data) != 32 {
		return nil, errors.New("ibe: wrong master private key length")
	}
	s := new(big.Int).SetBytes(data)
	if s.Sign() == 0 || s.Cmp(bn254.Order) >= 0 {
		return nil, errors.New("ibe: master private key out of range")
	}
	return &MasterPrivateKey{s: s}, nil
}

// Erase zeroes the master secret. After Erase the key is unusable; this is
// how PKGs implement forward secrecy for past rounds (§4.4). The big.Int's
// words are overwritten before it is truncated: SetInt64(0) alone only
// shortens the slice and leaves the secret's words on the heap.
func (k *MasterPrivateKey) Erase() {
	words := k.s.Bits()
	for i := range words {
		words[i] = 0
	}
	k.s.SetInt64(0)
}

// Erase zeroes the identity private key in place, including any pairing
// precomputation (its cached coordinates are the key, so they are
// scrubbed, not just dropped). Clients erase round keys after scanning
// their mailbox (§4.4).
func (k *IdentityPrivateKey) Erase() {
	k.d.SetInfinity()
	if k.pre != nil {
		k.pre.Erase()
		k.pre = nil
	}
}

// Erased reports whether the key has been erased.
func (k *MasterPrivateKey) Erased() bool { return k.s.Sign() == 0 }
