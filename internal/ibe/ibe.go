// Package ibe implements Boneh-Franklin identity-based encryption over the
// bn254 pairing group, extended with Alpenhorn's Anytrust-IBE construction
// (§4.2 of the paper, Appendix A).
//
// In Anytrust-IBE there are n independent private-key generators (PKGs).
// Clients encrypt to the SUM of the master public keys and decrypt with the
// SUM of the identity private keys obtained from each PKG. The scheme stays
// secure as long as any single PKG keeps its master secret private, and —
// unlike the naive onion construction, the paper's baseline, which this
// package's tests keep for ablation A1 — ciphertext size and decryption
// time are independent of the number of PKGs.
//
// Ciphertexts are anonymous (§4.3): they consist of a uniformly distributed
// group element and an AEAD blob keyed by the pairing value, so they reveal
// nothing about the recipient identity. This property is what lets the
// Alpenhorn mixnet generate indistinguishable noise messages.
//
// The pairing is bn254's optimal ate pairing, the only one every client,
// PKG and mixer uses, and the AEAD key is SHA-256 over a domain tag and the
// marshalled pairing value. The AEAD is internal/aead's one-shot AES-GCM
// (zero nonce, safe because the key is fresh per encryption), the same one
// onion layers use, at no heap allocation per ciphertext with AES-NI and
// one (the AES key schedule) on internal/aead's portable path.
//
// Which group holds what. The pairing is e: G1 × G2 → GT, and its ate
// Miller loop is laddered over the G2 argument: with G2 fixed, its line
// table can be built once and replayed against any number of G1 points.
// The one fixed argument of the hot path is the recipient's identity key,
// paired against every ciphertext of a mailbox scan, so that key lives in
// G2 and the ciphertext element in G1 (the standard type-3 Boneh–Franklin
// orientation):
//
//	master public key   mpk = s·P₁ ∈ G1        (32 B)
//	identity key        d   = s·H(id) ∈ G2     (128 B, H = bn254.HashToG2)
//	ciphertext element  U   = r·P₁ ∈ G1        (32 B)
//	pairing value       e(U, d) = e(r·mpk, H(id))
//
// G1 elements travel compressed (bn254.G1.Marshal: x and the sign of y).
// A G1 element decodes with one square root (E(Fp) has prime order, so
// being on the curve is the whole check). The root's exponentiation also
// yields the 1/y the line replay needs in place of an inversion, so a
// foreign ciphertext costs that one exponentiation, a line-table replay,
// a final exponentiation and an AES-GCM tag check. Trial decryption is
// one function, DecryptBatch, which a mailbox scan calls on a chunk of
// entries at a time: on a CPU with AVX-512 IFMA it decodes and pairs
// eight entries in one walk of bn254's lane pairing (PairMarshalledBatch),
// and elsewhere one at a time. DecryptAppend is a batch of one.
//
// Compression keeps real and noise entries indistinguishable: a noise
// entry's U is a real point too (RandomCiphertexts multiplies the
// generator by a random scalar, as Encrypt does), so both decode, neither
// is the identity, and the sign bit is a fair coin on both.
package ibe

import (
	"crypto/sha256"
	"errors"
	"io"
	"math/big"

	"alpenhorn/internal/aead"
	"alpenhorn/internal/bn254"
)

// identityDomain domain-separates identity hashing from other uses of the
// curve.
const identityDomain = "bf-ibe-identity"

// Overhead is the ciphertext expansion in bytes: a compressed G1 point
// plus an AES-GCM tag.
const Overhead = uSize + aead.Overhead

// uSize is the size of the ciphertext element U, a compressed G1 point.
const uSize = 32

// MasterPublicKey is a PKG's per-round master public key (or an aggregation
// of several PKGs' keys).
type MasterPublicKey struct {
	p *bn254.G1
}

// Deprecated: PrecomputeV2 does nothing and returns k: an encryption pairs
// against the recipient's hashed identity, so the master key is not a
// fixed pairing argument with lines to cache. bench/probe.go, frozen for
// this change, calls it.
func (k *MasterPublicKey) PrecomputeV2() *MasterPublicKey { return k }

// MasterPrivateKey is a PKG's per-round master secret.
type MasterPrivateKey struct {
	s *big.Int
}

// IdentityPrivateKey is the decryption key for one identity under one master
// key (or an aggregation of such keys under several masters).
type IdentityPrivateKey struct {
	d *bn254.G2

	// pre caches the key's ate line table. Set by Precompute; scrubbed by
	// Erase.
	pre *bn254.AtePrecomputedG2
}

// Precompute builds the key's ate line table once for a mailbox scan: the
// key is the laddered pairing argument, so every trial decryption then
// replays ~90 cached monic lines against the ciphertext's G1 element.
// Decryption results are identical either way. Not safe to call
// concurrently with Decrypt on the same key.
func (k *IdentityPrivateKey) Precompute() *IdentityPrivateKey {
	k.pre = bn254.AtePrecomputeG2(k.d)
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
	pub := new(bn254.G1).ScalarBaseMult(s)
	return &MasterPublicKey{p: pub}, &MasterPrivateKey{s: s}, nil
}

// Extract computes the identity private key d = s·H(id) ∈ G2 for an
// identity.
func Extract(msk *MasterPrivateKey, identity string) *IdentityPrivateKey {
	q := bn254.HashToG2(identityDomain, []byte(identity))
	return &IdentityPrivateKey{d: new(bn254.G2).ScalarMult(q, msk.s)}
}

// AggregateMasterKeys sums master public keys from independent PKGs,
// producing the Anytrust-IBE encryption key Σ Mᵢpub.
func AggregateMasterKeys(keys ...*MasterPublicKey) *MasterPublicKey {
	sum := new(bn254.G1).SetInfinity()
	for _, k := range keys {
		sum.Add(sum, k.p)
	}
	return &MasterPublicKey{p: sum}
}

// AggregatePrivateKeys sums identity private keys issued by independent
// PKGs, producing the Anytrust-IBE decryption key Σ identityᵢpriv.
func AggregatePrivateKeys(keys ...*IdentityPrivateKey) *IdentityPrivateKey {
	sum := new(bn254.G2).SetInfinity()
	for _, k := range keys {
		sum.Add(sum, k.d)
	}
	return &IdentityPrivateKey{d: sum}
}

// sealKeyPrefix domain-separates the AEAD key derivation. Its "-v2" is the
// tag of the optimal-ate tier that was once negotiated beside a Tate one;
// keeping it keeps every ciphertext byte-identical to that tier's.
const sealKeyPrefix = "alpenhorn/ibe/seal-key-v2:"

// gtSize is the length of a marshalled bn254.GT.
const gtSize = 384

// sealKey derives the AEAD key from the pairing value: SHA-256 over the
// prefix and the marshalled value, hashed from a stack buffer that is
// cleared before it returns.
func sealKey(g *bn254.GT) [aead.KeySize]byte {
	var buf [len(sealKeyPrefix) + gtSize]byte
	g.AppendMarshal(buf[:copy(buf[:], sealKeyPrefix)])
	key := sha256.Sum256(buf[:])
	clear(buf[:])
	return key
}

// Encrypt encrypts msg to the given identity under the (possibly aggregated)
// master public key. The ciphertext is len(msg)+Overhead bytes and reveals
// nothing about the identity it is encrypted to.
func Encrypt(rand io.Reader, mpk *MasterPublicKey, identity string, msg []byte) ([]byte, error) {
	r, err := bn254.RandomScalar(rand)
	if err != nil {
		return nil, err
	}
	u := new(bn254.G1).ScalarBaseMult(r)
	q := bn254.HashToG2(identityDomain, []byte(identity))
	// e(mpk, Q)^r = e(r·mpk, Q) by bilinearity: folding r into a G1
	// scalar multiplication replaces a full GT exponentiation.
	rm := new(bn254.G1).ScalarMult(mpk.p, r)
	g := bn254.AtePair(rm, q)

	out := make([]byte, len(msg)+Overhead)
	copy(out, u.Marshal())
	copy(out[uSize:], msg)
	key := sealKey(g)
	aead.Seal(&key, out[uSize:])
	clear(key[:])
	return out, nil
}

// Deprecated: EncryptV2 is Encrypt; bench/probe.go, frozen for this PR, calls it.
func EncryptV2(rand io.Reader, mpk *MasterPublicKey, identity string, msg []byte) ([]byte, error) {
	return Encrypt(rand, mpk, identity, msg)
}

// DecryptAppend trial-decrypts a ciphertext with the given (possibly
// aggregated) identity private key and appends the plaintext to dst. It
// returns dst unchanged and ok=false if the ciphertext is malformed or was
// not encrypted to this key's identity — callers scan whole mailboxes with
// exactly this check (Algorithm 1, step 4). It never writes dst's existing
// bytes, and writes nothing at all on a rejection. It is DecryptBatch on
// one ciphertext, and allocates only the plaintext, if dst has no room
// for it, and, on internal/aead's portable path, aead.Open's AES key
// schedule.
func DecryptAppend(dst []byte, ipk *IdentityPrivateKey, ctxt []byte) ([]byte, bool) {
	dsts, oks := [1][]byte{dst}, [1]bool{}
	DecryptBatch(dsts[:], oks[:], ipk, [][]byte{ctxt})
	return dsts[0], oks[0]
}

// DecryptBatch trial-decrypts every ctxts[i] as DecryptAppend does,
// appending its plaintext to dsts[i] and setting oks[i]. dsts and oks
// must be as long as ctxts.
//
// With a precomputed key it decodes each U and replays the key's line
// table in one pass (bn254's PairMarshalledBatch, whose decode also
// yields the 1/y the replay needs), eight ciphertexts to a walk on a CPU
// with AVX-512 IFMA; without one it decodes U and runs bn254.AtePair on
// each. Either way the pairing values, their encodings and the seal keys
// are cleared before it returns. Safe for concurrent calls with the same
// key, which is how the mailbox-scan worker pool uses it.
func DecryptBatch(dsts [][]byte, oks []bool, ipk *IdentityPrivateKey, ctxts [][]byte) {
	open := func(i int, g *bn254.GT) {
		if len(ctxts[i]) < Overhead {
			return
		}
		key := sealKey(g)
		dsts[i], oks[i] = aead.Open(dsts[i], &key, ctxts[i][uSize:])
		clear(key[:])
	}
	if ipk.pre != nil {
		var g bn254.GT
		ipk.pre.PairMarshalledBatch(&g, ctxts, func(i int, err error) {
			oks[i] = false
			if err == nil {
				open(i, &g)
			}
		})
		return
	}
	for i, c := range ctxts {
		oks[i] = false
		var u bn254.G1
		if len(c) < Overhead || u.Unmarshal(c[:uSize]) != nil {
			continue
		}
		pg := bn254.AtePair(&u, ipk.d)
		open(i, pg)
		*pg = bn254.GT{}
	}
}

// Decrypt is DecryptAppend into a fresh slice.
func Decrypt(ipk *IdentityPrivateKey, ctxt []byte) ([]byte, bool) {
	return DecryptAppend(nil, ipk, ctxt)
}

// Deprecated: DecryptBatchV2 is DecryptBatch into fresh slices;
// bench/probe.go, frozen for this change, calls it.
func DecryptBatchV2(ipk *IdentityPrivateKey, ctxts [][]byte) ([][]byte, []bool) {
	msgs := make([][]byte, len(ctxts))
	oks := make([]bool, len(ctxts))
	DecryptBatch(msgs, oks, ipk, ctxts)
	return msgs, oks
}

// MasterPublicKeySize and IdentityPrivateKeySize are the marshalled sizes.
const (
	MasterPublicKeySize    = 32
	IdentityPrivateKeySize = 128
)

// Marshal encodes the master public key.
func (k *MasterPublicKey) Marshal() []byte { return k.p.Marshal() }

// UnmarshalMasterPublicKey decodes and validates a master public key.
func UnmarshalMasterPublicKey(data []byte) (*MasterPublicKey, error) {
	p := new(bn254.G1)
	if err := p.Unmarshal(data); err != nil {
		return nil, err
	}
	return &MasterPublicKey{p: p}, nil
}

// Marshal encodes the identity private key.
func (k *IdentityPrivateKey) Marshal() []byte { return k.d.Marshal() }

// UnmarshalIdentityPrivateKey decodes and validates an identity private key.
func UnmarshalIdentityPrivateKey(data []byte) (*IdentityPrivateKey, error) {
	d := new(bn254.G2)
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

// Erase zeroes the identity private key in place, including its line
// table (the table is derived from the key, so it is scrubbed, not just
// dropped). Clients erase round keys after scanning
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
