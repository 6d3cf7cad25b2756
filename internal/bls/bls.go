// Package bls implements Boneh-Lynn-Shacham short signatures and
// multisignatures over the bn254 pairing group.
//
// Alpenhorn uses BLS for the PKGSigs field of friend requests (§4.5): every
// PKG signs the tuple (identity, long-term signing key, round), and the
// client combines the signatures into a single 64-byte multisignature. A
// recipient that trusts ANY one PKG can verify that the sender's key is
// genuine by checking the multisignature against the sum of all PKG public
// keys.
//
// Verification is one optimal-ate pairing-product check,
// a(σ, −G2)·a(H(m), pk) == 1 (bn254.AtePairingCheck): a single ~65-iteration
// loop shared by both pairs, replayed from line tables — −G2's built once
// per process, a PublicKey's once per key on its first Verify (~90 line
// triples ≈ 17 KB; PKG keys are long-term and pinned, so the table lives as
// long as the key). The ate and Tate pairings differ by a fixed exponent
// prime to the group order, so the check accepts exactly the signatures the
// textbook e(σ, G2) == e(H(m), pk) accepts; signatures and keys are unchanged
// on the wire.
//
// Aggregate, then attribute. A verifier holding n signature shares over one
// message (a client collecting its PKG attestations) should verify the
// AGGREGATE against the aggregate key — one check instead of n — and fall
// back to share-by-share verification only when that fails, to name the
// faulty signer. Nothing is lost: only the aggregate is ever used
// afterwards, and a recipient accepts or rejects it by the very same check.
// (Shares that are individually invalid but sum to a valid multisignature
// would pass; they are indistinguishable, downstream, from honest shares.)
// Plain summation of keys is safe here because PKG keys are pinned in the
// client (§3.3), not chosen by an adversary who has seen the honest keys —
// see AggregatePublicKeys.
package bls

import (
	"errors"
	"io"
	"math/big"
	"sync"

	"alpenhorn/internal/bn254"
)

const hashDomain = "bls-signature"

// Sizes of marshalled keys and signatures in bytes.
const (
	PublicKeySize  = 128
	SignatureSize  = 64
	PrivateKeySize = 32
)

// PrivateKey is a BLS signing key.
type PrivateKey struct {
	x *big.Int
}

// PublicKey is a BLS verification key (or an aggregation of several).
type PublicKey struct {
	p *bn254.G2

	// lines is p's optimal-ate line table, built by the first Verify
	// against this key and replayed by every later one.
	linesOnce sync.Once
	lines     *bn254.AtePrecomputedG2
}

func (p *PublicKey) ateLines() *bn254.AtePrecomputedG2 {
	p.linesOnce.Do(func() { p.lines = bn254.AtePrecomputeG2(p.p) })
	return p.lines
}

// negG2Lines is the line table of −G2, the fixed argument every
// verification pairs the signature against.
var negG2Lines = sync.OnceValue(func() *bn254.AtePrecomputedG2 {
	return bn254.AtePrecomputeG2(new(bn254.G2).Neg(bn254.G2Generator()))
})

// Signature is a BLS signature (or a multisignature).
type Signature struct {
	s *bn254.G1
}

// GenerateKey creates a new key pair.
func GenerateKey(rand io.Reader) (*PublicKey, *PrivateKey, error) {
	x, err := bn254.RandomScalar(rand)
	if err != nil {
		return nil, nil, err
	}
	return &PublicKey{p: new(bn254.G2).ScalarBaseMult(x)}, &PrivateKey{x: x}, nil
}

// Sign signs msg: σ = x·H(msg) ∈ G1.
func Sign(priv *PrivateKey, msg []byte) *Signature {
	h := bn254.HashToG1(hashDomain, msg)
	return &Signature{s: new(bn254.G1).ScalarMult(h, priv.x)}
}

// Verify reports whether sig is a valid signature on msg under pub:
// e(σ, G2) == e(H(m), pk), checked as the ate pairing product
// a(σ, −G2)·a(H(m), pk) == 1 (see the package comment).
func Verify(pub *PublicKey, msg []byte, sig *Signature) bool {
	if pub == nil || sig == nil || sig.s.IsInfinity() {
		return false
	}
	h := bn254.HashToG1(hashDomain, msg)
	return bn254.AtePairingCheck(
		[]*bn254.G1{sig.s, h},
		[]*bn254.AtePrecomputedG2{negG2Lines(), pub.ateLines()},
	)
}

// AggregateSignatures combines signatures from independent signers over the
// SAME message into one multisignature.
func AggregateSignatures(sigs ...*Signature) *Signature {
	sum := new(bn254.G1).SetInfinity()
	for _, s := range sigs {
		sum.Add(sum, s.s)
	}
	return &Signature{s: sum}
}

// AggregatePublicKeys combines verification keys; a multisignature over a
// message verifies against the aggregation of the signers' keys.
//
// Note on rogue-key attacks: Alpenhorn's PKG keys are long-term and pinned
// in the client software package (§3.3), so the adversary cannot choose a
// PKG key as a function of the honest keys; plain aggregation is therefore
// safe in this deployment model.
func AggregatePublicKeys(pubs ...*PublicKey) *PublicKey {
	sum := new(bn254.G2).SetInfinity()
	for _, p := range pubs {
		sum.Add(sum, p.p)
	}
	return &PublicKey{p: sum}
}

// Marshal encodes the public key.
func (p *PublicKey) Marshal() []byte { return p.p.Marshal() }

// UnmarshalPublicKey decodes and validates a public key (curve and subgroup
// checks included).
func UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	q := new(bn254.G2)
	if err := q.Unmarshal(data); err != nil {
		return nil, err
	}
	return &PublicKey{p: q}, nil
}

// Equal reports whether two public keys are the same point.
func (p *PublicKey) Equal(o *PublicKey) bool { return p.p.Equal(o.p) }

// Marshal encodes the signature.
func (s *Signature) Marshal() []byte { return s.s.Marshal() }

// UnmarshalSignature decodes and validates a signature.
func UnmarshalSignature(data []byte) (*Signature, error) {
	p := new(bn254.G1)
	if err := p.Unmarshal(data); err != nil {
		return nil, err
	}
	return &Signature{s: p}, nil
}

// Marshal encodes the private key.
func (k *PrivateKey) Marshal() []byte {
	out := make([]byte, PrivateKeySize)
	k.x.FillBytes(out)
	return out
}

// UnmarshalPrivateKey decodes a private key.
func UnmarshalPrivateKey(data []byte) (*PrivateKey, error) {
	if len(data) != PrivateKeySize {
		return nil, errors.New("bls: wrong private key length")
	}
	x := new(big.Int).SetBytes(data)
	if x.Sign() == 0 || x.Cmp(bn254.Order) >= 0 {
		return nil, errors.New("bls: private key out of range")
	}
	return &PrivateKey{x: x}, nil
}

// Public returns the public key corresponding to k.
func (k *PrivateKey) Public() *PublicKey {
	return &PublicKey{p: new(bn254.G2).ScalarBaseMult(k.x)}
}
