// Package onionbox provides public-key authenticated encryption (a NaCl-box
// equivalent built from X25519 + AES-GCM) and the layered onion wrapping
// that Alpenhorn clients apply to requests before submitting them to the
// mixnet (Algorithm 1, step 3).
//
// Every box's AES-GCM is internal/aead's: a key used for one message, the
// all-zero nonce, sealed in place and opened by appending, at one heap
// allocation (the AES key schedule). What a box allocates beyond that is
// crypto/ecdh's own, and the box Seal returns or the message Open does;
// OpenAppend into a buffer with room allocates no message.
//
// Each layer uses a FRESH ephemeral sender key pair, so onions provide
// forward secrecy: once a mixnet server rotates its round key, recorded
// onions for that round become undecryptable.
//
// # Two ways to the same box
//
// A box is X25519 twice — the ephemeral public key k·9 and the shared
// secret k·U for the recipient's U — and both are multiplications of a
// point that is fixed for as long as the recipient is. Seal and WrapOnion
// (a client's one onion a round) and Open (variable base: every box brings
// its own point) run them on crypto/ecdh's Montgomery ladder. A Sealer,
// which a mix server builds per downstream round key for a round's noise
// and the workload generator per hop, precomputes a fixed-base comb table
// for U (and shares one for 9) and walks the tables instead. The two
// compute the same function: the boxes are byte-identical, which
// TestWrapOnionKnownAnswer, TestSealBatchMatchesSeal, FuzzCombMatchesECDH
// and mixnet's TestNoiseMatchesLadderOracle pin. Which one runs is decided
// from what NewSealer can see — the number of boxes in prospect against
// sealerBreakEven, and whether U is on the curve — and by nothing a user
// sets.
//
// # Timing model
//
// The secrets in this package are a box's ephemeral seed and what is
// derived from it: the clamped scalar, its signed digits, the two product
// points and the shared secret. The AEAD key hashed from the shared
// secret goes to internal/aead, and what that derives from it (the AES key
// schedule, the GHASH key, the keystream) follows that package's timing
// model: no secret-indexed table, and pooled scratch zeroed before reuse.
//
// Constant-time, with no branch and no memory index that depends on a
// secret: digit recoding (recode); table lookup, which reads all eight
// entries of a window and keeps one by masking, and the conditional negate
// that follows (combTable.lookup, niels.condNeg); point addition and
// doubling, complete formulas with one instruction sequence for every
// input (completed.addNiels, completed.double); the field arithmetic under
// them (fe: 64×64→128-bit multiplies and adds from math/bits, carries by
// shift and mask); the shared inversion, a fixed addition chain, with zero
// denominators replaced by masking (montgomeryU, fe.invert); and the
// all-zero check of a shared secret, which ORs all 32 bytes before it
// branches, once, on whether the recipient key was of low order — as
// crypto/ecdh does. The window position, the chunking of a batch and the
// choice of table or ladder are functions of public values. The ladder
// path is crypto/ecdh's and inherits its guarantees.
//
// Not constant-time, and touching public data only: mapping a recipient's
// public key to an Edwards point (edwardsFromU: math/big, a modular square
// root) and building its table (combTable.fill). A table is a function of
// a public key. It lives in a Sealer, and the mix server drops its Sealers
// when the round's noise has been generated, before the round key they
// were built from is erased.
//
// Ephemeral seeds and digits are zeroed before the call that read them
// returns (SealBatch, OnionBatch.Wrap, WrapOnion), as is the scratch that
// held the product points and shared secrets.
package onionbox

import (
	"crypto/ecdh"
	"crypto/sha256"
	"errors"
	"io"

	"alpenhorn/internal/aead"
)

// Overhead is the per-layer size expansion: a 32-byte ephemeral public key
// plus a 16-byte AEAD tag.
const Overhead = 32 + aead.Overhead

// PublicKey is an X25519 public key used to receive boxes.
type PublicKey struct {
	k *ecdh.PublicKey
}

// PrivateKey is an X25519 private key.
type PrivateKey struct {
	k *ecdh.PrivateKey
	// pub is the public key's encoding, which every Open hashes into the
	// box key.
	pub []byte
}

func newPrivateKey(k *ecdh.PrivateKey) *PrivateKey {
	return &PrivateKey{k: k, pub: k.PublicKey().Bytes()}
}

// generateX25519 derives a fresh X25519 key from exactly 32 bytes of the
// reader. crypto/ecdh's own GenerateKey deliberately consumes a
// NONDETERMINISTIC number of bytes (randutil.MaybeReadByte), which would
// make runs with a fixed Config.Rand irreproducible; Alpenhorn's
// determinism tests compare whole mailboxes byte-for-byte across data
// planes, so key generation must consume a fixed-width stream. The
// resulting keys are identical in distribution (clamping happens inside
// the X25519 scalar multiplication per RFC 7748).
func generateX25519(rand io.Reader) (*ecdh.PrivateKey, error) {
	seed := make([]byte, 32)
	if _, err := io.ReadFull(rand, seed); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(seed)
}

// GenerateKey creates a new box key pair.
func GenerateKey(rand io.Reader) (*PublicKey, *PrivateKey, error) {
	priv, err := generateX25519(rand)
	if err != nil {
		return nil, nil, err
	}
	return &PublicKey{k: priv.PublicKey()}, newPrivateKey(priv), nil
}

// Public returns the public key for k.
func (k *PrivateKey) Public() *PublicKey { return &PublicKey{k: k.k.PublicKey()} }

// Bytes returns the 32-byte encoding of the private key. It exists so the
// shards of one mixnet position — a single trust domain standing in for
// one logical server — can share a round key; nothing else should ever
// serialize a private key.
func (k *PrivateKey) Bytes() []byte { return k.k.Bytes() }

// UnmarshalPrivateKey decodes a 32-byte X25519 private key.
func UnmarshalPrivateKey(data []byte) (*PrivateKey, error) {
	k, err := ecdh.X25519().NewPrivateKey(data)
	if err != nil {
		return nil, err
	}
	return newPrivateKey(k), nil
}

// Bytes returns the 32-byte encoding of the public key.
func (p *PublicKey) Bytes() []byte { return p.k.Bytes() }

// UnmarshalPublicKey decodes a 32-byte X25519 public key.
func UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	k, err := ecdh.X25519().NewPublicKey(data)
	if err != nil {
		return nil, err
	}
	return &PublicKey{k: k}, nil
}

const keyLabel = "alpenhorn/onionbox/key:"

// deriveKey computes the AEAD key from the DH shared secret and the
// transcript of both public keys (32 bytes each).
func deriveKey(shared, ephPub, recvPub []byte) [32]byte {
	var buf [len(keyLabel) + 3*32]byte
	n := copy(buf[:], keyLabel)
	n += copy(buf[n:], shared)
	n += copy(buf[n:], ephPub)
	copy(buf[n:], recvPub)
	return sha256.Sum256(buf[:])
}

// sealBody encrypts the message at box[32:len(box)−16] in place under the
// key derived from shared and the two public keys; box[:32] already holds
// the ephemeral one. The key is fresh per box, which is what aead's fixed
// nonce asks.
func sealBody(box, shared, recvPub []byte) {
	key := deriveKey(shared, box[:32], recvPub)
	aead.Seal(&key, box[32:])
}

// Seal encrypts msg to the recipient with a fresh ephemeral key. The output
// is len(msg)+Overhead bytes: ephemeral public key ‖ AEAD ciphertext.
func Seal(rand io.Reader, to *PublicKey, msg []byte) ([]byte, error) {
	return WrapOnion(rand, []*PublicKey{to}, msg)
}

// Open decrypts a box sealed to priv's public key.
func Open(priv *PrivateKey, box []byte) ([]byte, error) {
	return OpenAppend(nil, priv, box)
}

// OpenAppend decrypts a box sealed to priv's public key and appends the
// message to dst, so that a batch of boxes can be opened into one buffer
// (len(box)−Overhead bytes each); with room for the message, dst is not
// reallocated. It never writes to box. On failure it returns dst
// unchanged, with nothing written past len(dst).
func OpenAppend(dst []byte, priv *PrivateKey, box []byte) ([]byte, error) {
	if len(box) < Overhead {
		return dst, errors.New("onionbox: box too short")
	}
	ephPub, err := ecdh.X25519().NewPublicKey(box[:32])
	if err != nil {
		return dst, err
	}
	shared, err := priv.k.ECDH(ephPub)
	if err != nil {
		return dst, err
	}
	key := deriveKey(shared, box[:32], priv.pub)
	out, ok := aead.Open(dst, &key, box[32:])
	if !ok {
		return dst, errors.New("onionbox: decryption failed")
	}
	return out, nil
}

// WrapOnion encrypts msg under each hop key from last to first, so that
// hops[0] peels the outermost layer. This is exactly Algorithm 1 step 3:
// "Encryption happens in reverse, from server n to server 1." The onion
// is built in one buffer, each layer's ciphertext overwriting the box it
// wraps.
func WrapOnion(rand io.Reader, hops []*PublicKey, msg []byte) ([]byte, error) {
	var seed [32]byte
	defer clear(seed[:])
	onion := make([]byte, 32*len(hops), OnionSize(len(msg), len(hops)))
	onion = append(onion, msg...)
	for i := len(hops) - 1; i >= 0; i-- {
		if _, err := io.ReadFull(rand, seed[:]); err != nil {
			return nil, err
		}
		onion = onion[:len(onion)+16]
		if err := sealLadder(seed[:], hops[i].k, hops[i].k.Bytes(), onion[32*i:]); err != nil {
			return nil, err
		}
	}
	return onion, nil
}

// OnionSize returns the size of an onion wrapping a msgLen-byte payload
// through n hops. All clients produce identical sizes, which is what makes
// cover traffic indistinguishable from real requests.
func OnionSize(msgLen, n int) int { return msgLen + n*Overhead }
