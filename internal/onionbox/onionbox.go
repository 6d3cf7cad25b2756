// Package onionbox provides public-key authenticated encryption (a NaCl-box
// equivalent built from X25519 + AES-GCM) and the layered onion wrapping
// that Alpenhorn clients apply to requests before submitting them to the
// mixnet (Algorithm 1, step 3).
//
// Every box's AES-GCM is internal/aead's: a key used for one message, the
// all-zero nonce, sealed in place and opened by appending, with no heap
// allocation on amd64 with AES-NI and one (the AES key schedule) on
// internal/aead's portable path. A sealed box allocates nothing beyond
// that but the box Seal returns and the ephemeral seed it reads into; an
// opened box nothing but the message Open returns, and OpenAppend into a
// buffer with room allocates no message. crypto/ecdh is left only in the
// PublicKey type, which holds and checks a recipient's encoding.
//
// Each layer uses a FRESH ephemeral sender key pair, so onions provide
// forward secrecy: once a mixnet server rotates its round key, recorded
// onions for that round become undecryptable. A PrivateKey owns its
// scalar, and Erase zeroes it; a mix server erases its round key when the
// round closes.
//
// # Two ways to the same box
//
// A box is X25519 twice on the sealing side — the ephemeral public key k·9
// and the shared secret k·U for the recipient's U — and once on the
// opening side, the round key's scalar times the box's ephemeral point.
// Seal and WrapOnion (a client's one onion a round) take k·9 from the
// base point's fixed-base comb table, which every seal shares, and k·U
// from this package's Montgomery ladder, one inversion for the two
// (sealLadder). A Sealer, which a mix server builds per downstream round
// key for a round's noise and the workload generator per hop, precomputes
// a comb table for U too and walks both tables instead, sharing one
// inversion among up to 64 boxes. On amd64 with AVX-512 IFMA it walks them
// eight boxes at a time, one box a lane, on the lane comb (lane.go): one
// kernel that walks a table for eight scalars in lock-step, each lane
// looking up its own digits. A remainder of fewer than laneCombBreakEven
// boxes, and every box on a CPU without IFMA or off amd64, takes the
// scalar comb. All of them compute the same function: the boxes are
// byte-identical, which TestWrapOnionKnownAnswer,
// TestSealBatchMatchesSeal, TestOnionBatchMatchesWrapOnion,
// FuzzCombMatchesECDH (the lane comb in their /lanes subtests) and
// mixnet's TestNoiseMatchesLadderOracle pin. Which one runs is decided
// from what NewSealer can see — the number of boxes in prospect against
// sealerBreakEven, and whether U is on the curve — and from the CPU, and
// by nothing a user sets.
//
// The opening side is this package's own RFC 7748 ladder (ladder.go),
// variable base since every box brings its own point, the ladder
// sealLadder takes k·U on. OpenBatch, which a
// mixer calls once per Round.Chunk, ladders every box of a chunk and then
// shares one field inversion among up to 64 of them (montgomeryU);
// OpenAppend and Open are a batch of one on the same code. Every box of
// a chunk is laddered with the same scalar, so on amd64 with AVX-512 IFMA
// openBatch ladders them eight at a time, one box a lane, on the lane
// ladder (lane.go): one kernel that walks eight points through the 255
// steps in lock-step; a remainder of fewer than laneBreakEven boxes, and
// every box on a CPU without IFMA or off amd64, takes the scalar ladder.
// Either way it opens exactly the boxes crypto/ecdh's route opens, to the
// same message, which FuzzLadderMatchesECDH, TestOpenBatchMatchesStdlib
// and FuzzOpenAppend pin (the lane ladder in the first two's /lanes
// subtests). A public key is derived from its private scalar on the base
// comb.
//
// Under both sides is one field, GF(2^255 − 19) on four 64-bit limbs
// (field.go). On amd64 with BMI2 and ADX its multiply and square are
// MULX/ADCX/ADOX kernels (onionbox_amd64.s), chosen once at start-up from
// CPUID; elsewhere, and on an amd64 CPU without them, their Go twins run,
// which return the same limbs. Addition, subtraction and the swaps are Go
// on both paths. The lane ladder and the lane comb have a field of their
// own inside their kernels — eight elements in radix 2^51, one 512-bit
// register a limb, multiplied with VPMADD52LUQ/HUQ — and hand each lane's
// result to the shared inversion as an fe; CPUID (AVX-512 F, IFMA, VL) and
// XGETBV (the OS saves ZMM state) choose both once at start-up, into
// laneAsm. The lane comb's tables are the scalar comb's, converted to
// radix 2^51 when they are built (newLaneCombTable).
//
// # Timing model
//
// The secrets in this package are a box's ephemeral seed and what is
// derived from it — the clamped scalar, its signed digits, the two product
// points and the shared secret — and, on the opening side, the round
// key's scalar, the ladder's points and the shared secret. The AEAD key
// hashed from a shared secret goes to internal/aead, and what that
// derives from it (the AES round keys, the GHASH key, the keystream)
// follows that package's timing model: no secret-indexed table, and, on
// its AES-NI path, round keys and keystream erased before Seal or Open
// returns.
//
// Constant-time, with no branch and no memory index that depends on a
// secret: digit recoding (recode); table lookup, which reads all eight
// entries of a window and keeps one by masking, and the conditional negate
// that follows (combTable.lookup, niels.condNeg); the lane comb's lookup,
// where each lane's digit is compared with 1 … 8 into an opmask, every
// limb of every entry of the window is loaded and broadcast, unmasked,
// and merged into the lanes whose mask is set, on top of the identity:
// its addresses are the window's and the entry's, public, the masks act
// on registers only, and what a lane picks changes no load and no
// instruction; its negate is masked moves and a masked 2p − 2dxy
// (laneCombKernel, LANELOOKUP); point addition and
// doubling, complete formulas with one instruction sequence for every
// input (completed.addNiels, completed.double); the ladder, 255 steps of
// one instruction sequence, which reads scalar bit t at position t and
// swaps its points by masking (ladder, cswap); the lane ladder, the same
// 255 steps on eight points in one kernel, whose lanes share one scalar
// and so one swap mask, broadcast from the scalar bit to every lane
// (laneLadderKernel: no lane branches, and what one lane holds changes
// no instruction the others run); the lane comb's additions and
// doublings, the scalar comb's formulas on the lane field, one
// instruction sequence for every lane (laneCombKernel); the field
// arithmetic under them (fe:
// the kernels' MULX products and ADCX/ADOX carry chains, which
// branch only on fieldAsm, a property of the CPU, and their Go twins'
// 64×64→128-bit multiplies and adds from math/bits; carries out of the
// top limb folded back by multiplying, never by branching); the shared
// inversion, a fixed addition chain, with zero denominators replaced by
// masking (montgomeryU, fe.invert); and the all-zero check of a shared
// secret, which ORs all 32 bytes before it branches, once, on whether a
// point was of low order — as crypto/ecdh does. The window position, the
// chunking of a batch, a box's length and the choices of table or ladder
// and of lane or scalar ladder (a box's place in its chunk, the chunk's
// length, laneAsm) are functions of public values, as are the choices of
// lane or scalar comb and a lane group's fill; an empty lane walks digit
// 0, the identity, through the same instructions. TestOperationCount
// (build tag opcount) checks that the ladder, the lane ladder, the comb
// walks and the lane comb do the same field multiplications and squarings
// for any scalar; the lane kernels count their own.
//
// Not constant-time, and touching public data only: mapping a recipient's
// public key to an Edwards point (edwardsFromU: math/big, a modular square
// root) and building its table (combTable.fill). A table is a function of
// a public key. It lives in a Sealer, and the mix server drops its Sealers
// when the round's noise has been generated, before the round key they
// were built from is erased.
//
// # Erasure
//
// Ephemeral seeds and digits are zeroed before the call that read them
// returns (OnionBatch.Wrap, WrapOnion), as is the scratch that
// held the product points and shared secrets (sealInPlace, sealLadder, and
// the lane comb's laneCombState — its digits, point, looked-up entries
// and temporaries — and sealLanes's copies of each lane's result), on the
// opening side too (openBatch, ladder, laneLadder and the lane ladder's
// laneLadderState), and deriveKey's buffer, which holds a shared secret
// beside the two public keys. Each lane kernel clears every vector
// register it used, Z16 to Z31 too, which VZEROUPPER does not reach,
// before it returns, and the lane comb its two opmasks.
// Out of reach: crypto/sha256's own copy of the block it hashes in
// deriveKey.
package onionbox

import (
	"bytes"
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
	// b is k's encoding, which every seal to the key reads: kept here so
	// that reading it copies nothing.
	b [32]byte
}

// newPublicKey wraps k.
func newPublicKey(k *ecdh.PublicKey) *PublicKey {
	p := &PublicKey{k: k}
	copy(p.b[:], k.Bytes())
	return p
}

// PrivateKey is an X25519 private key. It owns its scalar, so that Erase
// can zero it.
type PrivateKey struct {
	seed [32]byte // the scalar as generated; clamped where it is used
	// pub is the public key's encoding, which every Open hashes into the
	// box key.
	pub [32]byte
}

// newPrivateKey takes the 32-byte seed and derives its public key.
func newPrivateKey(seed []byte) *PrivateKey {
	k := new(PrivateKey)
	copy(k.seed[:], seed)
	k.derivePublic()
	return k
}

// derivePublic sets k.pub to seed·9, on the base point's comb table.
func (k *PrivateKey) derivePublic() {
	var digits [64]int8
	var p point
	var u, inv fe
	recode(&digits, k.seed[:])
	baseTable().scalarMult(&p, &digits)
	// u = (Z+Y)/(Z−Y); Z−Y is never 0 for a multiple of the base point.
	inv.sub(&p.z, &p.y)
	inv.invert(&inv)
	u.add(&p.z, &p.y)
	u.mul(&u, &inv)
	u.bytes(&k.pub)
	// What the scalar leaves on the way is secret until pub is public.
	digits, p, u, inv = [64]int8{}, point{}, fe{}, fe{}
}

// GenerateKey creates a new box key pair. It reads exactly 32 bytes of
// rand. crypto/ecdh's own GenerateKey deliberately consumes a
// NONDETERMINISTIC number of bytes (randutil.MaybeReadByte), which would
// make runs with a fixed Config.Rand irreproducible; Alpenhorn's
// determinism tests compare whole mailboxes byte-for-byte across data
// planes, so key generation must consume a fixed-width stream. The
// resulting keys are identical in distribution (clamping happens inside
// the X25519 scalar multiplication per RFC 7748).
func GenerateKey(rand io.Reader) (*PublicKey, *PrivateKey, error) {
	// The seed is read into the key it becomes: an array that io.ReadFull
	// sees escapes, and this one is on the heap already.
	priv := new(PrivateKey)
	if _, err := io.ReadFull(rand, priv.seed[:]); err != nil {
		priv.Erase()
		return nil, nil, err
	}
	priv.derivePublic()
	return priv.Public(), priv, nil
}

// Public returns the public key for k.
func (k *PrivateKey) Public() *PublicKey {
	pub, err := ecdh.X25519().NewPublicKey(k.pub[:])
	if err != nil {
		panic(err) // 32 bytes are always an X25519 public key
	}
	return newPublicKey(pub)
}

// Bytes returns the 32-byte encoding of the private key. It exists so the
// shards of one mixnet position — a single trust domain standing in for
// one logical server — can share a round key; nothing else should ever
// serialize a private key. The caller owns the copy and should clear it.
func (k *PrivateKey) Bytes() []byte { return bytes.Clone(k.seed[:]) }

// Erase zeroes the private scalar. The key opens nothing afterwards, and
// Bytes reads zero. The caller must not erase a key that another goroutine
// is still opening with. (An assignment, not clear: the race detector
// sees the one and not the other, and a test of that rule relies on it.)
func (k *PrivateKey) Erase() { k.seed = [32]byte{} }

// UnmarshalPrivateKey decodes a 32-byte X25519 private key.
func UnmarshalPrivateKey(data []byte) (*PrivateKey, error) {
	if len(data) != 32 {
		return nil, errors.New("onionbox: a private key is 32 bytes")
	}
	return newPrivateKey(data), nil
}

// Bytes returns the 32-byte encoding of the public key.
func (p *PublicKey) Bytes() []byte { return bytes.Clone(p.b[:]) }

// UnmarshalPublicKey decodes a 32-byte X25519 public key.
func UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	k, err := ecdh.X25519().NewPublicKey(data)
	if err != nil {
		return nil, err
	}
	return newPublicKey(k), nil
}

const keyLabel = "alpenhorn/onionbox/key:"

// deriveKey computes the AEAD key from the DH shared secret and the
// transcript of both public keys (32 bytes each). The buffer that held
// the shared secret is zeroed before it returns.
func deriveKey(shared, ephPub, recvPub []byte) [32]byte {
	var buf [len(keyLabel) + 3*32]byte
	n := copy(buf[:], keyLabel)
	n += copy(buf[n:], shared)
	n += copy(buf[n:], ephPub)
	copy(buf[n:], recvPub)
	key := sha256.Sum256(buf[:])
	clear(buf[:])
	return key
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

var (
	errShort = errors.New("onionbox: box too short")
	errOpen  = errors.New("onionbox: decryption failed")
)

// OpenAppend decrypts a box sealed to priv's public key and appends the
// message to dst, so that a batch of boxes can be opened into one buffer
// (len(box)−Overhead bytes each); with room for the message, dst is not
// reallocated. It never writes to box. On failure it returns dst
// unchanged, with nothing written past len(dst). It is OpenBatch's code
// on a batch of one.
func OpenAppend(dst []byte, priv *PrivateKey, box []byte) ([]byte, error) {
	if len(box) < Overhead {
		return dst, errShort
	}
	var end [1]int
	dst = openBatch(dst, priv, [][]byte{box}, end[:])
	if end[0] < 0 {
		return dst, errOpen
	}
	return dst, nil
}

// OpenBatch opens boxes sealed to priv's public key into one buffer,
// allocated once for all of them, and returns the messages of the boxes
// that opened, in box order, each a capacity-capped slice of the buffer,
// so that appending to one cannot overwrite the next. A box that
// OpenAppend would fail — shorter than Overhead, a shared secret of zero,
// or a failed tag — is left out. It never writes to the boxes. Each
// chunk of openChunk boxes shares one field inversion.
func OpenBatch(priv *PrivateKey, boxes [][]byte) [][]byte {
	size := 0
	for _, box := range boxes {
		size += max(len(box)-Overhead, 0)
	}
	ends := make([]int, len(boxes))
	buf := openBatch(make([]byte, 0, size), priv, boxes, ends)
	msgs := make([][]byte, 0, len(boxes))
	start := 0
	for _, end := range ends {
		if end >= 0 {
			msgs = append(msgs, buf[start:end:end])
			start = end
		}
	}
	return msgs
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
		// Each seed is read into the slot its layer's ephemeral key
		// will fill, so no stack array reaches io.ReadFull and escapes,
		// and copied out before sealLadder overwrites the slot.
		slot := onion[32*i : 32*i+32]
		if _, err := io.ReadFull(rand, slot); err != nil {
			clear(slot)
			return nil, err
		}
		copy(seed[:], slot)
		onion = onion[:len(onion)+16]
		if err := sealLadder(seed[:], hops[i].b[:], onion[32*i:]); err != nil {
			clear(slot)
			return nil, err
		}
	}
	return onion, nil
}

// OnionSize returns the size of an onion wrapping a msgLen-byte payload
// through n hops. All clients produce identical sizes, which is what makes
// cover traffic indistinguishable from real requests.
func OnionSize(msgLen, n int) int { return msgLen + n*Overhead }
