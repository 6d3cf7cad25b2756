package mixnet

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"io"

	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// The labels of a round's keyed streams: its one permutation, keyed by the
// round onion private key, and each mailbox's noise, keyed by the round's
// noise seed.
const (
	permutationLabel = "alpenhorn/mixnet-permutation:"
	noiseLabel       = "alpenhorn/mixnet-noise:"
)

// keyedStream is the one way this package turns a round secret into
// randomness: SHA-256(label ‖ secret ‖ service ‖ round) keys an AES-256-CTR
// keystream whose counter starts at block index·2^64. Streams of one key
// at different indices therefore never share a counter block (one would
// have to read 2^68 bytes to reach the next index's first block), and
// streams of different labels or secrets never share a key. The hashed
// input and the digest are zeroed here; the AES key schedule is
// aes.NewCipher's own and goes with the reader. label is at most 64 bytes
// and secret 32.
func keyedStream(label string, secret []byte, service wire.Service, round, index uint32) io.Reader {
	var in [64 + 32 + 5]byte
	n := copy(in[:], label)
	n += copy(in[n:], secret)
	in[n] = byte(service)
	binary.BigEndian.PutUint32(in[n+1:], round)
	sum := sha256.Sum256(in[:n+5])
	block, err := aes.NewCipher(sum[:])
	clear(in[:])
	clear(sum[:])
	if err != nil {
		panic(err) // a 32-byte key is always an AES-256 key
	}
	iv := make([]byte, aes.BlockSize)
	binary.BigEndian.PutUint64(iv, uint64(index))
	return &ctrReader{s: cipher.NewCTR(block, iv)}
}

// permutationReader derives the round's shuffle randomness from the round
// ONION PRIVATE KEY: the keyed stream at index 0 of the permutation label,
// which feeds the Fisher-Yates draw.
//
// Why derive instead of drawing fresh randomness: one chain position may
// be served by a shard group whose merge role rotates per round, and the
// position's single full-batch permutation must be the SAME no matter
// which member happens to host the merge — otherwise failover or rotation
// would change the published mailboxes of an otherwise identical round.
// Every group member holds the same round private key (that is what makes
// it one logical mixer), so a key-derived permutation is exactly the
// shared secret the group already has.
//
// The anytrust argument is unchanged: the permutation is secret precisely
// as long as the round private key is secret, and the key already had to
// stay secret — an adversary holding it can peel the position's onions
// and link input to output directly, permutation or no permutation. Both
// secrets live in the same trust domain and die together: Round.Close
// erases the private key, and the derived AES key is never stored. The
// copy of the key that priv.Bytes gives is zeroed here.
func permutationReader(priv *onionbox.PrivateKey, service wire.Service, round uint32) io.Reader {
	kb := priv.Bytes()
	defer clear(kb)
	return keyedStream(permutationLabel, kb, service, round, 0)
}

// ctrReader serves an AES-CTR keystream as an io.Reader.
type ctrReader struct {
	s cipher.Stream
}

func (r *ctrReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	r.s.XORKeyStream(p, p)
	return len(p), nil
}
