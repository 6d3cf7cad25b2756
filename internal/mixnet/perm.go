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

// permutationReader derives the round's shuffle randomness from the round
// ONION PRIVATE KEY: SHA-256(tag ‖ priv ‖ service ‖ round) keys an
// AES-256-CTR keystream that feeds the Fisher-Yates draw.
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
// secrets live in the same trust domain and die together: CloseRound
// erases the private key, and the derived AES key is never stored. The
// copy of the key that priv.Bytes gives, the hashed input and the digest
// are zeroed here; the AES key schedule is aes.NewCipher's own and goes
// with the reader.
func permutationReader(priv *onionbox.PrivateKey, service wire.Service, round uint32) (io.Reader, error) {
	const label = "alpenhorn/mixnet-permutation:"
	kb := priv.Bytes()
	var in [len(label) + 32 + 5]byte
	n := copy(in[:], label)
	n += copy(in[n:], kb)
	in[n] = byte(service)
	binary.BigEndian.PutUint32(in[n+1:], round)
	sum := sha256.Sum256(in[:])
	block, err := aes.NewCipher(sum[:])
	clear(kb)
	clear(in[:])
	clear(sum[:])
	if err != nil {
		return nil, err
	}
	iv := make([]byte, aes.BlockSize)
	return &ctrReader{s: cipher.NewCTR(block, iv)}, nil
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
