package onionbox

import (
	"crypto/ecdh"
	"errors"
	"io"
	"math/big"
	"sync"
)

// sealerBreakEven is the number of boxes from which a Sealer builds a
// table for its recipient; below it every box takes the crypto/ecdh
// ladder. It is the measured table cost over the measured saving per box,
// doubled: on the development box (BenchmarkSealerTable, BenchmarkSealBatch,
// BenchmarkSealLadder) a table costs 0.21 ms and a box 43 µs on it against
// 100 µs on the ladder, so four boxes repay it; 8 leaves room for a machine
// where the pure-Go table arithmetic is slower relative to the standard
// library's assembly ladder.
const sealerBreakEven = 8

// sealChunk boxes share one field inversion. 64 of them make its cost
// (265 multiplications) invisible and keep the scratch under 16 KB.
const sealChunk = 64

// A Sealer seals boxes to one recipient key. With enough boxes in prospect
// it holds a fixed-base table for the key, which makes each box cost two
// table walks instead of two Montgomery ladders; the boxes are the same
// bytes either way. A Sealer holds nothing secret — the table is a
// function of the public key — and may be used from several goroutines.
type Sealer struct {
	to    *PublicKey
	table *combTable // nil: every box goes down the ladder
}

// NewSealer returns a Sealer for about n boxes to the recipient. It falls
// back to the ladder when n is too small to repay a table, and when the
// key is not the image of an affine Edwards point: u = −1, or a point of
// the twist, which X25519 accepts and the table arithmetic cannot hold.
func NewSealer(to *PublicKey, n int) *Sealer {
	s := &Sealer{to: to}
	if n < sealerBreakEven {
		return s
	}
	if x, y, ok := edwardsFromU(to.k.Bytes()); ok {
		s.table = new(combTable)
		s.table.fill(x, y)
	}
	return s
}

var (
	baseOnce  sync.Once
	baseTab   *combTable
	curveP    = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	basePoint = [32]byte{9}
)

// baseTable is the table of the X25519 base point u = 9, built on first
// use and shared by every Sealer.
func baseTable() *combTable {
	baseOnce.Do(func() {
		x, y, ok := edwardsFromU(basePoint[:])
		if !ok {
			panic("onionbox: base point is not on the curve")
		}
		baseTab = new(combTable)
		baseTab.fill(x, y)
	})
	return baseTab
}

// edwardsFromU maps the Montgomery u-coordinate in a public key to an
// affine Edwards point: y = (u−1)/(u+1), x² = (y²−1)/(dy²+1). Either root
// serves, since the u-coordinate of a multiple depends on y alone. It works
// on public keys only, so math/big and its data-dependent timing are fine
// here. ok is false for u = −1 and for points of the twist.
func edwardsFromU(key []byte) (x, y *fe, ok bool) {
	mod := func(v *big.Int) *big.Int { return v.Mod(v, curveP) }
	one := big.NewInt(1)

	u := leToBig(key)
	u.SetBit(u, 255, 0) // RFC 7748 §5: the top bit is ignored
	mod(u)
	den := mod(new(big.Int).Add(u, one))
	if den.Sign() == 0 {
		return nil, nil, false
	}
	yy := mod(new(big.Int).Sub(u, one))
	mod(yy.Mul(yy, den.ModInverse(den, curveP)))

	d := new(big.Int).ModInverse(big.NewInt(121666), curveP)
	mod(d.Mul(d, big.NewInt(-121665)))
	y2 := mod(new(big.Int).Mul(yy, yy))
	den = mod(new(big.Int).Add(new(big.Int).Mul(d, y2), one)) // never 0: −1/d is not a square
	x2 := mod(new(big.Int).Sub(y2, one))
	mod(x2.Mul(x2, den.ModInverse(den, curveP)))
	xx := new(big.Int).ModSqrt(x2, curveP)
	if xx == nil {
		return nil, nil, false
	}
	return bigToFe(xx), bigToFe(yy), true
}

// leToBig reads a little-endian encoding.
func leToBig(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i := range be {
		be[i] = b[len(b)-1-i]
	}
	return new(big.Int).SetBytes(be)
}

// bigToFe converts a value already reduced mod p.
func bigToFe(v *big.Int) *fe {
	var be, b [32]byte
	v.FillBytes(be[:])
	for i := range b {
		b[i] = be[31-i]
	}
	f := new(fe)
	f.setBytes(&b)
	return f
}

// montgomeryU sets out[i] to the bytes of num[i]/den[i] with one inversion
// for all of them (Montgomery's trick), and to zero where den[i] is 0 — the
// value RFC 7748's ladder gives for the point at infinity. num is used as
// scratch. Constant time: zeros are replaced by masking, never branched on.
func montgomeryU(out [][32]byte, num, den, prefix []fe) {
	acc := feOne
	for i := range den {
		zero := den[i].isZero()
		den[i].sel(&feOne, &den[i], zero)
		num[i].sel(&fe{}, &num[i], zero)
		prefix[i] = acc
		acc.mul(&acc, &den[i])
	}
	acc.invert(&acc)
	for i := len(den) - 1; i >= 0; i-- {
		var inv fe
		inv.mul(&acc, &prefix[i])
		acc.mul(&acc, &den[i])
		num[i].mul(&num[i], &inv)
		num[i].bytes(&out[i])
	}
}

var errLowOrder = errors.New("onionbox: bad recipient key: low order point")

// sealInPlace seals boxes[i] with the ephemeral key seeds[32i:32i+32]. A
// box arrives with its message at box[32:len(box)−16] and leaves as
// ephemeral public key ‖ AEAD ciphertext, as Seal makes it.
func (s *Sealer) sealInPlace(seeds []byte, boxes [][]byte) error {
	recvPub := s.to.k.Bytes()
	if s.table == nil {
		for i, box := range boxes {
			if err := sealLadder(seeds[32*i:32*i+32], s.to.k, recvPub, box); err != nil {
				return err
			}
		}
		return nil
	}

	// One chunk of scratch: per box the ephemeral public key and the
	// shared secret, each as a fraction (Z+Y)/(Z−Y).
	n := min(len(boxes), sealChunk)
	fes := make([]fe, 3*2*n)
	num, den, prefix := fes[:2*n], fes[2*n:4*n], fes[4*n:]
	us := make([][32]byte, 2*n)
	var digits [64]int8
	var p point
	defer func() {
		// Everything below is a function of the ephemeral secrets.
		digits = [64]int8{}
		p = point{}
		clear(fes)
		clear(us)
	}()

	base := baseTable()
	for len(boxes) > 0 {
		n = min(len(boxes), sealChunk)
		for i := 0; i < n; i++ {
			recode(&digits, seeds[32*i:])
			base.scalarMult(&p, &digits)
			num[2*i].add(&p.z, &p.y)
			den[2*i].sub(&p.z, &p.y)
			s.table.scalarMult(&p, &digits)
			num[2*i+1].add(&p.z, &p.y)
			den[2*i+1].sub(&p.z, &p.y)
		}
		montgomeryU(us[:2*n], num[:2*n], den[:2*n], prefix[:2*n])
		for i, box := range boxes[:n] {
			shared := &us[2*i+1]
			var acc byte
			for _, b := range shared {
				acc |= b
			}
			if acc == 0 {
				return errLowOrder
			}
			copy(box, us[2*i][:])
			sealBody(box, shared[:], recvPub)
		}
		seeds, boxes = seeds[32*n:], boxes[n:]
	}
	return nil
}

// sealLadder seals one box with crypto/ecdh's Montgomery ladder.
func sealLadder(seed []byte, to *ecdh.PublicKey, recvPub, box []byte) error {
	eph, err := ecdh.X25519().NewPrivateKey(seed)
	if err != nil {
		return err
	}
	shared, err := eph.ECDH(to)
	if err != nil {
		return err
	}
	copy(box, eph.PublicKey().Bytes())
	sealBody(box, shared, recvPub)
	return nil
}

// SealBatch seals every message to the recipient. It reads rand exactly
// as len(msgs) calls of Seal would, so the same reader gives the same
// boxes.
func (s *Sealer) SealBatch(rand io.Reader, msgs [][]byte) ([][]byte, error) {
	seeds := make([]byte, 32*len(msgs))
	defer clear(seeds)
	if _, err := io.ReadFull(rand, seeds); err != nil {
		return nil, err
	}
	boxes := make([][]byte, len(msgs))
	for i, msg := range msgs {
		boxes[i] = make([]byte, len(msg)+Overhead)
		copy(boxes[i][32:], msg)
	}
	if err := s.sealInPlace(seeds, boxes); err != nil {
		return nil, err
	}
	return boxes, nil
}

// An OnionBatch wraps many messages through the same hops, layer by layer,
// so that each hop's Sealer sees all of its boxes at once. Add reads rand
// exactly as WrapOnion would for that message — one ephemeral seed per
// hop, last hop first — so a batch consumes a reader as the same sequence
// of WrapOnion calls does and produces the same onions.
type OnionBatch struct {
	hops   []*Sealer
	seeds  [][]byte // seeds[i]: hop i's ephemeral seeds, 32 bytes a message
	onions [][]byte
}

// NewOnionBatch starts an empty batch; hops[0] will peel the outermost
// layer.
func NewOnionBatch(hops []*Sealer) *OnionBatch {
	return &OnionBatch{hops: hops, seeds: make([][]byte, len(hops))}
}

// Add queues msg and draws its ephemeral seeds.
func (b *OnionBatch) Add(rand io.Reader, msg []byte) error {
	if len(b.hops) == 0 {
		b.onions = append(b.onions, msg) // as WrapOnion through no hops
		return nil
	}
	var seed [32]byte
	defer clear(seed[:])
	for i := len(b.hops) - 1; i >= 0; i-- {
		if _, err := io.ReadFull(rand, seed[:]); err != nil {
			return err
		}
		b.seeds[i] = appendSeed(b.seeds[i], &seed)
	}
	// The whole onion is built in one buffer: layer i's box starts 32·i
	// bytes in, and each layer's ciphertext overwrites the box it wraps.
	onion := make([]byte, 32*len(b.hops), OnionSize(len(msg), len(b.hops)))
	b.onions = append(b.onions, append(onion, msg...))
	return nil
}

// appendSeed is append that zeroes the array it grows out of, so that no
// copy of a seed is left behind for the collector.
func appendSeed(seeds []byte, seed *[32]byte) []byte {
	if len(seeds)+len(seed) > cap(seeds) {
		grown := make([]byte, len(seeds), 2*cap(seeds)+16*len(seed))
		copy(grown, seeds)
		clear(seeds)
		seeds = grown
	}
	return append(seeds, seed[:]...)
}

// Wrap seals every queued message through every hop and returns the
// onions in the order they were added. The batch is spent afterwards.
func (b *OnionBatch) Wrap() ([][]byte, error) {
	defer func() {
		for _, s := range b.seeds {
			clear(s)
		}
		b.seeds, b.onions = nil, nil
	}()
	boxes := make([][]byte, len(b.onions))
	for i := len(b.hops) - 1; i >= 0; i-- {
		for j, onion := range b.onions {
			b.onions[j] = onion[:len(onion)+16]
			boxes[j] = b.onions[j][32*i:]
		}
		if err := b.hops[i].sealInPlace(b.seeds[i], boxes); err != nil {
			return nil, err
		}
	}
	return b.onions, nil
}
