package ibe

import (
	"crypto/sha256"
	"hash"
	"sync"

	"alpenhorn/internal/bn254"
)

// batchScratch bundles the reusable buffers of one DecryptBatch call:
// the bn254 pipeline scratch plus the pairing outputs, the hash state for
// key derivation, and the AEAD block buffers. Pooled so concurrent
// mailbox-scan workers each grab a warm set instead of reallocating per
// chunk.
type batchScratch struct {
	pair   *bn254.PairScratch
	gts    []bn254.GT
	ok     []bool
	raws   [][]byte
	gtBuf  []byte
	keyBuf []byte
	h      hash.Hash
	gcm    gcmScratch
}

var batchPool = sync.Pool{
	New: func() interface{} {
		return &batchScratch{
			pair:  bn254.NewPairScratch(0),
			gtBuf: make([]byte, 0, 384),
			h:     sha256.New(),
		}
	},
}

func (s *batchScratch) grow(n int) {
	if cap(s.gts) < n {
		s.gts = make([]bn254.GT, n)
		s.ok = make([]bool, n)
		s.raws = make([][]byte, n)
	}
	s.gts = s.gts[:n]
	s.ok = s.ok[:n]
	s.raws = s.raws[:n]
}

// DecryptBatch trial-decrypts a whole slice of ciphertexts with one key,
// element-wise identical to calling Decrypt on each (msgs[i], oks[i]) ==
// Decrypt(ipk, ctxts[i]) — but sharing the batched pairing pipeline:
// G1 decoding, one replay of the key's line table per element, one Fp12
// inversion for the whole batch (see bn254.AtePrecomputedG2.PairBatch),
// then per-element key derivation and AEAD opening. Malformed or foreign
// ciphertexts yield oks[i] = false without disturbing their neighbors.
// Safe for concurrent calls with the same key, which is how the
// mailbox-scan worker pool uses it.
//
// Plaintexts are carved from ONE arena allocation per batch — the arena
// escapes to the caller inside msgs, so it is deliberately NOT pooled —
// and the AEAD runs through the single-allocation gcmOpen, keeping the
// whole layer at ~1.2 heap allocations per ciphertext (the scalar stdlib
// path costs ~4.5; a test ratchets the bound).
func DecryptBatch(ipk *IdentityPrivateKey, ctxts [][]byte) ([][]byte, []bool) {
	pre := ipk.pre
	if pre == nil {
		pre = bn254.AtePrecomputeG2(ipk.d)
	}
	n := len(ctxts)
	msgs := make([][]byte, n)
	oks := make([]bool, n)
	if n == 0 {
		return msgs, oks
	}
	s := batchPool.Get().(*batchScratch)
	s.grow(n)
	for i, c := range ctxts {
		if len(c) < Overhead {
			s.raws[i] = nil // wrong length: flagged invalid by the pipeline
		} else {
			s.raws[i] = c[:uSize]
		}
	}
	pre.PairBatch(s.raws, s.gts, s.ok, s.pair)
	total := 0
	for i := range ctxts {
		if s.ok[i] {
			total += len(ctxts[i]) - Overhead
		}
	}
	arena := make([]byte, 0, total)
	off := 0
	for i := range ctxts {
		if !s.ok[i] {
			continue
		}
		s.h.Reset()
		s.h.Write(sealKeyPrefix)
		s.gtBuf = s.gts[i].AppendMarshal(s.gtBuf[:0])
		s.h.Write(s.gtBuf)
		s.keyBuf = s.h.Sum(s.keyBuf[:0])
		plen := len(ctxts[i]) - Overhead
		msg, ok := gcmOpen(s.keyBuf, arena[off:off:off+plen], ctxts[i][uSize:], &s.gcm)
		if ok {
			msgs[i], oks[i] = msg, true
			off += plen
		}
	}
	for i := range s.raws {
		s.raws[i] = nil // do not retain caller ciphertexts in the pool
	}
	batchPool.Put(s)
	return msgs, oks
}

// Deprecated: DecryptBatchV2 is DecryptBatch; bench/probe.go, frozen for this PR, calls it.
func DecryptBatchV2(ipk *IdentityPrivateKey, ctxts [][]byte) ([][]byte, []bool) {
	return DecryptBatch(ipk, ctxts)
}
