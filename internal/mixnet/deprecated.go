package mixnet

import (
	"fmt"

	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// The round step methods below are kept for the round benchmark (bench/)
// alone, which drives a mixer through them; everything else announces a
// key and opens a Round. They assemble a round's RoundSpec step by step,
// and StreamBegin opens it.

type roundKey struct {
	service wire.Service
	round   uint32
}

type legacyRound struct {
	spec RoundSpec
	ann  wire.MixerRoundKey
	r    *Round // opened by StreamBegin
}

// legacy runs fn on the step methods' round under s.legacyMu; with need,
// only once StreamBegin has opened it.
func (s *Server) legacy(service wire.Service, round uint32, need bool, fn func(*legacyRound) error) error {
	s.legacyMu.Lock()
	defer s.legacyMu.Unlock()
	lr := s.rounds[roundKey{service, round}]
	switch {
	case lr == nil:
		return fmt.Errorf("mixnet: round %d (%s) not open", round, service)
	case need && lr.r == nil:
		return fmt.Errorf("mixnet: round %d (%s): no stream in progress", round, service)
	}
	return fn(lr)
}

// Deprecated: use Announce.
func (s *Server) NewRound(service wire.Service, round uint32) (wire.MixerRoundKey, error) {
	s.legacyMu.Lock()
	defer s.legacyMu.Unlock()
	k := roundKey{service, round}
	if lr := s.rounds[k]; lr != nil {
		return lr.ann, nil
	}
	key, ann, err := s.Announce(service, round)
	if err == nil {
		s.rounds[k] = &legacyRound{spec: RoundSpec{Service: service, Round: round, ShardCount: 1, Key: key}, ann: ann}
	}
	return ann, err
}

// Deprecated: use ExportKey.
func (s *Server) ExportRoundKey(service wire.Service, round uint32) (key []byte, err error) {
	err = s.legacy(service, round, false, func(lr *legacyRound) error {
		key, err = s.ExportKey(lr.spec.Key)
		return err
	})
	return key, err
}

// Deprecated: use RoundSpec.Import.
func (s *Server) ImportRoundKey(service wire.Service, round uint32, privBytes []byte) error {
	defer clear(privBytes)
	if err := s.keyExchange(); err != nil {
		return err
	}
	priv, err := onionbox.UnmarshalPrivateKey(privBytes)
	if err != nil {
		return err
	}
	s.legacyMu.Lock()
	defer s.legacyMu.Unlock()
	lr := s.rounds[roundKey{service, round}]
	switch {
	case lr == nil:
		s.rounds[roundKey{service, round}] = &legacyRound{spec: RoundSpec{Service: service, Round: round, ShardCount: 1, Key: priv}}
	case lr.r != nil:
		priv.Erase()
		return fmt.Errorf("mixnet: round %d (%s): key import after round started", round, service)
	default:
		lr.spec.Key.Erase()
		lr.spec.Key = priv
	}
	return nil
}

// Deprecated: use RoundSpec.ShardIndex and ShardCount.
func (s *Server) SetRoundShard(service wire.Service, round uint32, index, count int) error {
	return s.legacy(service, round, false, func(lr *legacyRound) error {
		lr.spec.ShardIndex, lr.spec.ShardCount = index, count
		return nil
	})
}

// Deprecated: use RoundSpec.Downstream.
func (s *Server) SetDownstreamKeys(service wire.Service, round uint32, keys [][]byte) error {
	return s.legacy(service, round, false, func(lr *legacyRound) error {
		lr.spec.Downstream = keys
		return nil
	})
}

// Deprecated: use Open.
func (s *Server) StreamBegin(service wire.Service, round uint32, numMailboxes uint32) error {
	return s.legacy(service, round, false, func(lr *legacyRound) (err error) {
		if lr.r != nil {
			return fmt.Errorf("mixnet: round %d (%s): stream already in progress", round, service)
		}
		lr.spec.NumMailboxes = numMailboxes
		lr.r, err = s.Open(lr.spec)
		return err
	})
}

// Deprecated: use Round.Chunk.
func (s *Server) StreamChunk(service wire.Service, round uint32, chunk [][]byte) error {
	return s.legacy(service, round, true, func(lr *legacyRound) error { return lr.r.Chunk(0, chunk) })
}

// Deprecated: use Round.EndShard.
func (s *Server) StreamEndShard(service wire.Service, round uint32) (out [][]byte, err error) {
	var r *Round
	if err = s.legacy(service, round, true, func(lr *legacyRound) error { r = lr.r; return nil }); err != nil {
		return nil, err
	}
	return r.EndShard()
}

// Deprecated: use Round.Merge.
func (s *Server) MergeShuffle(service wire.Service, round uint32, parts [][][]byte) (out [][]byte, err error) {
	err = s.legacy(service, round, true, func(lr *legacyRound) error { out, err = lr.r.Merge(parts); return err })
	return out, err
}

// Deprecated: use Round.Close.
func (s *Server) CloseRound(service wire.Service, round uint32) {
	s.legacyMu.Lock()
	lr := s.rounds[roundKey{service, round}]
	delete(s.rounds, roundKey{service, round})
	s.legacyMu.Unlock()
	if lr == nil {
		return
	}
	if lr.r != nil {
		lr.r.Close()
	}
	lr.spec.Key.Erase()
}

// Deprecated: use BuildMailboxesRange over [0, numMailboxes); the build
// runs on GOMAXPROCS workers whatever workers says.
func BuildMailboxesParallel(service wire.Service, numMailboxes uint32, batch [][]byte, workers int) (map[uint32][]byte, error) {
	return BuildMailboxesRange(service, 0, numMailboxes, batch)
}
