package mixnet

import (
	"bytes"
	"crypto/rand"
	mathrand "math/rand"
	"sort"
	"testing"

	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// sortedBatch returns a canonical ordering of a batch so two shuffled
// outputs can be compared as multisets.
func sortedBatch(batch [][]byte) [][]byte {
	out := make([][]byte, len(batch))
	copy(out, batch)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

func sameMultiset(t *testing.T, a, b [][]byte) {
	t.Helper()
	a, b = sortedBatch(a), sortedBatch(b)
	if len(a) != len(b) {
		t.Fatalf("multiset sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("multisets differ at element %d", i)
		}
	}
}

// TestParallelDecryptMatchesSequential is the pipeline's determinism
// check: for the same batch (including malformed onions that must be
// dropped), the worker-pool decrypt stage opens exactly the multiset of
// messages the sequential path opens.
func TestParallelDecryptMatchesSequential(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	hops := openRound(t, servers, wire.Dialing, 1)
	s := servers[0]

	const n = 500
	batch := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1] = byte(i), byte(i>>8)
		onion := makeDialOnion(t, hops, uint32(i%3), tok)
		if i%17 == 0 {
			onion = make([]byte, len(onion)) // malformed: must be dropped
		}
		batch = append(batch, onion)
	}

	seq := decryptBatch(s.rounds[roundKey{wire.Dialing, 1}].priv, batch, 1)
	for _, workers := range []int{2, 3, 8} {
		par := decryptBatch(s.rounds[roundKey{wire.Dialing, 1}].priv, batch, workers)
		sameMultiset(t, seq, par)
		// Order must be preserved pre-shuffle, not just the multiset.
		for i := range seq {
			if !bytes.Equal(seq[i], par[i]) {
				t.Fatalf("workers=%d: order diverges at %d", workers, i)
			}
		}
	}
}

// TestMixParallelMatchesSequentialMultiset runs the same batch through the
// full Mix (decrypt + noise + shuffle) with worker-pool and sequential
// configurations and checks the opened-message multisets agree.
func TestMixParallelMatchesSequentialMultiset(t *testing.T) {
	for _, workers := range []int{1, 4} {
		nz := noise.Laplace{Mu: 0, B: 0}
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 1,
			AddFriendNoise: &nz, DialingNoise: &nz,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		rk, err := s.NewRound(wire.Dialing, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetDownstreamKeys(wire.Dialing, 1, nil); err != nil {
			t.Fatal(err)
		}
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			t.Fatal(err)
		}

		const n = 300
		var batch, want [][]byte
		for i := 0; i < n; i++ {
			tok := make([]byte, keywheel.TokenSize)
			tok[0], tok[1] = byte(i), byte(i>>8)
			batch = append(batch, makeDialOnion(t, []*onionbox.PublicKey{pk}, 0, tok))
			want = append(want, (&wire.MixPayload{Mailbox: 0, Body: tok}).Marshal())
		}
		out, err := s.Mix(wire.Dialing, 1, 1, batch)
		if err != nil {
			t.Fatal(err)
		}
		sameMultiset(t, want, out)
	}
}

// streamEnd closes a group-of-one's stream the way the data plane does:
// the peeled slice, then the position's merge over that one slice.
func streamEnd(s *Server, service wire.Service, round uint32) ([][]byte, error) {
	part, err := s.StreamEndShard(service, round)
	if err != nil {
		return nil, err
	}
	return s.MergeShuffle(service, round, [][][]byte{part})
}

// TestStreamMatchesMix feeds a batch in uneven chunks through the
// streaming intake and checks that the merge of that one slice is, byte
// for byte and in order, what Mix produces for the concatenated batch —
// the property that lets the routed plane be tested against Chain.
func TestStreamMatchesMix(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	hops := openRound(t, servers, wire.Dialing, 1)
	s := servers[0]

	const n = 257 // deliberately not a multiple of any chunk size
	var batch [][]byte
	for i := 0; i < n; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1] = byte(i), byte(i>>8)
		batch = append(batch, makeDialOnion(t, hops, 0, tok))
	}

	mixed, err := s.Mix(wire.Dialing, 1, 1, batch)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; {
		hi := lo + 1 + lo%97
		if hi > n {
			hi = n
		}
		if err := s.StreamChunk(wire.Dialing, 1, batch[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	streamed, err := streamEnd(s, wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(mixed) {
		t.Fatalf("streamed %d messages, Mix produced %d", len(streamed), len(mixed))
	}
	for i := range mixed {
		if !bytes.Equal(mixed[i], streamed[i]) {
			t.Fatalf("message %d differs between the streamed merge and Mix", i)
		}
	}
}

func TestStreamLifecycleErrors(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	openRound(t, servers, wire.Dialing, 1)
	s := servers[0]

	if err := s.StreamChunk(wire.Dialing, 1, nil); err == nil {
		t.Fatal("StreamChunk without StreamBegin succeeded")
	}
	if _, err := streamEnd(s, wire.Dialing, 1); err == nil {
		t.Fatal("stream end without StreamBegin succeeded")
	}
	if err := s.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamBegin(wire.Dialing, 1, 1); err == nil {
		t.Fatal("double StreamBegin succeeded")
	}
	if _, err := streamEnd(s, wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	// Stream state is consumed: a fresh stream can start.
	if err := s.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := streamEnd(s, wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamBegin(wire.Dialing, 99, 1); err == nil {
		t.Fatal("StreamBegin on unopened round succeeded")
	}
	// Abort discards the stream without closing the round, and is a
	// no-op when nothing is in flight.
	if err := s.StreamAbort(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamAbort(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := streamEnd(s, wire.Dialing, 1); err == nil {
		t.Fatal("stream end succeeded after abort")
	}
	if !s.RoundOpen(wire.Dialing, 1) {
		t.Fatal("abort closed the round")
	}
}

// TestPrepareNoiseIsUsed checks that background-prepared noise is consumed
// by the next Mix (right count, no double generation) and that a mailbox
// count mismatch falls back to inline generation.
func TestPrepareNoiseIsUsed(t *testing.T) {
	nz := noise.Laplace{Mu: 5, B: 0}
	servers := newChain(t, 1, nz)
	openRound(t, servers, wire.Dialing, 1)
	s := servers[0]

	const numMailboxes = 4
	if err := s.PrepareNoise(wire.Dialing, 1, numMailboxes); err != nil {
		t.Fatal(err)
	}
	out, err := s.Mix(wire.Dialing, 1, numMailboxes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5*numMailboxes {
		t.Fatalf("got %d noise messages, want %d", len(out), 5*numMailboxes)
	}

	// Mismatched mailbox count: prepared noise for 2 mailboxes must not
	// leak into a Mix for 3.
	if err := s.PrepareNoise(wire.Dialing, 1, 2); err != nil {
		t.Fatal(err)
	}
	out, err = s.Mix(wire.Dialing, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5*3 {
		t.Fatalf("mismatched prepare: got %d noise messages, want %d", len(out), 15)
	}
}

func TestPrepareNoiseRequiresDownstreamKeys(t *testing.T) {
	servers := newChain(t, 2, noNoise)
	// Announce keys but do NOT distribute downstream keys.
	for _, s := range servers {
		if _, err := s.NewRound(wire.Dialing, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := servers[0].PrepareNoise(wire.Dialing, 1, 1); err == nil {
		t.Fatal("PrepareNoise before SetDownstreamKeys succeeded for non-last server")
	}
	// The last server has no downstream hops and needs no keys.
	if err := servers[1].SetDownstreamKeys(wire.Dialing, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := servers[1].PrepareNoise(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestBuildMailboxesParallelMatchesSequential checks that sharded mailbox
// construction is byte-identical to the sequential path for both services.
func TestBuildMailboxesParallelMatchesSequential(t *testing.T) {
	const numMailboxes = 7
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		bodyLen := wire.PayloadSize(service) - 4
		var batch [][]byte
		for i := 0; i < 400; i++ {
			body := make([]byte, bodyLen)
			rand.Read(body)
			mb := uint32(i % (numMailboxes + 2)) // some out of range
			if i%31 == 0 {
				mb = wire.CoverMailbox
			}
			batch = append(batch, (&wire.MixPayload{Mailbox: mb, Body: body}).Marshal())
		}
		batch = append(batch, []byte("malformed"))

		seq, err := BuildMailboxesParallel(service, numMailboxes, batch, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5, 16} {
			par, err := BuildMailboxesParallel(service, numMailboxes, batch, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(seq) {
				t.Fatalf("service %v workers=%d: %d mailboxes, want %d", service, workers, len(par), len(seq))
			}
			for mb := uint32(0); mb < numMailboxes; mb++ {
				if !bytes.Equal(seq[mb], par[mb]) {
					t.Fatalf("service %v workers=%d: mailbox %d differs from sequential build", service, workers, mb)
				}
			}
		}
	}
}

// nonThreadSafeReader is a deterministic PRNG with no internal locking; the
// race detector fails the test if the server reads it from two goroutines
// without the lockedReader wrapper.
type nonThreadSafeReader struct {
	rng *mathrand.Rand
}

func (r *nonThreadSafeReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

// TestCustomRandSourceIsSerialized exercises parallel decryption, shuffle,
// and concurrent noise generation against a non-thread-safe rand source to
// verify the Config.Rand locking contract.
func TestCustomRandSourceIsSerialized(t *testing.T) {
	nz := noise.Laplace{Mu: 3, B: 1}
	s, err := New(Config{
		Name: "m", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
		Rand:        &nonThreadSafeReader{rng: mathrand.New(mathrand.NewSource(42))},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rk, err := s.NewRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetDownstreamKeys(wire.Dialing, 1, nil); err != nil {
		t.Fatal(err)
	}
	pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]byte
	for i := 0; i < 200; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = byte(i)
		batch = append(batch, makeDialOnion(t, []*onionbox.PublicKey{pk}, 0, tok))
	}
	// Noise generation runs in the background while Mix decrypts: both
	// read the shared rand source.
	if err := s.PrepareNoise(wire.Dialing, 1, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mix(wire.Dialing, 1, 8, batch); err != nil {
		t.Fatal(err)
	}
}
