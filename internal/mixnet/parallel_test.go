package mixnet

import (
	"bytes"
	"crypto/rand"
	"fmt"
	mathrand "math/rand"
	"runtime"
	"sort"
	"sync"
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

// atGOMAXPROCS runs fn as the subtest "workers=p" at GOMAXPROCS p, the
// server's worker count, for each p in procs, and restores GOMAXPROCS
// afterwards. GOMAXPROCS is process-wide, so no caller may run in
// parallel with other tests (t.Parallel).
func atGOMAXPROCS(t *testing.T, procs []int, fn func(t *testing.T)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("workers=%d", p), fn)
	}
}

// TestParallelDecryptMatchesSequential is the data plane's determinism
// check across worker counts: one batch, fed through StreamChunk in uneven
// chunks with one onion in 17 malformed, leaves StreamEndShard as the same
// messages in the same order at GOMAXPROCS 1, 2, 3 and 8 — the payloads
// of the well-formed onions, in batch order. The servers draw from one
// seed, so they hold the same round key.
func TestParallelDecryptMatchesSequential(t *testing.T) {
	const n, seed = 500, 17
	newServer := func(t *testing.T) (*Server, []*onionbox.PublicKey) {
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 1,
			AddFriendNoise: &noNoise, DialingNoise: &noNoise,
			Rand: &seededReader{rng: mathrand.New(mathrand.NewSource(seed))},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, openRound(t, []*Server{s}, wire.Dialing, 1)
	}
	_, hops := newServer(t)
	var batch, want [][]byte
	for i := 0; i < n; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1] = byte(i), byte(i>>8)
		onion := makeDialOnion(t, hops, uint32(i%3), tok)
		if i%17 == 0 {
			onion = make([]byte, len(onion)) // malformed: must be dropped
		} else {
			want = append(want, (&wire.MixPayload{Mailbox: uint32(i % 3), Body: tok}).Marshal())
		}
		batch = append(batch, onion)
	}

	atGOMAXPROCS(t, []int{1, 2, 3, 8}, func(t *testing.T) {
		s, _ := newServer(t)
		if err := s.StreamBegin(wire.Dialing, 1, 1); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; {
			hi := min(lo+1+lo%97, n)
			if err := s.StreamChunk(wire.Dialing, 1, batch[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		got, err := s.StreamEndShard(wire.Dialing, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d messages out, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("message %d differs from the sequential order", i)
			}
		}
	})
}

// TestMixParallelMatchesSequentialMultiset runs the same batch through the
// full Mix (decrypt + noise + shuffle) at GOMAXPROCS 1, 2, 3 and 8 and
// checks the opened-message multisets agree.
func TestMixParallelMatchesSequentialMultiset(t *testing.T) {
	atGOMAXPROCS(t, []int{1, 2, 3, 8}, func(t *testing.T) {
		nz := noise.Laplace{Mu: 0, B: 0}
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 1,
			AddFriendNoise: &nz, DialingNoise: &nz,
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
	})
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

// TestAbortThenCloseErasesKey: a chunk is still peeling when the stream
// is aborted and the round closed at once, as a daemon does when a round
// fails mid-intake. CloseRound must wait for the chunk before it zeroes
// the key the chunk opens with; under -race an erase that overlapped a
// peel is a reported race. Chunks that had not started skip their peel.
func TestAbortThenCloseErasesKey(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	hops := openRound(t, servers, wire.Dialing, 1)
	s := servers[0]
	priv := s.rounds[roundKey{wire.Dialing, 1}].priv
	chunk := make([][]byte, 16)
	for i := range chunk {
		chunk[i] = makeDialOnion(t, hops, 0, bytes.Repeat([]byte{byte(i)}, keywheel.TokenSize))
	}
	if err := s.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sm := s.rounds[roundKey{wire.Dialing, 1}].stream
	s.mu.Unlock()
	// A chunk holds a worker slot from just before its peel to after it:
	// feed chunks until one is seen holding one, so that the close lands
	// mid-peel. A peel can end before this goroutine looks, so each chunk
	// gets a bounded wait and then the next one follows.
	for fed := 0; len(sm.sem) == 0; fed++ {
		if fed == 1000 {
			t.Fatal("no chunk was seen peeling in 1000 chunks")
		}
		if err := s.StreamChunk(wire.Dialing, 1, chunk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100 && len(sm.sem) == 0; i++ {
			runtime.Gosched()
		}
	}
	if err := s.StreamAbort(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	s.CloseRound(wire.Dialing, 1)
	if kb := priv.Bytes(); !bytes.Equal(kb, make([]byte, len(kb))) {
		t.Fatalf("round key reads %x after abort and close", kb)
	}
	if err := s.StreamChunk(wire.Dialing, 1, chunk); err == nil {
		t.Fatal("StreamChunk after CloseRound succeeded")
	}
}

// TestPrepareNoiseIsUsed checks that background-prepared noise is consumed
// by the next Mix (right count, no double generation) and that a mailbox
// count mismatch replaces the prepared batch.
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
// at once.
type nonThreadSafeReader struct {
	rng *mathrand.Rand
}

func (r *nonThreadSafeReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

// TestConfigRandReadUnderLock pins Config.Rand's contract, that the server
// reads it only in New and under its mutex: against a reader with no
// locking of its own, rounds of both services open and prepare their
// noise on eight goroutines while a stream's chunks peel and its noise is
// made. Under -race, any read outside the mutex is a reported race.
func TestConfigRandReadUnderLock(t *testing.T) {
	nz := noise.Laplace{Mu: 3, B: 1}
	s, err := New(Config{
		Name: "m", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
		Rand: &nonThreadSafeReader{rng: mathrand.New(mathrand.NewSource(42))},
	})
	if err != nil {
		t.Fatal(err)
	}
	hops := openRound(t, []*Server{s}, wire.Dialing, 1)
	var batch [][]byte
	for i := 0; i < 200; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = byte(i)
		batch = append(batch, makeDialOnion(t, hops, 0, tok))
	}
	if err := s.StreamBegin(wire.Dialing, 1, 8); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		for round := uint32(2); round < 6; round++ {
			wg.Add(1)
			go func(service wire.Service, round uint32) {
				defer wg.Done()
				if _, err := s.NewRound(service, round); err != nil {
					t.Error(err)
					return
				}
				if err := s.SetDownstreamKeys(service, round, nil); err != nil {
					t.Error(err)
					return
				}
				if err := s.PrepareNoise(service, round, 8); err != nil {
					t.Error(err)
				}
			}(service, round)
		}
	}
	for lo := 0; lo < len(batch); lo += 32 {
		if err := s.StreamChunk(wire.Dialing, 1, batch[lo:min(lo+32, len(batch))]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	out, err := s.StreamEndShard(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < len(batch) {
		t.Fatalf("%d messages out of a batch of %d", len(out), len(batch))
	}
}
