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
// check across worker counts: one batch, fed through Round.Chunk in uneven
// chunks with one onion in 17 malformed, leaves Round.EndShard as the same
// messages in the same order at GOMAXPROCS 1, 2, 3 and 8 — the payloads
// of the well-formed onions, in batch order. The servers draw from one
// seed, so they hold the same round key.
func TestParallelDecryptMatchesSequential(t *testing.T) {
	const n, seed = 500, 17
	newRound := func(t *testing.T) (*Round, []*onionbox.PublicKey) {
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 1,
			AddFriendNoise: &noNoise, DialingNoise: &noNoise,
			Rand: &seededReader{rng: mathrand.New(mathrand.NewSource(seed))},
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds, hops := openRound(t, []*Server{s}, wire.Dialing, 1, 1)
		return rounds[0], hops
	}
	_, hops := newRound(t)
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
		r, _ := newRound(t)
		for lo := 0; lo < n; {
			hi := min(lo+1+lo%97, n)
			if err := r.Chunk(0, batch[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		got, err := r.EndShard()
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
		rounds, hops := openRound(t, []*Server{s}, wire.Dialing, 1, 1)

		const n = 300
		var batch, want [][]byte
		for i := 0; i < n; i++ {
			tok := make([]byte, keywheel.TokenSize)
			tok[0], tok[1] = byte(i), byte(i>>8)
			batch = append(batch, makeDialOnion(t, hops, 0, tok))
			want = append(want, (&wire.MixPayload{Mailbox: 0, Body: tok}).Marshal())
		}
		out, err := rounds[0].Mix(batch)
		if err != nil {
			t.Fatal(err)
		}
		sameMultiset(t, want, out)
	})
}

// streamEnd ends a group-of-one's intake the way the data plane does: the
// peeled slice, then the position's merge over that one slice.
func streamEnd(r *Round) ([][]byte, error) {
	part, err := r.EndShard()
	if err != nil {
		return nil, err
	}
	return r.Merge([][][]byte{part})
}

// TestStreamMatchesMix feeds a batch in uneven chunks through the
// streaming intake and checks that the merge of that one slice is, byte
// for byte and in order, what Mix produces for the concatenated batch —
// the property that lets the routed plane be tested against Chain.
func TestStreamMatchesMix(t *testing.T) {
	rounds, hops := openRound(t, newChain(t, 1, noNoise), wire.Dialing, 1, 1)
	r := rounds[0]

	const n = 257 // deliberately not a multiple of any chunk size
	var batch [][]byte
	for i := 0; i < n; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1] = byte(i), byte(i>>8)
		batch = append(batch, makeDialOnion(t, hops, 0, tok))
	}

	mixed, err := r.Mix(batch)
	if err != nil {
		t.Fatal(err)
	}

	for lo := 0; lo < n; {
		hi := lo + 1 + lo%97
		if hi > n {
			hi = n
		}
		if err := r.Chunk(0, batch[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	streamed, err := streamEnd(r)
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

// TestStreamOrdersBySlot feeds a batch from two writers at once: slot 0
// holds the first half and slot 1 the second, three chunks each, and the
// chunks arrive interleaved, slot 1's first. The merge must still be, byte
// for byte, what Mix produces for the concatenated batch: the slots, not
// the arrival order, set the pre-shuffle order.
func TestStreamOrdersBySlot(t *testing.T) {
	rounds, hops := openRound(t, newChain(t, 1, noNoise), wire.Dialing, 1, 1)
	r := rounds[0]

	const n, chunk = 96, 16
	var batch [][]byte
	for i := 0; i < n; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = byte(i)
		batch = append(batch, makeDialOnion(t, hops, 0, tok))
	}
	mixed, err := r.Mix(batch)
	if err != nil {
		t.Fatal(err)
	}

	for lo := 0; lo < n/2; lo += chunk {
		for _, slot := range []int{1, 0} {
			from := slot*n/2 + lo
			if err := r.Chunk(slot, batch[from:from+chunk]); err != nil {
				t.Fatal(err)
			}
		}
	}
	streamed, err := streamEnd(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(mixed) {
		t.Fatalf("streamed %d messages, Mix produced %d", len(streamed), len(mixed))
	}
	for i := range mixed {
		if !bytes.Equal(mixed[i], streamed[i]) {
			t.Fatalf("message %d differs between the two-writer merge and Mix of the concatenated batch", i)
		}
	}
}

// TestStreamLifecycleErrors: a Round's intake ends once. A chunk after
// the end and a second end are refused; an abort ends the intake too, so
// the end after it is refused, but the round and its key stay until
// Close, after which Merge is refused and a second Close does nothing.
// (A stream before the open, a second stream, a layout or keys set after
// the noise began: a Round has no way to express them.)
func TestStreamLifecycleErrors(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	rounds, _ := openRound(t, servers, wire.Dialing, 1, 1)
	r := rounds[0]
	if _, err := streamEnd(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Chunk(0, nil); err == nil {
		t.Fatal("Chunk after EndShard succeeded")
	}
	if _, err := r.EndShard(); err == nil {
		t.Fatal("second EndShard succeeded")
	}

	rounds, _ = openRound(t, servers, wire.Dialing, 2, 1)
	r = rounds[0]
	r.Abort()
	if err := r.Chunk(0, nil); err == nil {
		t.Fatal("Chunk after Abort succeeded")
	}
	if _, err := r.EndShard(); err == nil {
		t.Fatal("EndShard succeeded after Abort")
	}
	if _, err := r.Merge(nil); err != nil {
		t.Fatalf("abort closed the round: %v", err)
	}
	r.Close()
	if _, err := r.Merge(nil); err == nil {
		t.Fatal("Merge after Close succeeded")
	}
	r.Close()
}

// TestAbortThenCloseErasesKey: a chunk is still peeling when the stream
// is aborted and the round closed at once, as a daemon does when a round
// fails mid-intake. Close must wait for the chunk before it zeroes
// the key the chunk opens with; under -race an erase that overlapped a
// peel is a reported race. Chunks that had not started skip their peel.
func TestAbortThenCloseErasesKey(t *testing.T) {
	rounds, hops := openRound(t, newChain(t, 1, noNoise), wire.Dialing, 1, 1)
	r := rounds[0]
	priv := r.priv
	chunk := make([][]byte, 16)
	for i := range chunk {
		chunk[i] = makeDialOnion(t, hops, 0, bytes.Repeat([]byte{byte(i)}, keywheel.TokenSize))
	}
	// A chunk holds a worker slot from just before its peel to after it:
	// feed chunks until one is seen holding one, so that the close lands
	// mid-peel. A peel can end before this goroutine looks, so each chunk
	// gets a bounded wait and then the next one follows.
	for fed := 0; len(r.sem) == 0; fed++ {
		if fed == 1000 {
			t.Fatal("no chunk was seen peeling in 1000 chunks")
		}
		if err := r.Chunk(0, chunk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100 && len(r.sem) == 0; i++ {
			runtime.Gosched()
		}
	}
	r.Abort()
	r.Close()
	if kb := priv.Bytes(); !bytes.Equal(kb, make([]byte, len(kb))) {
		t.Fatalf("round key reads %x after abort and close", kb)
	}
	if err := r.Chunk(0, chunk); err == nil {
		t.Fatal("Chunk after Close succeeded")
	}
}

// TestBuildMailboxesParallelMatchesSequential checks that sharded mailbox
// construction at GOMAXPROCS 2 and 4 is byte-identical to the sequential
// path at GOMAXPROCS 1, for both services.
func TestBuildMailboxesParallelMatchesSequential(t *testing.T) {
	const numMailboxes = 7
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
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

		var seq map[uint32][]byte
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			par, err := BuildMailboxesRange(service, 0, numMailboxes, batch)
			if err != nil {
				t.Fatal(err)
			}
			if seq == nil {
				seq = par
				continue
			}
			if len(par) != len(seq) {
				t.Fatalf("service %v GOMAXPROCS=%d: %d mailboxes, want %d", service, procs, len(par), len(seq))
			}
			for mb := uint32(0); mb < numMailboxes; mb++ {
				if !bytes.Equal(seq[mb], par[mb]) {
					t.Fatalf("service %v GOMAXPROCS=%d: mailbox %d differs from sequential build", service, procs, mb)
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
// locking of its own, rounds of both services are announced and opened on
// eight goroutines while a round's chunks peel and its noise is made.
// Under -race, any read outside the mutex is a reported race.
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
	rounds, hops := openRound(t, []*Server{s}, wire.Dialing, 1, 8)
	var batch [][]byte
	for i := 0; i < 200; i++ {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = byte(i)
		batch = append(batch, makeDialOnion(t, hops, 0, tok))
	}
	var wg sync.WaitGroup
	for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
		for round := uint32(2); round < 6; round++ {
			wg.Add(1)
			go func(service wire.Service, round uint32) {
				defer wg.Done()
				key, _, err := s.Announce(service, round)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Open(RoundSpec{Service: service, Round: round, ShardCount: 1, NumMailboxes: 8, Key: key}); err != nil {
					t.Error(err)
				}
			}(service, round)
		}
	}
	for lo := 0; lo < len(batch); lo += 32 {
		if err := rounds[0].Chunk(0, batch[lo:min(lo+32, len(batch))]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	out, err := rounds[0].EndShard()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < len(batch) {
		t.Fatalf("%d messages out of a batch of %d", len(out), len(batch))
	}
}
