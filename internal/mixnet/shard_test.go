package mixnet

import (
	"bytes"
	"crypto/rand"
	mathrand "math/rand"
	"testing"

	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

type seededReader struct{ rng *mathrand.Rand }

func (r *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

func newShardTestServer(t *testing.T, mu float64, seed int64) *Server {
	t.Helper()
	nz := noise.Laplace{Mu: mu, B: 0}
	cfg := Config{
		Name: "m", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
	}
	if seed != 0 {
		cfg.Rand = &seededReader{rng: mathrand.New(mathrand.NewSource(seed))}
		cfg.Parallelism = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardNoiseDivision pins the noise-division invariant: shard s of N
// draws per-mailbox noise with mean ceil(µ/N) — and the position's full
// scale b — so the group's union can only meet or exceed the unsharded
// mean while every shard's draw keeps the §6 noise scale.
func TestShardNoiseDivision(t *testing.T) {
	const (
		mu           = 4
		shards       = 3
		numMailboxes = 5
	)
	s := newShardTestServer(t, mu, 0)
	if _, err := s.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoundShard(wire.Dialing, 1, 2, shards); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamBegin(wire.Dialing, 1, numMailboxes); err != nil {
		t.Fatal(err)
	}
	out, err := s.StreamEndShard(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No real messages were streamed, so the output is this shard's
	// noise share: ceil(4/3) = 2 per mailbox.
	want := numMailboxes * 2
	if len(out) != want {
		t.Fatalf("shard noise share: got %d messages, want %d", len(out), want)
	}

	// An unsharded round on the same distribution emits the full draw.
	s2 := newShardTestServer(t, mu, 0)
	if _, err := s2.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.StreamBegin(wire.Dialing, 1, numMailboxes); err != nil {
		t.Fatal(err)
	}
	full, err := s2.StreamEndShard(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != numMailboxes*mu {
		t.Fatalf("unsharded noise: got %d, want %d", len(full), numMailboxes*mu)
	}
	// Union over the group (3 shards x 2 per mailbox) >= the unsharded
	// distribution (4 per mailbox).
	if shards*2 < mu {
		t.Fatalf("noise union under-provisions: %d < %d", shards*2, mu)
	}
}

// TestSetRoundShardOrdering: the layout must land before noise exists and
// must agree with a pinned identity.
func TestSetRoundShardOrdering(t *testing.T) {
	s := newShardTestServer(t, 2, 0)
	if _, err := s.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareNoise(wire.Dialing, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoundShard(wire.Dialing, 1, 0, 2); err == nil {
		t.Fatal("shard layout accepted after noise generation")
	}

	nz := noise.Laplace{Mu: 2, B: 0}
	pinned, err := New(Config{
		Name: "p", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
		ShardIndex: 1, ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pinned.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if err := pinned.SetRoundShard(wire.Dialing, 1, 0, 2); err == nil {
		t.Fatal("conflicting layout accepted by a pinned daemon")
	}
	if err := pinned.SetRoundShard(wire.Dialing, 1, 1, 2); err != nil {
		t.Fatalf("matching layout rejected: %v", err)
	}
}

// TestExportImportRoundKey: a shard that imports the lead's round key can
// peel onions wrapped for the position's announced key — and the key
// exchange is refused entirely outside a pinned shard group (an open
// export surface would collapse anytrust).
func TestExportImportRoundKey(t *testing.T) {
	newPinned := func(index, count int) *Server {
		nz := noise.Laplace{Mu: 0, B: 0}
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 1,
			AddFriendNoise: &nz, DialingNoise: &nz,
			ShardIndex: index, ShardCount: count,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lead := newPinned(0, 2)
	follower := newPinned(1, 2)

	unsharded := newShardTestServer(t, 0, 0)
	if _, err := unsharded.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := unsharded.ExportRoundKey(wire.Dialing, 1); err == nil {
		t.Fatal("unsharded daemon served its round private key")
	}
	if err := unsharded.ImportRoundKey(wire.Dialing, 1, make([]byte, 32)); err == nil {
		t.Fatal("unsharded daemon accepted a round key import")
	}

	rk, err := lead.NewRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	key, err := lead.ExportRoundKey(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each import zeroes the bytes it is handed, so each gets its own copy.
	if err := follower.ImportRoundKey(wire.Dialing, 1, bytes.Clone(key)); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-import is fine; a different key is not.
	if err := follower.ImportRoundKey(wire.Dialing, 1, bytes.Clone(key)); err != nil {
		t.Fatalf("re-import: %v", err)
	}

	pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{0xAB}, 32)
	payload := (&wire.MixPayload{Mailbox: 0, Body: body}).Marshal()
	onion, err := onionbox.WrapOnion(rand.Reader, []*onionbox.PublicKey{pk}, payload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := follower.Mix(wire.Dialing, 1, 1, [][]byte{onion})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !bytes.Equal(out[0], payload) {
		t.Fatal("follower failed to peel an onion wrapped for the lead's key")
	}
}

// TestImportRoundKeyErasesInput: the bytes handed to ImportRoundKey read
// all zero on return — over rpc they are the frame buffer the shared round
// key arrived in — whether the import installed the key, found it already
// installed, or was refused.
func TestImportRoundKeyErasesInput(t *testing.T) {
	nz := noise.Laplace{}
	lead, err := New(Config{Name: "lead", Position: 0, ChainLength: 1, AddFriendNoise: &nz, DialingNoise: &nz, ShardIndex: 0, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := New(Config{Name: "follower", Position: 0, ChainLength: 1, AddFriendNoise: &nz, DialingNoise: &nz, ShardIndex: 1, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lead.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	key, err := lead.ExportRoundKey(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, len(key))
	for _, c := range []struct {
		name string
		into *Server
	}{
		{"first import", follower},
		{"re-import", follower},
		{"refused import", newShardTestServer(t, 0, 0)},
	} {
		handed := bytes.Clone(key)
		err := c.into.ImportRoundKey(wire.Dialing, 1, handed)
		if !bytes.Equal(handed, zero) {
			t.Errorf("%s (err %v): the key bytes survive the call", c.name, err)
		}
	}
}

// TestMergeShuffleIsSeededPermutation: MergeShuffle produces a
// permutation of the concatenated parts, identical under identical
// seeds.
func TestMergeShuffleIsSeededPermutation(t *testing.T) {
	parts := [][][]byte{
		{[]byte("a0"), []byte("a1")},
		{[]byte("b0")},
		{[]byte("c0"), []byte("c1"), []byte("c2")},
	}
	run := func(seed int64) [][]byte {
		s := newShardTestServer(t, 0, seed)
		if _, err := s.NewRound(wire.Dialing, 1); err != nil {
			t.Fatal(err)
		}
		out, err := s.MergeShuffle(wire.Dialing, 1, parts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(77), run(77)
	if len(a) != 6 {
		t.Fatalf("merge lost messages: %d != 6", len(a))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("identical seeds produced different merge shuffles")
		}
	}
	seen := map[string]int{}
	for _, m := range a {
		seen[string(m)]++
	}
	for _, part := range parts {
		for _, m := range part {
			if seen[string(m)] != 1 {
				t.Fatalf("message %q appears %d times after merge", m, seen[string(m)])
			}
		}
	}

	// A closed round refuses to merge.
	s := newShardTestServer(t, 0, 0)
	if _, err := s.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	s.CloseRound(wire.Dialing, 1)
	if _, err := s.MergeShuffle(wire.Dialing, 1, parts); err == nil {
		t.Fatal("merge shuffle ran on a closed round")
	}
}
