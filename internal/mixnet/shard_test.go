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
	r := openOne(t, newShardTestServer(t, mu, 0), RoundSpec{ShardIndex: 2, ShardCount: shards, NumMailboxes: numMailboxes})
	out, err := r.EndShard()
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
	full, err := openOne(t, newShardTestServer(t, mu, 0), RoundSpec{NumMailboxes: numMailboxes}).EndShard()
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

// newPinned makes a one-position server pinned as shard index of count,
// with no noise.
func newPinned(t *testing.T, index, count int) *Server {
	t.Helper()
	nz := noise.Laplace{}
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

// TestOpenChecksSpec: Open refuses a round it cannot run before it takes
// anything — a layout outside the group or none, one that conflicts with
// the daemon's pinned identity, the wrong number of downstream keys or one
// that does not parse, no key at all, or an imported key on a daemon
// outside a pinned group — and draws nothing from Config.Rand for it: the
// same server then opens a good spec on the noise seed that a server which
// refused nothing draws.
func TestOpenChecksSpec(t *testing.T) {
	// A server at position pos of two, pinned as shard index of count
	// (count 0: unpinned), on a fixed seed.
	type place struct{ pos, index, count int }
	newServer := func(p place) *Server {
		s, err := New(Config{
			Name: "m", Position: p.pos, ChainLength: 2,
			AddFriendNoise: &noNoise, DialingNoise: &noNoise,
			ShardIndex: p.index, ShardCount: p.count,
			Rand: &seededReader{rng: mathrand.New(mathrand.NewSource(5))},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pub, _, err := onionbox.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	down := [][]byte{pub.Bytes()}
	// open announces a key on s and opens the round on spec (nil: a good
	// layout and downstream keys for p), with the key if key is set.
	open := func(s *Server, p place, spec *RoundSpec, key bool) (*Round, error) {
		priv, _, err := s.Announce(wire.Dialing, 1)
		if err != nil {
			t.Fatal(err)
		}
		if spec == nil {
			spec = &RoundSpec{ShardIndex: p.index, ShardCount: max(p.count, 1), Downstream: down[:1-p.pos]}
		}
		sp := *spec
		sp.Service, sp.Round, sp.NumMailboxes = wire.Dialing, 1, 2
		if key {
			sp.Key = priv
		}
		return s.Open(sp)
	}
	for _, c := range []struct {
		name string
		at   place
		spec *RoundSpec
		key  bool
	}{
		{"layout outside the group", place{0, 0, 0}, &RoundSpec{ShardIndex: 2, ShardCount: 2, Downstream: down}, true},
		{"no layout", place{0, 0, 0}, &RoundSpec{Downstream: down}, true},
		{"conflicts with the pinned identity", place{0, 1, 2}, &RoundSpec{ShardIndex: 0, ShardCount: 2, Downstream: down}, true},
		{"missing downstream key", place{0, 0, 0}, &RoundSpec{ShardCount: 1}, true},
		{"extra downstream key", place{1, 0, 0}, &RoundSpec{ShardCount: 1, Downstream: down}, true},
		{"malformed downstream key", place{0, 0, 0}, &RoundSpec{ShardCount: 1, Downstream: [][]byte{{1, 2}}}, true},
		{"no key", place{0, 0, 0}, &RoundSpec{ShardCount: 1, Downstream: down}, false},
		{"import outside a pinned group", place{0, 0, 0}, &RoundSpec{ShardCount: 1, Downstream: down, Import: make([]byte, 32)}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newServer(c.at)
			if _, err := open(s, c.at, c.spec, c.key); err == nil {
				t.Fatal("Open accepted the spec")
			}
			r, err := open(s, c.at, nil, true)
			if err != nil {
				t.Fatalf("good spec refused: %v", err)
			}
			// A server that announced as often and refused nothing.
			fresh := newServer(c.at)
			if _, _, err := fresh.Announce(wire.Dialing, 1); err != nil {
				t.Fatal(err)
			}
			want, err := open(fresh, c.at, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if r.noiseSeed != want.noiseSeed {
				t.Fatal("the refused Open drew from Config.Rand")
			}
		})
	}
}

// TestExportImportRoundKey: a shard that opens its round on the lead's
// exported round key can peel onions wrapped for the position's announced
// key — and the key exchange is refused entirely outside a pinned shard
// group (an open export surface would collapse anytrust).
func TestExportImportRoundKey(t *testing.T) {
	lead := newPinned(t, 0, 2)
	follower := newPinned(t, 1, 2)

	unsharded := newShardTestServer(t, 0, 0)
	key, _, err := unsharded.Announce(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unsharded.ExportKey(key); err == nil {
		t.Fatal("unsharded daemon served its round private key")
	}
	if _, err := unsharded.Open(RoundSpec{Service: wire.Dialing, Round: 1, ShardCount: 1, Import: key.Bytes()}); err == nil {
		t.Fatal("unsharded daemon accepted a round key import")
	}

	key, rk, err := lead.Announce(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	exported, err := lead.ExportKey(key)
	if err != nil {
		t.Fatal(err)
	}
	r := openOne(t, follower, RoundSpec{ShardIndex: 1, ShardCount: 2, NumMailboxes: 1, Import: exported})

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
	out, err := r.Mix([][]byte{onion})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !bytes.Equal(out[0], payload) {
		t.Fatal("follower failed to peel an onion wrapped for the lead's key")
	}
}

// TestImportRoundKeyErasesInput: the key bytes an Open imports
// (RoundSpec.Import) read all zero on return — over rpc they are the frame
// buffer the shared round key arrived in — whether the Open took the key,
// refused the import, or refused the round after the key had arrived.
func TestImportRoundKeyErasesInput(t *testing.T) {
	lead, follower := newPinned(t, 0, 2), newPinned(t, 1, 2)
	priv, _, err := lead.Announce(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	key, err := lead.ExportKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, len(key))
	for _, c := range []struct {
		name  string
		into  *Server
		index int
	}{
		{"import", follower, 1},
		{"refused import", newShardTestServer(t, 0, 0), 0},
		{"round refused after the key arrived", newPinned(t, 1, 2), 0},
	} {
		handed := bytes.Clone(key)
		_, err := c.into.Open(RoundSpec{Service: wire.Dialing, Round: 1, ShardIndex: c.index, ShardCount: 2, Import: handed})
		if (err == nil) != (c.name == "import") {
			t.Errorf("%s: Open returned %v", c.name, err)
		}
		if !bytes.Equal(handed, zero) {
			t.Errorf("%s (err %v): the key bytes survive the call", c.name, err)
		}
	}
}

// TestMergeShuffleIsSeededPermutation: Merge produces a permutation of
// the concatenated parts, identical under identical seeds.
func TestMergeShuffleIsSeededPermutation(t *testing.T) {
	parts := [][][]byte{
		{[]byte("a0"), []byte("a1")},
		{[]byte("b0")},
		{[]byte("c0"), []byte("c1"), []byte("c2")},
	}
	run := func(seed int64) [][]byte {
		out, err := openOne(t, newShardTestServer(t, 0, seed), RoundSpec{}).Merge(parts)
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
	r := openOne(t, newShardTestServer(t, 0, 0), RoundSpec{})
	r.Close()
	if _, err := r.Merge(parts); err == nil {
		t.Fatal("merge shuffle ran on a closed round")
	}
}

// TestShardMembersDrawOwnNoise: two members of one shard group hold the
// same round key, yet each draws its own noise seed, so they send no
// noise onion in common. A seed derived from the shared key would give
// both the same onions for every mailbox.
func TestShardMembersDrawOwnNoise(t *testing.T) {
	nz := noise.Laplace{Mu: 3, B: 0}
	members := make([]*Server, 2)
	for i := range members {
		s, err := New(Config{
			Name: "m", Position: 0, ChainLength: 1,
			AddFriendNoise: &nz, DialingNoise: &nz,
			ShardIndex: i, ShardCount: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = s
	}
	priv, _, err := members[0].Announce(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	key, err := members[0].ExportKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	// Both members make ⌈µ/2⌉ noise messages for each of the same
	// mailboxes, so only the seed tells their noise apart.
	rounds := []*Round{
		openOne(t, members[0], RoundSpec{ShardIndex: 0, ShardCount: 2, NumMailboxes: 4, Key: priv}),
		openOne(t, members[1], RoundSpec{ShardIndex: 1, ShardCount: 2, NumMailboxes: 4, Import: key}),
	}
	seen := make(map[string]int)
	for i, r := range rounds {
		out, err := r.EndShard()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatalf("member %d made no noise", i)
		}
		for _, msg := range out {
			if j, ok := seen[string(msg)]; ok && j != i {
				t.Fatalf("members %d and %d both sent noise message %x", j, i, msg)
			}
			seen[string(msg)] = i
		}
	}
}
