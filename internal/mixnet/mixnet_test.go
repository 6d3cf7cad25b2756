package mixnet

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"sort"
	"testing"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

var noNoise = noise.Laplace{Mu: 0, B: 0}

// newChain builds a chain of n servers with the given noise.
func newChain(t testing.TB, n int, nz noise.Laplace) []*Server {
	t.Helper()
	servers := make([]*Server, n)
	for i := range servers {
		s, err := New(Config{
			Name:           "m",
			Position:       i,
			ChainLength:    n,
			AddFriendNoise: &nz,
			DialingNoise:   &nz,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
	}
	return servers
}

// openRound announces a round on every server of a chain and opens it for
// numMailboxes mailboxes, each server with the keys downstream of it,
// returning the servers' Rounds and the hop keys for onion wrapping.
func openRound(t testing.TB, servers []*Server, service wire.Service, round, numMailboxes uint32) ([]*Round, []*onionbox.PublicKey) {
	t.Helper()
	privs := make([]*onionbox.PrivateKey, len(servers))
	keys := make([][]byte, len(servers))
	hops := make([]*onionbox.PublicKey, len(servers))
	for i, s := range servers {
		priv, rk, err := s.Announce(service, round)
		if err != nil {
			t.Fatal(err)
		}
		privs[i], keys[i] = priv, rk.OnionKey
		if hops[i], err = onionbox.UnmarshalPublicKey(rk.OnionKey); err != nil {
			t.Fatal(err)
		}
	}
	rounds := make([]*Round, len(servers))
	for i, s := range servers {
		r, err := s.Open(RoundSpec{
			Service: service, Round: round, ShardCount: 1,
			Downstream: keys[i+1:], NumMailboxes: numMailboxes, Key: privs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = r
	}
	return rounds, hops
}

// openOne opens round 1 of the dialing service on s as spec lays it out,
// on a key s announces unless spec carries one; a spec with no layout is a
// group of one.
func openOne(t testing.TB, s *Server, spec RoundSpec) *Round {
	t.Helper()
	spec.Service, spec.Round = wire.Dialing, 1
	if spec.ShardCount == 0 {
		spec.ShardCount = 1
	}
	if spec.Key == nil && spec.Import == nil {
		key, _, err := s.Announce(spec.Service, spec.Round)
		if err != nil {
			t.Fatal(err)
		}
		spec.Key = key
	}
	r, err := s.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// makeDialOnion builds a client dial request onion.
func makeDialOnion(t testing.TB, hops []*onionbox.PublicKey, mailbox uint32, token []byte) []byte {
	t.Helper()
	payload := (&wire.MixPayload{Mailbox: mailbox, Body: token}).Marshal()
	onion, err := onionbox.WrapOnion(rand.Reader, hops, payload)
	if err != nil {
		t.Fatal(err)
	}
	return onion
}

func TestChainDeliversToMailboxes(t *testing.T) {
	servers := newChain(t, 3, noNoise)
	rounds, hops := openRound(t, servers, wire.Dialing, 1, 2)

	tok1 := bytes.Repeat([]byte{1}, keywheel.TokenSize)
	tok2 := bytes.Repeat([]byte{2}, keywheel.TokenSize)
	batch := [][]byte{
		makeDialOnion(t, hops, 0, tok1),
		makeDialOnion(t, hops, 1, tok2),
		makeDialOnion(t, hops, wire.CoverMailbox, bytes.Repeat([]byte{9}, keywheel.TokenSize)),
	}
	mailboxes, err := Chain(rounds, 2, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(mailboxes) != 2 {
		t.Fatalf("%d mailboxes, want 2", len(mailboxes))
	}
	f0, err := bloom.Unmarshal(mailboxes[0])
	if err != nil {
		t.Fatal(err)
	}
	f1, err := bloom.Unmarshal(mailboxes[1])
	if err != nil {
		t.Fatal(err)
	}
	if !f0.Test(tok1) || f0.Test(tok2) {
		t.Fatal("mailbox 0 contents wrong")
	}
	if !f1.Test(tok2) || f1.Test(tok1) {
		t.Fatal("mailbox 1 contents wrong")
	}
}

func TestMixDropsMalformedOnions(t *testing.T) {
	servers := newChain(t, 2, noNoise)
	rounds, hops := openRound(t, servers, wire.Dialing, 1, 1)
	good := makeDialOnion(t, hops, 0, bytes.Repeat([]byte{1}, keywheel.TokenSize))
	garbage := make([]byte, len(good))
	batch := [][]byte{good, garbage}
	mailboxes, err := Chain(rounds, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bloom.Unmarshal(mailboxes[0])
	if err != nil {
		t.Fatal(err)
	}
	if f.Entries() != 1 {
		t.Fatalf("mailbox has %d entries, want 1 (garbage dropped)", f.Entries())
	}
}

func TestNoiseIsAddedPerMailbox(t *testing.T) {
	nz := noise.Laplace{Mu: 5, B: 0}
	servers := newChain(t, 3, nz)
	const numMailboxes = 4
	rounds, _ := openRound(t, servers, wire.Dialing, 1, numMailboxes)
	mailboxes, err := Chain(rounds, numMailboxes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each of 3 servers adds 5 noise tokens per mailbox: 15 per mailbox.
	for id, data := range mailboxes {
		f, err := bloom.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if f.Entries() != 15 {
			t.Fatalf("mailbox %d has %d noise entries, want 15", id, f.Entries())
		}
	}
	for _, s := range servers {
		_, noiseSent := s.Stats()
		if noiseSent != 5*numMailboxes {
			t.Fatalf("server noise count %d, want %d", noiseSent, 5*numMailboxes)
		}
	}
}

func TestAddFriendNoiseIndistinguishableShape(t *testing.T) {
	// Add-friend noise must parse as a MixPayload with an IBE-ciphertext
	// sized body, exactly like a real request.
	nz := noise.Laplace{Mu: 3, B: 0}
	servers := newChain(t, 1, nz)
	rounds, _ := openRound(t, servers, wire.AddFriend, 1, 1)
	mailboxes, err := Chain(rounds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mailboxes[0])%wire.EncryptedFriendRequestSize != 0 {
		t.Fatalf("add-friend mailbox size %d not a multiple of request size", len(mailboxes[0]))
	}
	if len(mailboxes[0])/wire.EncryptedFriendRequestSize != 3 {
		t.Fatalf("expected 3 noise requests, got %d", len(mailboxes[0])/wire.EncryptedFriendRequestSize)
	}
}

func TestShufflePermutes(t *testing.T) {
	// The shuffle must preserve the multiset and (statistically) change
	// the order.
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	orig := make([][]byte, len(batch))
	copy(orig, batch)
	if err := shuffle(rand.Reader, batch); err != nil {
		t.Fatal(err)
	}
	same := 0
	var got, want []int
	for i := range batch {
		if bytes.Equal(batch[i], orig[i]) {
			same++
		}
		got = append(got, int(batch[i][0]))
		want = append(want, int(orig[i][0]))
	}
	sort.Ints(got)
	sort.Ints(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("shuffle lost or duplicated elements")
		}
	}
	if same == len(batch) {
		t.Fatal("shuffle left batch in original order (probability ~1/64!)")
	}
}

func TestUnlinkabilityAcrossHonestServer(t *testing.T) {
	// An adversary controlling servers 0 and 2 (but not 1) submits a
	// known batch; after the chain, the mapping from input position to
	// output position must not be recoverable from positions alone.
	// We verify the mechanism: server 1's output order is a fresh random
	// permutation of its input regardless of input order.
	servers := newChain(t, 1, noNoise) // the honest server alone
	rounds, hops := openRound(t, servers, wire.Dialing, 1, 1)

	const n = 32
	batch := make([][]byte, n)
	for i := range batch {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = byte(i)
		batch[i] = makeDialOnion(t, hops, 0, tok)
	}
	out, err := rounds[0].Mix(batch)
	if err != nil {
		t.Fatal(err)
	}
	inOrder := 0
	for i, msg := range out {
		p, err := wire.UnmarshalMixPayload(wire.Dialing, msg)
		if err != nil {
			t.Fatal(err)
		}
		if int(p.Body[0]) == i {
			inOrder++
		}
	}
	if inOrder > n/2 {
		t.Fatalf("%d of %d messages kept their position", inOrder, n)
	}
}

func TestForwardSecrecyRoundKeyErased(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	rounds, hops := openRound(t, servers, wire.Dialing, 1, 1)
	r := rounds[0]
	onion := makeDialOnion(t, hops, 0, bytes.Repeat([]byte{1}, keywheel.TokenSize))

	priv := r.priv
	if _, err := onionbox.Open(priv, onion); err != nil {
		t.Fatalf("the round key does not open its own onion: %v", err)
	}
	r.Close()
	if _, err := r.Merge(nil); err == nil {
		t.Fatal("round open after close")
	}
	// Recorded traffic can no longer be processed, and the scalar itself
	// is gone from the key the round held.
	if _, err := r.Mix([][]byte{onion}); err == nil {
		t.Fatal("mix succeeded after round key erasure")
	}
	if kb := priv.Bytes(); !bytes.Equal(kb, make([]byte, len(kb))) {
		t.Fatalf("round key reads %x after Close", kb)
	}
	if _, err := onionbox.Open(priv, onion); err == nil {
		t.Fatal("the erased key still opens the round's onion")
	}
}

func TestRoundKeyAnnouncementSigned(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	_, rk, err := servers[0].Announce(wire.AddFriend, 9)
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.MixerKeyMessage(wire.AddFriend, 9, rk.OnionKey)
	if !ed25519.Verify(servers[0].SigningKey(), msg, rk.Sig) {
		t.Fatal("round key announcement signature invalid")
	}
}

func TestRawDialMailboxesBaseline(t *testing.T) {
	servers := newChain(t, 1, noNoise)
	rounds, hops := openRound(t, servers, wire.Dialing, 1, 1)
	tok := bytes.Repeat([]byte{7}, keywheel.TokenSize)
	batch := [][]byte{makeDialOnion(t, hops, 0, tok)}
	mixed, err := rounds[0].Mix(batch)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := RawDialMailboxes(1, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw[0], tok) {
		t.Fatal("raw mailbox does not contain the token")
	}
	// The ablation's point: raw token costs 32 bytes vs 6 bytes/element
	// in the Bloom encoding at scale.
	if len(raw[0]) != keywheel.TokenSize {
		t.Fatalf("raw mailbox size %d", len(raw[0]))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Position: 3, ChainLength: 3}); err == nil {
		t.Fatal("position == chain length accepted")
	}
	if _, err := New(Config{Position: -1, ChainLength: 2}); err == nil {
		t.Fatal("negative position accepted")
	}
	if _, err := New(Config{Position: 0, ChainLength: 0}); err == nil {
		t.Fatal("zero-length chain accepted")
	}
}
