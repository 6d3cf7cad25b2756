package core_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/core"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// badSharePKG is a PKG whose attestation share for one round is a valid
// signature by the wrong key — what a faulty or malicious PKG would return.
type badSharePKG struct {
	core.PKG
	badRound uint32
	rogue    *bls.PrivateKey
}

func (p badSharePKG) Extract(ctx context.Context, email string, round uint32, sig []byte) (*pkgserver.ExtractReply, error) {
	reply, err := p.PKG.Extract(ctx, email, round, sig)
	if err == nil && round == p.badRound {
		reply.Attestation = bls.Sign(p.rogue, []byte("not the attestation"))
	}
	return reply, err
}

// TestBadAttestationShareNamesPKG pins the attribute half of
// aggregate-then-attribute: when the aggregated attestation fails, the
// share-by-share fallback names the PKG at fault by index, the round's keys
// are not kept (so nothing of the poisoned round can be sent or scanned),
// and the next round — with honest shares — goes through.
func TestBadAttestationShareNamesPKG(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	_, rogue, err := bls.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h := &sim.Handler{AcceptAll: true}
	cfg := net.ClientConfig("victim@example.org", h)
	const faulty = 1
	cfg.PKGs[faulty] = badSharePKG{PKG: cfg.PKGs[faulty], badRound: 1, rogue: rogue}
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := net.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}
	var verifications atomic.Int32
	client.CountBLSVerifications(&verifications)

	if _, err := net.Coord.OpenAddFriendRound(1); err != nil {
		t.Fatal(err)
	}
	err = client.SubmitAddFriendRound(ctx, 1)
	if err == nil || !strings.Contains(err.Error(), "PKG 1 returned invalid attestation") {
		t.Fatalf("submit with a bad share from PKG %d: %v", faulty, err)
	}
	// The aggregate, then shares 0 (good) and 1 (bad); share 2 is never reached.
	if got := verifications.Load(); got != 3 {
		t.Fatalf("%d verifications on the failing round, want 3", got)
	}
	if _, err := net.Coord.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.ScanAddFriendRound(ctx, 1); err == nil || !strings.Contains(err.Error(), "no identity key") {
		t.Fatalf("scan of the poisoned round: %v, want no identity key", err)
	}
	net.Coord.FinishAddFriendRound(1)

	if err := net.RunAddFriendRound(2, []*core.Client{client}); err != nil {
		t.Fatalf("round after the bad share: %v", err)
	}
	if h.ErrorCount() != 0 {
		t.Fatalf("handler errors: %v", h.Errors)
	}
}

// TestExtractVerifiesAggregateOnce pins the happy path's cost: a round's
// PKG attestations are checked with ONE verification (the aggregate), and
// each incoming friend request with one more — never one per PKG.
func TestExtractVerifiesAggregateOnce(t *testing.T) {
	net, alice, _, bob, hb := newPair(t)
	var aliceN, bobN atomic.Int32
	alice.CountBLSVerifications(&aliceN)
	bob.CountBLSVerifications(&bobN)
	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	if err := net.RunAddFriendRound(1, []*core.Client{alice, bob}); err != nil {
		t.Fatal(err)
	}
	if len(hb.NewFriends) != 1 {
		t.Fatalf("bob's NewFriend events: %v", hb.NewFriends)
	}
	if got := aliceN.Load(); got != 1 {
		t.Fatalf("alice ran %d verifications for her round keys, want 1", got)
	}
	if got := bobN.Load(); got != 2 {
		t.Fatalf("bob ran %d verifications (round keys + alice's request), want 2", got)
	}
	for i, pkg := range net.PKGs {
		if got := pkg.Extractions(); got != 2 {
			t.Fatalf("PKG %d served %d extractions for two clients, want 2", i, got)
		}
	}
}

// recordingPKG keeps every identity-key share it hands the client, and can
// fail its extraction or forge its attestation for one round.
type recordingPKG struct {
	core.PKG
	failRound, badRound uint32
	rogue               *bls.PrivateKey

	mu     sync.Mutex
	shares []*ibe.IdentityPrivateKey
}

func (p *recordingPKG) Extract(ctx context.Context, email string, round uint32, sig []byte) (*pkgserver.ExtractReply, error) {
	if round == p.failRound {
		return nil, errors.New("extraction refused")
	}
	reply, err := p.PKG.Extract(ctx, email, round, sig)
	if err != nil {
		return nil, err
	}
	if round == p.badRound {
		reply.Attestation = bls.Sign(p.rogue, []byte("not the attestation"))
	}
	p.mu.Lock()
	p.shares = append(p.shares, reply.IdentityKey)
	p.mu.Unlock()
	return reply, nil
}

// TestExtractErasesShares pins that extractRoundKeys erases every fetched
// identity-key share on every path — after aggregating them (round 1), when
// another PKG fails (round 2), and when an attestation is bad (round 3) —
// so each share marshals as the point at infinity afterwards.
func TestExtractErasesShares(t *testing.T) {
	net, err := sim.NewNetwork(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	_, rogue, err := bls.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cfg := net.ClientConfig("eraser@example.org", &sim.Handler{AcceptAll: true})
	recs := make([]*recordingPKG, len(cfg.PKGs))
	for i := range cfg.PKGs {
		recs[i] = &recordingPKG{PKG: cfg.PKGs[i]}
		cfg.PKGs[i] = recs[i]
	}
	recs[len(recs)-1].failRound = 2
	recs[0].badRound = 3
	recs[0].rogue = rogue
	client, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := net.ConfirmAll(client); err != nil {
		t.Fatal(err)
	}

	infinity := make([]byte, ibe.IdentityPrivateKeySize)
	for round := uint32(1); round <= 3; round++ {
		if _, err := net.Coord.OpenAddFriendRound(round); err != nil {
			t.Fatal(err)
		}
		err := client.SubmitAddFriendRound(ctx, round)
		if (err == nil) != (round == 1) {
			t.Fatalf("round %d submit: %v", round, err)
		}
		n := 0
		for i, rec := range recs {
			rec.mu.Lock()
			for _, share := range rec.shares {
				n++
				if !bytes.Equal(share.Marshal(), infinity) {
					t.Fatalf("round %d: a share from PKG %d survived extraction", round, i)
				}
			}
			rec.shares = nil
			rec.mu.Unlock()
		}
		want := len(recs)
		if round == 2 {
			want-- // the failing PKG hands out nothing
		}
		if n != want {
			t.Fatalf("round %d: recorded %d shares, want %d", round, n, want)
		}
		if _, err := net.Coord.CloseRound(wire.AddFriend, round); err != nil {
			t.Fatal(err)
		}
		net.Coord.FinishAddFriendRound(round)
	}
}
