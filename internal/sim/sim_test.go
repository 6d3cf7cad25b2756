package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// transports are the two listen addresses a network can be built on.
var transports = []string{"mem:", "127.0.0.1:0"}

func newNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestShardGroupsAndSpares: the leads of a {1,2,1} chain are the
// coordinator's Mixers, the other members its Shards, and Spares gives
// every position one daemon that advertises itself as a spare.
func TestShardGroupsAndSpares(t *testing.T) {
	n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{1, 2, 1}, Spares: true})
	client := func(m *Mixer) coordinator.Mixer { return m.Client }
	for pos, group := range n.Mixers {
		if n.Coord.Mixers[pos] != client(group[0]) {
			t.Errorf("position %d: coordinator lead is not shard 0", pos)
		}
		if len(n.Coord.Shards[pos]) != len(group)-1 {
			t.Fatalf("position %d: %d coordinator shards, want %d", pos, len(n.Coord.Shards[pos]), len(group)-1)
		}
		for s, m := range group[1:] {
			if n.Coord.Shards[pos][s] != client(m) {
				t.Errorf("position %d: coordinator shard %d is not member %d", pos, s, s+1)
			}
		}
		if spares := n.Coord.Spares[pos]; len(spares) != 1 || spares[0] != client(n.Spares[pos]) || !n.Spares[pos].Client.Info().Spare {
			t.Errorf("position %d: spares %v, want the one daemon advertising Spare", pos, spares)
		}
	}
	if len(n.Mixers[1]) != 2 || n.Mixers[1][1].Client.Info().ShardIndex != 1 {
		t.Fatal("position 1 is not a two-member group")
	}
}

// TestCoordinatorStatusOverRPC: the coordinator.status surface, served on
// frontend 0's client listener with alpenhorn-entry's source, reads back
// over rpc after one dialing round on a {1,2,1} chain: the round's health
// record names all four daemons with no error, and the scoreboard lists
// each of them.
func TestCoordinatorStatusOverRPC(t *testing.T) {
	n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{1, 2, 1}})
	type status struct {
		Health     []coordinator.RoundHealth `json:"health"`
		Scoreboard coordinator.Scoreboard    `json:"scoreboard"`
	}
	rpc.RegisterCoordinatorStatus(n.Server(n.FrontendAddrs[0]), func() any {
		return status{n.Coord.Status(), n.Coord.Scoreboard()}
	})
	if err := n.RunDialRound(1, nil); err != nil {
		t.Fatal(err)
	}
	f := rpc.DialFrontend(n.FrontendAddrs[0])
	defer f.Close()
	raw, err := f.CoordinatorStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got status
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, group := range n.Mixers {
		for _, m := range group {
			want = append(want, m.Addr)
		}
	}
	slices.Sort(want)
	if len(got.Health) != 1 || got.Health[0].Service != wire.Dialing || got.Health[0].Round != 1 || got.Health[0].Err != "" {
		t.Fatalf("health %+v, want one clean dialing round 1", got.Health)
	}
	var named, scored []string
	for _, d := range got.Health[0].Daemons {
		if d.Err != "" {
			t.Errorf("daemon %s: %s", d.Addr, d.Err)
		}
		named = append(named, d.Addr)
	}
	for _, d := range got.Scoreboard.Daemons {
		scored = append(scored, d.Addr)
	}
	slices.Sort(named)
	slices.Sort(scored)
	if !slices.Equal(named, want) || !slices.Equal(scored, want) {
		t.Errorf("the health record names %v and the scoreboard lists %v, want %v", named, scored, want)
	}
}

// TestKillRestart: a killed daemon refuses Probe until Restart serves it
// again on the same address, on both transports.
func TestKillRestart(t *testing.T) {
	for _, listen := range transports {
		n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{2}, Listen: listen})
		m := n.Mixers[0][1]
		if err := m.Client.Probe(); err != nil {
			t.Fatalf("%s: live daemon: %v", listen, err)
		}
		n.Kill(m.Addr)
		if err := m.Client.Probe(); err == nil {
			t.Fatalf("%s: killed daemon answered Probe", listen)
		}
		if err := n.Restart(m.Addr); err != nil {
			t.Fatalf("%s: %v", listen, err)
		}
		if err := m.Client.Probe(); err != nil {
			t.Fatalf("%s: restarted daemon: %v", listen, err)
		}
	}
}

// TestSeedFixesRoundKeys: networks built with the same nonzero Seed hand
// out the same round keys; another seed does not.
func TestSeedFixesRoundKeys(t *testing.T) {
	roundKeys := func(seed int64, listen string) []byte {
		n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{1, 2, 1}, Seed: seed, Listen: listen})
		settings, err := n.Coord.OpenDialingRound(1)
		if err != nil {
			t.Fatal(err)
		}
		return settings.Marshal()
	}
	want := roundKeys(7, "mem:")
	if got := roundKeys(7, "127.0.0.1:0"); !bytes.Equal(got, want) {
		t.Fatal("two networks with seed 7 announced different round keys")
	}
	if got := roundKeys(8, "mem:"); bytes.Equal(got, want) {
		t.Fatal("seeds 7 and 8 announced the same round keys")
	}
}

// TestCloseLeavesNoGoroutines: a network that ran a round stops every
// goroutine it started when it closes.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, listen := range transports {
		baseline := runtime.NumGoroutine()
		n, err := NewNetwork(Config{NumPKGs: 1, Shards: []int{1, 2, 1}, Spares: true, NumFrontends: 2, Listen: listen})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Coord.OpenDialingRound(1); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
			t.Fatal(err)
		}
		n.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Close, %d before the network", listen, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestDialingRoundBesideParkedWait: an add-friend mix.round.wait parked
// on every mixer holds a connection of its own, so dialing rounds opened
// and closed through the same mixer clients meanwhile take milliseconds,
// not a park interval each, on both transports.
func TestDialingRoundBesideParkedWait(t *testing.T) {
	for _, listen := range transports {
		n := newNetwork(t, Config{Listen: listen})
		if _, err := n.Coord.OpenAddFriendRound(1); err != nil {
			t.Fatal(err)
		}
		var mixers []*Mixer
		for _, group := range n.Mixers {
			mixers = append(mixers, group...)
		}
		waited := make(chan error, len(mixers))
		for _, m := range mixers {
			go func(m *Mixer) {
				_, err := m.Client.WaitRound(wire.AddFriend, 1)
				waited <- err
			}(m)
		}
		for _, m := range mixers {
			for deadline := time.Now().Add(5 * time.Second); m.Client.CallCount("mix.round.wait") == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: an add-friend wait never reached its mixer client", listen)
				}
			}
		}
		for r := uint32(1); r <= 3; r++ {
			start := time.Now()
			if _, err := n.Coord.OpenDialingRound(r); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Coord.CloseRound(wire.Dialing, r); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("%s: dialing round %d took %v beside a parked add-friend wait, want under 100ms", listen, r, d)
			}
		}
		if _, err := n.Coord.CloseRound(wire.AddFriend, 1); err != nil {
			t.Fatal(err)
		}
		for range mixers {
			if err := <-waited; err != nil {
				t.Errorf("%s: add-friend wait: %v", listen, err)
			}
		}
	}
}

func TestNetworkDefaults(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if len(n.PKGs) != 3 || len(n.Mixers) != 3 || len(n.Mixers[2]) != 1 {
		t.Fatalf("defaults: %d PKGs, %d mixers; want 3/3", len(n.PKGs), len(n.Mixers))
	}
	if len(n.PKGKeys) != 3 || len(n.PKGBLSKeys) != 3 || len(n.MixerKeys) != 3 {
		t.Fatal("pinned key lists incomplete")
	}
}

func TestNewClientRegistersEverywhere(t *testing.T) {
	n, err := NewNetwork(Config{NumPKGs: 2, Shards: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	h := &Handler{AcceptAll: true}
	c, err := n.NewClient("user@example.org", h)
	if err != nil {
		t.Fatal(err)
	}
	for i, pkg := range n.PKGs {
		key, ok := pkg.Registered("user@example.org")
		if !ok {
			t.Fatalf("not registered at PKG %d", i)
		}
		if !key.Equal(c.SigningKey()) {
			t.Fatalf("PKG %d has wrong key", i)
		}
	}
}

func TestGenerateBatchShapes(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	settings, err := n.Coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := GenerateBatch(nil, settings, Workload{Real: 5, Cover: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 12 {
		t.Fatalf("batch size %d", len(batch))
	}
	want := wire.OnionSize(wire.Dialing, len(settings.Mixers))
	for i, onion := range batch {
		if len(onion) != want {
			t.Fatalf("onion %d size %d, want %d", i, len(onion), want)
		}
	}
	// The generated batch is accepted by the entry server and survives
	// the mix chain.
	for _, onion := range batch {
		if err := n.Entry.Submit(wire.Dialing, 1, onion); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Coord.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if sizes, err := n.CDN.MailboxSizes(wire.Dialing, 1); err != nil || len(sizes) == 0 {
		t.Fatalf("no mailboxes: %v", err)
	}
}

func TestGenerateBatchAddFriend(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	settings, err := n.Coord.OpenAddFriendRound(1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := GenerateBatch(nil, settings, Workload{
		Real:      3,
		Cover:     3,
		MailboxOf: func(i int) uint32 { return uint32(i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, onion := range batch {
		if err := n.Entry.Submit(wire.AddFriend, 1, onion); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Coord.CloseRound(wire.AddFriend, 1); err != nil {
		t.Fatal(err)
	}
	sizes, err := n.CDN.MailboxSizes(wire.AddFriend, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, size := range sizes {
		if size%wire.EncryptedFriendRequestSize != 0 {
			t.Fatal("mailbox not request-aligned")
		}
		total += size / wire.EncryptedFriendRequestSize
	}
	// 3 real + noise (cover dropped); noise is 2/mailbox/server.
	if total < 3 {
		t.Fatalf("real requests lost: %d", total)
	}
}

func TestRegisterDirect(t *testing.T) {
	n, err := NewNetwork(Config{NumPKGs: 1, Shards: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	u, err := RegisterDirect(n.PKGs[0], n.Provider, "direct@example.org")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.PKGs[0].NewRound(1); err != nil {
		t.Fatal(err)
	}
	sig := u.SignExtract("direct@example.org", 1)
	if _, err := n.PKGs[0].Extract("direct@example.org", 1, sig); err != nil {
		t.Fatal(err)
	}
}

// TestSeededRoundIndependentOfGOMAXPROCS: a seeded network's add-friend
// and dialing rounds, with noise of scale b > 0 on every mixer and no
// client, publish byte-identical mailboxes at GOMAXPROCS 1, 2 and 4. A
// seeded mixer runs the production program, its worker pools included.
func TestSeededRoundIndependentOfGOMAXPROCS(t *testing.T) {
	nz := noise.Laplace{Mu: 4, B: 2}
	mailboxes := func(t *testing.T) [][]byte {
		n := newNetwork(t, Config{NumPKGs: 1, AddFriendNoise: &nz, DialingNoise: &nz, TargetRequestsPerMailbox: 40, Seed: 21})
		var out [][]byte
		for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
			n.Coord.SetExpectedVolume(service, 120)
			open := n.Coord.OpenDialingRound
			if service == wire.AddFriend {
				open = n.Coord.OpenAddFriendRound
			}
			settings, err := open(1)
			if err != nil {
				t.Fatal(err)
			}
			if settings.NumMailboxes < 2 {
				t.Fatalf("%v: want a multi-mailbox round, got K=%d", service, settings.NumMailboxes)
			}
			if _, err := n.Coord.CloseRound(service, 1); err != nil {
				t.Fatal(err)
			}
			for mb := uint32(0); mb < settings.NumMailboxes; mb++ {
				box, err := n.CDN.Fetch(service, 1, mb)
				if err != nil {
					t.Fatalf("%v mailbox %d: %v", service, mb, err)
				}
				out = append(out, box)
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [][]byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := mailboxes(t)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d mailboxes, %d at GOMAXPROCS 1", procs, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("GOMAXPROCS %d: mailbox %d of %d differs from GOMAXPROCS 1's", procs, i, len(want))
			}
		}
	}
}

// TestDriverCountsEveryFrontend: with frontend 0's client address down,
// the clients' pools submit through frontend 1, and the round driver still
// closes each round as soon as every client has submitted, well inside
// its 30 s submit window.
func TestDriverCountsEveryFrontend(t *testing.T) {
	n := newNetwork(t, Config{NumPKGs: 1, Shards: []int{1}, NumFrontends: 2})
	var clients []*core.Client
	for i := 0; i < 2; i++ {
		c, err := n.NewClient(fmt.Sprintf("client%d@example.org", i), &Handler{AcceptAll: true})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	n.Kill(n.FrontendAddrs[0])

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, len(clients))
	for _, c := range clients {
		go func(c *core.Client) { done <- c.Run(ctx) }(c)
	}
	defer func() {
		cancel()
		for range clients {
			<-done
		}
	}()
	n.StartRounds(ctx, RoundDriver{
		Services:        []wire.Service{wire.Dialing},
		WaitSubmissions: len(clients),
		SubmitWindow:    30 * time.Second,
		OnError: func(err error) {
			if ctx.Err() == nil { // the network's Close fails the last round
				t.Error(err)
			}
		},
	})
	const rounds = 3
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		scanned := 0
		for _, c := range clients {
			if c.DialRound() > rounds {
				scanned++
			}
		}
		if scanned == len(clients) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d clients scanned %d dialing rounds within 10 s", scanned, len(clients), rounds)
		}
	}
}

// TestPKGFault: with PKG 1 down, an add-friend round fails to open with an
// error naming PKG 1, and the PKGs that answered erase the round's master
// key. Once PKG 1 is served again, a friendship completes over the next
// two rounds. On both transports.
func TestPKGFault(t *testing.T) {
	for _, listen := range transports {
		n := newNetwork(t, Config{Shards: []int{1}, Listen: listen})
		alice, err := n.NewClient("alice@example.org", &Handler{AcceptAll: true})
		if err != nil {
			t.Fatal(err)
		}
		bob, err := n.NewClient("bob@example.org", &Handler{AcceptAll: true})
		if err != nil {
			t.Fatal(err)
		}

		n.Kill(n.PKGAddrs[1])
		if _, err := n.Coord.OpenAddFriendRound(1); err == nil || !strings.Contains(err.Error(), "PKG 1") {
			t.Fatalf("%s: open with PKG 1 down: %v, want an error naming PKG 1", listen, err)
		}
		for _, i := range []int{0, 2} {
			if n.PKGs[i].RoundOpen(1) {
				t.Errorf("%s: PKG %d holds round 1's master key after the failed open", listen, i)
			}
		}

		if err := n.Restart(n.PKGAddrs[1]); err != nil {
			t.Fatal(err)
		}
		if err := n.Befriend(alice, bob, 2); err != nil {
			t.Fatalf("%s: after PKG 1 restarted: %v", listen, err)
		}
	}
}

// TestPKGMissedCloseErased: a PKG that is down when an add-friend round
// closes never hears the close, so it still holds the round's master key;
// opening the next round erases it there. On both transports.
func TestPKGMissedCloseErased(t *testing.T) {
	for _, listen := range transports {
		n := newNetwork(t, Config{Shards: []int{1}, Listen: listen})
		if _, err := n.Coord.OpenAddFriendRound(1); err != nil {
			t.Fatal(err)
		}
		n.Kill(n.PKGAddrs[1])
		if _, err := n.Coord.CloseRound(wire.AddFriend, 1); err != nil {
			t.Fatalf("%s: close with PKG 1 down: %v", listen, err)
		}
		if !n.PKGs[1].RoundOpen(1) {
			t.Fatalf("%s: the close reached PKG 1 while it was down", listen)
		}
		if err := n.Restart(n.PKGAddrs[1]); err != nil {
			t.Fatal(err)
		}
		if err := n.RunAddFriendRound(2, nil); err != nil {
			t.Fatalf("%s: round 2: %v", listen, err)
		}
		for i, pkg := range n.PKGs {
			for _, r := range []uint32{1, 2} {
				if pkg.RoundOpen(r) {
					t.Errorf("%s: PKG %d holds round %d's master key after round 2", listen, i, r)
				}
			}
		}
	}
}
