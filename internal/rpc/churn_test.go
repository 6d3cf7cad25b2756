package rpc_test

import (
	"bytes"
	mathrand "math/rand"
	"testing"
	"time"

	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// TestChurnSelfHealingRounds is the self-healing acceptance test: a
// 3-position × 2-shard fleet with one hot spare per position runs many
// consecutive rounds, on each transport, while a seeded churn plan kills a
// random non-announcer daemon every other round (and occasionally pauses
// one). Every round must close with ZERO operator action: the scheduler's
// plan-time probe benches the dead daemon and drafts the spare into its
// slot, and once the daemon restarts it is probed back in automatically.
// A churn-free mirror fleet runs the same seed in parallel; every
// surviving round's mailboxes must be byte-identical between the two —
// benching, spare drafting, and merge-role rotation never change what a
// round publishes, only which machines compute it.
func TestChurnSelfHealingRounds(t *testing.T) {
	nz := noise.Laplace{Mu: 0, B: 0}
	counts := []int{2, 2, 2}
	const numRounds = 12
	const numTokens = 120
	tokens := makeTestTokens(numTokens)

	onTransports(t, func(t *testing.T, listen string) {
		newFleet := func(spares bool) *sim.Network {
			n := newNetwork(t, sim.Config{
				NumPKGs: 1, Shards: counts, Spares: spares,
				AddFriendNoise: &nz, DialingNoise: &nz, TargetRequestsPerMailbox: 40,
				Seed: 1000, Listen: listen,
			})
			n.Coord.ChunkSize = 16
			n.Coord.RoundDeadline = 20 * time.Second
			n.Coord.SetExpectedVolume(wire.Dialing, numTokens)
			return n
		}
		churned, mirror := newFleet(true), newFleet(false)
		coord := churned.Coord

		plan := sim.NewChurnPlan(7, numRounds, 2, counts)
		if plan.Kills < 4 {
			t.Fatalf("churn plan has only %d kills over %d rounds; want a harsher schedule", plan.Kills, numRounds)
		}

		down := make(map[string]bool)
		for r := 1; r <= numRounds; r++ {
			var victims []string
			for _, ev := range plan.EventsBefore(r) {
				addr := churned.Mixers[ev.Position][ev.Shard].Addr
				if ev.Action == sim.ChurnKill {
					victims = append(victims, addr)
				}
				switch {
				case ev.Action == sim.ChurnKill && !down[addr]:
					churned.Kill(addr)
					down[addr] = true
				case ev.Action == sim.ChurnRestart && down[addr]:
					if err := churned.Restart(addr); err != nil {
						t.Fatal(err)
					}
					down[addr] = false
				case ev.Action == sim.ChurnPause && !down[addr]:
					churned.Kill(addr)
					if err := churned.Restart(addr); err != nil {
						t.Fatal(err)
					}
				}
			}

			round := uint32(r)
			settings, err := coord.OpenDialingRound(round)
			if err != nil {
				t.Fatalf("round %d open (churned): %v", r, err)
			}
			mirrorSettings, err := mirror.Coord.OpenDialingRound(round)
			if err != nil {
				t.Fatalf("round %d open (mirror): %v", r, err)
			}
			if settings.NumMailboxes != mirrorSettings.NumMailboxes {
				t.Fatalf("round %d: K=%d churned, K=%d mirror", r, settings.NumMailboxes, mirrorSettings.NumMailboxes)
			}
			submitTokens(t, churned.Entry, settings, tokens, mathrand.New(mathrand.NewSource(4242)))
			submitTokens(t, mirror.Entry, mirrorSettings, tokens, mathrand.New(mathrand.NewSource(4242)))

			if _, err := coord.CloseRound(wire.Dialing, round); err != nil {
				t.Fatalf("round %d failed under churn: %v", r, err)
			}
			if _, err := mirror.Coord.CloseRound(wire.Dialing, round); err != nil {
				t.Fatalf("round %d failed in the mirror fleet: %v", r, err)
			}
			got := fetchAll(t, churned.CDN, round, settings.NumMailboxes)
			want := fetchAll(t, mirror.CDN, round, settings.NumMailboxes)
			for mb := uint32(0); mb < settings.NumMailboxes; mb++ {
				if !bytes.Equal(got[mb], want[mb]) {
					t.Errorf("round %d mailbox %d: churned fleet diverged from mirror", r, mb)
				}
			}
			assertTokensDelivered(t, churned.CDN, round, settings, tokens)

			// The scheduler benched this round's victims at plan time; the
			// cooldown keeps them benched through the round.
			for _, d := range coord.Scoreboard().Daemons {
				for _, v := range victims {
					if d.Addr == v && !d.Benched {
						t.Errorf("round %d: killed daemon %s is not benched", r, v)
					}
				}
			}
		}

		// Every kill was healed without operator action, so the health ring
		// must show zero failed rounds...
		for _, h := range coord.Status() {
			if h.Err != "" {
				t.Errorf("round %d recorded a failure under churn: %s", h.Round, h.Err)
			}
		}
		// ...benched victims were re-admitted, and spares were drafted.
		var readmissions uint64
		sawSpare := false
		for _, d := range coord.Scoreboard().Daemons {
			readmissions += d.Readmissions
			sawSpare = sawSpare || d.Spare
		}
		if readmissions == 0 {
			t.Error("no benched daemon was ever re-admitted")
		}
		if !sawSpare {
			t.Error("no spare was ever drafted")
		}
	})
}

// TestMergeRotationDeterminism pins the rotation contract: for 1-, 2-, and
// 3-shard groups, a fleet with round-robin merge-role rotation publishes
// byte-identical mailboxes to a fixed-seed mirror fleet whose merge role
// is pinned to shard 0 (PinLead), round after round. The merge funnel
// demonstrably MOVES — the member with the position's peak egress follows
// round % N — while the output never does, because the shuffle
// permutation is derived from the round key every member holds.
func TestMergeRotationDeterminism(t *testing.T) {
	nz := noise.Laplace{Mu: 0, B: 0}
	const numRounds = 3
	const numTokens = 60
	tokens := makeTestTokens(numTokens)

	type roundBoxes struct {
		k     uint32
		boxes map[uint32][]byte
	}
	run := func(shardsPerPos int, pinLead bool) ([]roundBoxes, *coordinator.Coordinator) {
		n := newNetwork(t, sim.Config{
			NumPKGs: 1, Shards: []int{shardsPerPos, shardsPerPos, shardsPerPos},
			AddFriendNoise: &nz, DialingNoise: &nz, TargetRequestsPerMailbox: 40, Seed: 1000,
		})
		coord := n.Coord
		coord.ChunkSize = 16
		coord.PinLead = pinLead
		coord.SetExpectedVolume(wire.Dialing, numTokens)

		var out []roundBoxes
		for r := 1; r <= numRounds; r++ {
			settings, err := coord.OpenDialingRound(uint32(r))
			if err != nil {
				t.Fatalf("%d shards pin=%v round %d open: %v", shardsPerPos, pinLead, r, err)
			}
			submitTokens(t, n.Entry, settings, tokens, mathrand.New(mathrand.NewSource(4242)))
			if _, err := coord.CloseRound(wire.Dialing, uint32(r)); err != nil {
				t.Fatalf("%d shards pin=%v round %d: %v", shardsPerPos, pinLead, r, err)
			}
			out = append(out, roundBoxes{settings.NumMailboxes, fetchAll(t, n.CDN, uint32(r), settings.NumMailboxes)})
		}
		return out, coord
	}

	for _, shardsPerPos := range []int{1, 2, 3} {
		rotated, coord := run(shardsPerPos, false)
		pinned, _ := run(shardsPerPos, true)
		for r := 0; r < numRounds; r++ {
			if rotated[r].k != pinned[r].k {
				t.Fatalf("%d shards round %d: K=%d rotated, K=%d pinned", shardsPerPos, r+1, rotated[r].k, pinned[r].k)
			}
			for mb := uint32(0); mb < rotated[r].k; mb++ {
				if !bytes.Equal(rotated[r].boxes[mb], pinned[r].boxes[mb]) {
					t.Errorf("%d shards round %d mailbox %d: rotation changed the round's bytes", shardsPerPos, r+1, mb)
				}
			}
		}
		if shardsPerPos == 1 {
			continue
		}
		// The funnel moved: in the rotated fleet the middle position's
		// peak-egress member (the merge forwards the FULL merged batch;
		// non-merge members only deposit their slice) must track
		// round % N.
		for _, h := range coord.Status() {
			wantLead := int(h.Round) % shardsPerPos
			best, bestOut := -1, uint64(0)
			for _, d := range h.Daemons {
				if d.Position != 1 {
					continue
				}
				if d.Stats.BytesOut > bestOut {
					best, bestOut = d.Shard, d.Stats.BytesOut
				}
			}
			if best != wantLead {
				t.Errorf("%d shards round %d: peak egress at shard %d, want rotated lead %d", shardsPerPos, h.Round, best, wantLead)
			}
		}
	}
}

// TestExportKeyPeerGate pins the shard-network gate on the round-key
// export surface: once the coordinator distributes a peer allowlist with
// the round's shard layout, mix.round.exportkey refuses callers from
// outside it, and an updated allowlist (or none at all — the legacy
// open behavior) restores service.
func TestExportKeyPeerGate(t *testing.T) {
	nz := noise.Laplace{Mu: 0, B: 0}
	m, err := mixnet.New(mixnet.Config{
		Name: "m", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
		ShardIndex: 0, ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	rpc.RegisterMixer(srv, m)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc, err := rpc.DialMixer(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}

	exportArgs := struct {
		Service wire.Service `json:"service"`
		Round   uint32       `json:"round"`
	}{wire.Dialing, 1}
	raw := rpc.Dial(addr)
	defer raw.Close()

	// No allowlist yet: the legacy open behavior — any caller may pull.
	if err := raw.Call("mix.round.exportkey", exportArgs, new(wire.MixerRoundKey)); err != nil {
		t.Fatalf("ungated export: %v", err)
	}
	// An allowlist naming only a foreign host locks this caller out.
	if err := mc.SetRoundShard(wire.Dialing, 1, 0, 2, []string{"203.0.113.1:9000"}); err != nil {
		t.Fatal(err)
	}
	if err := raw.Call("mix.round.exportkey", exportArgs, new(wire.MixerRoundKey)); err == nil {
		t.Fatal("export from outside the shard network succeeded")
	}
	// Re-planning the round with the caller's host admitted restores it.
	if err := mc.SetRoundShard(wire.Dialing, 1, 0, 2, []string{"127.0.0.1:9000"}); err != nil {
		t.Fatal(err)
	}
	if err := raw.Call("mix.round.exportkey", exportArgs, new(wire.MixerRoundKey)); err != nil {
		t.Fatalf("export from inside the shard network refused: %v", err)
	}
	mc.CloseRound(wire.Dialing, 1)
}
