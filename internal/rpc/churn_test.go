package rpc_test

import (
	"bytes"
	mathrand "math/rand"
	"slices"
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
// round publishes, only which machines compute it. It logs, per
// transport, the p50/p99 time of the churned fleet's closed rounds and
// its mean rounds-to-recovery (a kill to the automatic re-admission); it
// asserts on neither.
func TestChurnSelfHealingRounds(t *testing.T) {
	nz := noise.Laplace{Mu: 0, B: 0}
	counts := []int{2, 2, 2}
	const numRounds = 12
	const numTokens = 120
	tokens := makeTestTokens(numTokens)

	onTransports(t, func(t *testing.T, listen string) {
		newFleet := func(spares bool) *sim.Network {
			rpc.SetStreamChunk(t, 16)
			n := newNetwork(t, sim.Config{
				NumPKGs: 1, Shards: counts, Spares: spares,
				AddFriendNoise: &nz, DialingNoise: &nz, TargetRequestsPerMailbox: 40,
				Seed: 1000, Listen: listen,
			})
			n.Coord.RoundDeadline = 20 * time.Second
			n.Coord.SetExpectedVolume(wire.Dialing, numTokens)
			return n
		}
		churned, mirror := newFleet(true), newFleet(false)
		coord := churned.Coord

		plan, kills := newChurnPlan(7, numRounds, 2, counts)
		if kills < 4 {
			t.Fatalf("churn plan has only %d kills over %d rounds; want a harsher schedule", kills, numRounds)
		}

		down := make(map[string]bool)
		benchedAt := make(map[string]int)
		var closeTimes []time.Duration
		var recoveries []int
		for r := 1; r <= numRounds; r++ {
			var victims []string
			for _, ev := range plan {
				if ev.round != r {
					continue
				}
				addr := churned.Mixers[ev.position][ev.shard].Addr
				if ev.action == churnKill {
					victims = append(victims, addr)
				}
				switch {
				case ev.action == churnKill && !down[addr]:
					churned.Kill(addr)
					down[addr] = true
				case ev.action == churnRestart && down[addr]:
					if err := churned.Restart(addr); err != nil {
						t.Fatal(err)
					}
					down[addr] = false
				case ev.action == churnPause && !down[addr]:
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

			start := time.Now()
			if _, err := coord.CloseRound(wire.Dialing, round); err != nil {
				t.Fatalf("round %d failed under churn: %v", r, err)
			}
			closeTimes = append(closeTimes, time.Since(start))
			if _, err := mirror.Coord.CloseRound(wire.Dialing, round); err != nil {
				t.Fatalf("round %d failed in the mirror fleet: %v", r, err)
			}
			got := fetchAll(t, churned.CDN, wire.Dialing, round, settings.NumMailboxes)
			want := fetchAll(t, mirror.CDN, wire.Dialing, round, settings.NumMailboxes)
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
				if d.Spare {
					continue
				}
				// A daemon leaving the bench recovered in (now − benched-at)
				// rounds, with no operator in the loop.
				was, benched := benchedAt[d.Addr]
				if d.Benched && !benched {
					benchedAt[d.Addr] = r
				} else if !d.Benched && benched {
					recoveries = append(recoveries, r-was)
					delete(benchedAt, d.Addr)
				}
			}
		}

		slices.Sort(closeTimes)
		meanRecovery := 0.0
		for _, n := range recoveries {
			meanRecovery += float64(n) / float64(len(recoveries))
		}
		t.Logf("%d rounds closed under churn: p50 %v, p99 %v; %d recoveries, mean %.1f rounds to recovery",
			len(closeTimes), percentile(closeTimes, 50), percentile(closeTimes, 99), len(recoveries), meanRecovery)

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

// churnAction is one kind of failure the churn test injects.
type churnAction int

const (
	// churnKill takes the daemon's listener down: peers and the
	// coordinator get transport errors until a churnRestart.
	churnKill churnAction = iota
	// churnRestart brings a killed daemon back on its old address.
	churnRestart
	// churnPause takes the daemon down and brings it back within the
	// same inter-round gap — a GC stall or network blip rather than a
	// crash; the scheduler should see a failed probe at worst.
	churnPause
)

// churnEvent is one scheduled failure: apply action to the daemon at
// (position, shard) before the given round is planned. Victims are always
// non-announcer shards (shard >= 1): the announcer's signing key is
// pinned by clients, so no scheduler could route around its death, and
// the test measures self-healing, not key ceremony.
type churnEvent struct {
	round, position, shard int
	action                 churnAction
}

// newChurnPlan builds a seeded failure schedule, in round order, for
// `rounds` consecutive rounds over a fleet with counts[i] daemons at
// position i, and counts its kills. Every killEvery-th round (starting at
// round 1) one randomly chosen non-announcer shard is disrupted before the
// round opens — usually killed, to stay dead through that round (the
// scheduler must bench it and draft a spare) and restart before the next,
// occasionally only paused. Positions with a single daemon are never
// victims.
func newChurnPlan(seed int64, rounds, killEvery int, counts []int) (plan []churnEvent, kills int) {
	rng := mathrand.New(mathrand.NewSource(seed))
	var candidates [][2]int
	for pos, n := range counts {
		for s := 1; s < n; s++ {
			candidates = append(candidates, [2]int{pos, s})
		}
	}
	if len(candidates) == 0 {
		return nil, 0
	}
	for r := 1; r <= rounds; r += killEvery {
		victim := candidates[rng.Intn(len(candidates))]
		if rng.Intn(4) == 0 {
			plan = append(plan, churnEvent{r, victim[0], victim[1], churnPause})
			continue
		}
		plan = append(plan, churnEvent{r, victim[0], victim[1], churnKill})
		kills++
		if r+1 <= rounds {
			plan = append(plan, churnEvent{r + 1, victim[0], victim[1], churnRestart})
		}
	}
	return plan, kills
}

// percentile returns the pct-th percentile of sorted (ascending) by the
// nearest-rank rule: the smallest sample with at least pct % of the
// samples at or below it. So p99 of ten rounds is the slowest round, and
// p50 of ten is the fifth. An empty slice yields 0.
func percentile(sorted []time.Duration, pct int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 · n), in integers
	return sorted[max(rank, 1)-1]
}

// TestPercentileNearestRank pins the one percentile rule the churn test
// logs with: p99 of ten rounds is the slowest round, not the
// second-slowest that int(p·(n-1)) picks.
func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		want   time.Duration // samples are 1..n ms, so the answer is its rank
	}{
		{1, 50, 1}, {1, 99, 1},
		{2, 50, 1}, {2, 99, 2},
		{10, 50, 5}, {10, 99, 10},
		{100, 50, 50}, {100, 99, 99},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i+1) * time.Millisecond
		}
		if got := percentile(sorted, tc.pct); got != tc.want*time.Millisecond {
			t.Errorf("p%d of %d samples = %v, want %v", tc.pct, tc.n, got, tc.want*time.Millisecond)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of no samples = %v, want 0", got)
	}
}

// TestMergeRotationDeterminism pins the rotation contract: 2- and
// 3-shard fleets, whose merge/build-lead role rotates round-robin,
// publish byte-identical mailboxes to the unsharded fleet under a fixed
// seed, round after round. The merge funnel demonstrably MOVES — the
// member with the position's peak egress follows round % N — while the
// output never does, because the shuffle permutation is derived from the
// round key every member holds.
func TestMergeRotationDeterminism(t *testing.T) {
	nz := noise.Laplace{Mu: 0, B: 0}
	const numRounds = 3
	const numTokens = 60
	tokens := makeTestTokens(numTokens)

	type roundBoxes struct {
		k     uint32
		boxes map[uint32][]byte
	}
	run := func(shardsPerPos int) ([]roundBoxes, *coordinator.Coordinator) {
		rpc.SetStreamChunk(t, 16)
		n := newNetwork(t, sim.Config{
			NumPKGs: 1, Shards: []int{shardsPerPos, shardsPerPos, shardsPerPos},
			AddFriendNoise: &nz, DialingNoise: &nz, TargetRequestsPerMailbox: 40, Seed: 1000,
		})
		coord := n.Coord
		coord.SetExpectedVolume(wire.Dialing, numTokens)

		var out []roundBoxes
		for r := 1; r <= numRounds; r++ {
			settings, err := coord.OpenDialingRound(uint32(r))
			if err != nil {
				t.Fatalf("%d shards round %d open: %v", shardsPerPos, r, err)
			}
			submitTokens(t, n.Entry, settings, tokens, mathrand.New(mathrand.NewSource(4242)))
			if _, err := coord.CloseRound(wire.Dialing, uint32(r)); err != nil {
				t.Fatalf("%d shards round %d: %v", shardsPerPos, r, err)
			}
			out = append(out, roundBoxes{settings.NumMailboxes, fetchAll(t, n.CDN, wire.Dialing, uint32(r), settings.NumMailboxes)})
		}
		return out, coord
	}

	unsharded, _ := run(1)
	for _, shardsPerPos := range []int{2, 3} {
		rotated, coord := run(shardsPerPos)
		for r := 0; r < numRounds; r++ {
			if rotated[r].k != unsharded[r].k {
				t.Fatalf("%d shards round %d: K=%d rotated, K=%d unsharded", shardsPerPos, r+1, rotated[r].k, unsharded[r].k)
			}
			for mb := uint32(0); mb < rotated[r].k; mb++ {
				if !bytes.Equal(rotated[r].boxes[mb], unsharded[r].boxes[mb]) {
					t.Errorf("%d shards round %d mailbox %d: the rotated fleet diverged from the unsharded one", shardsPerPos, r+1, mb)
				}
			}
		}
		// The funnel moved: the middle position's peak-egress member (the
		// merge forwards the FULL merged batch; non-merge members only
		// deposit their slice) must track round % N.
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
// export surface: mix.round.exportkey serves a round only to hosts in the
// allowlist the round's mix.newround carried. A round with no allowlist
// (every member but the announcer) exports to nobody, one naming only
// other hosts refuses the caller, and re-announcing the round with the
// caller's host admitted restores service.
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
	if _, err := mc.NewRound(wire.Dialing, 1, nil); err != nil {
		t.Fatal(err)
	}

	exportArgs := struct {
		Service wire.Service `json:"service"`
		Round   uint32       `json:"round"`
	}{wire.Dialing, 1}
	raw := rpc.Dial(addr)
	defer raw.Close()

	// No allowlist: nobody may pull.
	if err := raw.Call("mix.round.exportkey", exportArgs, new(wire.MixerRoundKey)); err == nil {
		t.Fatal("export from a round with no allowlist succeeded")
	}
	// An allowlist naming only a foreign host locks this caller out.
	if _, err := mc.NewRound(wire.Dialing, 1, []string{"203.0.113.1:9000"}); err != nil {
		t.Fatal(err)
	}
	if err := raw.Call("mix.round.exportkey", exportArgs, new(wire.MixerRoundKey)); err == nil {
		t.Fatal("export from outside the shard network succeeded")
	}
	// Re-planning the round with the caller's host admitted restores it.
	if _, err := mc.NewRound(wire.Dialing, 1, []string{"127.0.0.1:9000"}); err != nil {
		t.Fatal(err)
	}
	if err := raw.Call("mix.round.exportkey", exportArgs, new(wire.MixerRoundKey)); err != nil {
		t.Fatalf("export from inside the shard network refused: %v", err)
	}
	mc.CloseRound(wire.Dialing, 1)
}
