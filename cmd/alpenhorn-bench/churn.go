package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// churnBench measures the availability story of the self-healing
// scheduler over real TCP: a 3-position chain, each position sharded
// across 2 daemons with 1 hot spare standing by, runs consecutive
// dialing rounds while a seeded churn plan (internal/sim) kills a random
// non-announcer daemon at increasing rates. Zero operator action is ever
// taken — killed daemons are benched at plan time and replaced from the
// spare pool, and re-admitted automatically after they restart. For each
// kill rate the experiment reports the failed-round fraction, p50/p99
// round duration, and the mean rounds-to-recovery (kill to automatic
// re-admission). The -json record is uploaded per PR by CI, tracking the
// paper's availability claim (rounds keep closing as long as each
// position has a live quorum of machines) as the codebase evolves.
func churnBench(batchSize int) {
	header("Churn: self-healing rounds with hot spares under daemon kills (over TCP)")
	const (
		positions = 3
		shardsPer = 2
		numRounds = 10
	)
	counts := make([]int, positions)
	for i := range counts {
		counts[i] = shardsPer
	}
	fmt.Printf("dialing, batch %d, %d positions x %d shards + 1 spare each, %d rounds, GOMAXPROCS %d\n\n",
		batchSize, positions, shardsPer, numRounds, runtime.GOMAXPROCS(0))

	type modeResult struct {
		Name                 string  `json:"name"`
		KillEvery            int     `json:"kill_every_rounds"`
		Rounds               int     `json:"rounds"`
		Kills                int     `json:"kills"`
		Pauses               int     `json:"pauses"`
		FailedRounds         int     `json:"failed_rounds"`
		FailedFraction       float64 `json:"failed_round_fraction"`
		P50Ms                float64 `json:"round_p50_ms"`
		P99Ms                float64 `json:"round_p99_ms"`
		Readmissions         uint64  `json:"readmissions"`
		MeanRoundsToRecovery float64 `json:"mean_rounds_to_recovery"`
	}

	runMode := func(killEvery int) modeResult {
		nz := noise.Laplace{Mu: 2, B: 0}
		var closers []*rpc.Server
		defer func() {
			for _, s := range closers {
				s.Close()
			}
		}()
		servers := make([][]*mixnet.Server, positions)
		rpcSrvs := make([][]*rpc.Server, positions)
		addrs := make([][]string, positions)
		coord := &coordinator.Coordinator{
			TargetRequestsPerMailbox: 24000,
			RoundDeadline:            30 * time.Second,
		}
		coord.Shards = make([][]coordinator.Mixer, positions)
		coord.Spares = make([][]coordinator.Mixer, positions)
		for i := 0; i < positions; i++ {
			for s := 0; s < shardsPer+1; s++ {
				cfg := mixnet.Config{
					Name: "m", Position: i, ChainLength: positions,
					AddFriendNoise: &nz, DialingNoise: &nz,
					Parallelism: parallelism,
				}
				if s == shardsPer {
					cfg.Spare = true // the position's hot spare: unpinned
				} else {
					cfg.ShardIndex, cfg.ShardCount = s, shardsPer
				}
				m, err := mixnet.New(cfg)
				if err != nil {
					log.Fatal(err)
				}
				srv := rpc.NewServer()
				rpc.RegisterMixer(srv, m)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					log.Fatal(err)
				}
				closers = append(closers, srv)
				mc, err := rpc.DialMixer(addr)
				if err != nil {
					log.Fatal(err)
				}
				if cfg.Spare {
					coord.Spares[i] = append(coord.Spares[i], mc)
					continue
				}
				if s == 0 {
					coord.Mixers = append(coord.Mixers, mc)
				} else {
					coord.Shards[i] = append(coord.Shards[i], mc)
				}
				servers[i] = append(servers[i], m)
				rpcSrvs[i] = append(rpcSrvs[i], srv)
				addrs[i] = append(addrs[i], addr)
			}
		}
		store := cdn.NewStore(2)
		cdnSrv := rpc.NewServer()
		rpc.RegisterCDN(cdnSrv, store)
		cdnAddr, err := cdnSrv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		closers = append(closers, cdnSrv)
		e := entry.New()
		coord.Entry = e
		coord.CDNAddr = cdnAddr
		coord.SetExpectedVolume(wire.Dialing, batchSize)

		var plan *sim.ChurnPlan
		if killEvery > 0 {
			plan = sim.NewChurnPlan(11, numRounds, killEvery, counts)
		}
		res := modeResult{KillEvery: killEvery, Rounds: numRounds}
		if killEvery == 0 {
			res.Name = "no churn (baseline)"
		} else {
			res.Name = fmt.Sprintf("kill a random shard every %d round(s)", killEvery)
			res.Kills, res.Pauses = plan.Kills, plan.Pauses
		}

		restart := func(pos, shard int) {
			srv := rpc.NewServer()
			rpc.RegisterMixer(srv, servers[pos][shard])
			if _, err := srv.Listen(addrs[pos][shard]); err != nil {
				log.Fatalf("restarting daemon %d/%d: %v", pos, shard, err)
			}
			closers = append(closers, srv)
			rpcSrvs[pos][shard] = srv
		}

		benchedAt := make(map[string]int)
		var recoveries []int
		var okDurations []time.Duration
		for r := 1; r <= numRounds; r++ {
			if plan != nil {
				for _, ev := range plan.EventsBefore(r) {
					switch ev.Action {
					case sim.ChurnKill:
						rpcSrvs[ev.Position][ev.Shard].Close()
					case sim.ChurnRestart:
						restart(ev.Position, ev.Shard)
					case sim.ChurnPause:
						rpcSrvs[ev.Position][ev.Shard].Close()
						restart(ev.Position, ev.Shard)
					}
				}
			}
			round := uint32(r)
			settings, err := coord.OpenDialingRound(round)
			if err != nil {
				res.FailedRounds++
				continue
			}
			batch, err := sim.GenerateBatch(nil, settings, sim.Workload{
				Real: batchSize / 20, Cover: batchSize - batchSize/20,
			})
			if err != nil {
				log.Fatal(err)
			}
			for _, onion := range batch {
				if err := e.Submit(wire.Dialing, round, onion); err != nil {
					log.Fatal(err)
				}
			}
			start := time.Now()
			if _, err := coord.CloseRound(wire.Dialing, round); err != nil {
				res.FailedRounds++
			} else {
				okDurations = append(okDurations, time.Since(start))
			}
			// Track bench/recovery transitions: a daemon leaving the bench
			// recovered in (now - benched-at) rounds, with no operator in
			// the loop.
			for _, d := range coord.Scoreboard().Daemons {
				if d.Spare {
					continue
				}
				was, benched := benchedAt[d.Addr]
				if d.Benched && !benched {
					benchedAt[d.Addr] = r
				} else if !d.Benched && benched {
					recoveries = append(recoveries, r-was)
					delete(benchedAt, d.Addr)
				}
			}
		}

		res.FailedFraction = float64(res.FailedRounds) / float64(numRounds)
		sort.Slice(okDurations, func(i, j int) bool { return okDurations[i] < okDurations[j] })
		pct := func(p float64) float64 {
			if len(okDurations) == 0 {
				return 0
			}
			idx := int(p * float64(len(okDurations)-1))
			return float64(okDurations[idx]) / float64(time.Millisecond)
		}
		res.P50Ms, res.P99Ms = pct(0.50), pct(0.99)
		for _, d := range coord.Scoreboard().Daemons {
			res.Readmissions += d.Readmissions
		}
		if len(recoveries) > 0 {
			sum := 0
			for _, n := range recoveries {
				sum += n
			}
			res.MeanRoundsToRecovery = float64(sum) / float64(len(recoveries))
		}
		return res
	}

	var results []modeResult
	for _, killEvery := range []int{0, 2, 1} {
		r := runMode(killEvery)
		fmt.Printf("%-42s %2d kills %2d pauses   %d/%d rounds failed   p50 %7.1f ms  p99 %7.1f ms   %d re-admissions  %.1f rounds to recovery\n",
			r.Name, r.Kills, r.Pauses, r.FailedRounds, r.Rounds, r.P50Ms, r.P99Ms, r.Readmissions, r.MeanRoundsToRecovery)
		results = append(results, r)
	}
	fmt.Println("\n(a killed daemon is benched by a failed plan-time probe and its slot is")
	fmt.Println(" covered by the position's hot spare; after restarting it probes healthy")
	fmt.Println(" and is re-admitted once the bench cooldown passes — zero operator action)")

	writeJSONRecord("churn", struct {
		Experiment string       `json:"experiment"`
		Batch      int          `json:"batch"`
		GoMaxProcs int          `json:"gomaxprocs"`
		Modes      []modeResult `json:"modes"`
	}{"churn", batchSize, runtime.GOMAXPROCS(0), results})
}
