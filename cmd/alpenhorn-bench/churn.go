package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

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
// re-admission). The fleet is a sim.Network over loopback TCP, its mixers
// at GOMAXPROCS workers. The -json record is uploaded per PR by CI,
// tracking the paper's availability claim (rounds keep closing as long as
// each position has a live quorum of machines) as the codebase evolves.
func churnBench(batchSize int) {
	header("Churn: self-healing rounds with hot spares under daemon kills (over TCP)")
	const numRounds = 10
	counts := []int{2, 2, 2}
	fmt.Printf("dialing, batch %d, %d positions x %d shards + 1 spare each, %d rounds, GOMAXPROCS %d\n\n",
		batchSize, len(counts), counts[0], numRounds, runtime.GOMAXPROCS(0))

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
		network, err := sim.NewNetwork(sim.Config{Shards: counts, Spares: true, Listen: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		defer network.Close()
		coord := network.Coord
		coord.RoundDeadline = 30 * time.Second
		coord.SetExpectedVolume(wire.Dialing, batchSize)

		res := modeResult{Name: "no churn (baseline)", KillEvery: killEvery, Rounds: numRounds}
		plan := &sim.ChurnPlan{}
		if killEvery > 0 {
			plan = sim.NewChurnPlan(11, numRounds, killEvery, counts)
			res.Name = fmt.Sprintf("kill a random shard every %d round(s)", killEvery)
			res.Kills, res.Pauses = plan.Kills, plan.Pauses
		}

		benchedAt := make(map[string]int)
		var recoveries []int
		var okDurations []time.Duration
		for r := 1; r <= numRounds; r++ {
			for _, ev := range plan.EventsBefore(r) {
				addr := network.Mixers[ev.Position][ev.Shard].Addr
				if ev.Action != sim.ChurnRestart {
					network.Kill(addr)
				}
				if ev.Action != sim.ChurnKill {
					if err := network.Restart(addr); err != nil {
						log.Fatalf("restarting daemon %d/%d: %v", ev.Position, ev.Shard, err)
					}
				}
			}
			round := uint32(r)
			settings, err := coord.OpenDialingRound(round)
			if err != nil {
				res.FailedRounds++
				continue
			}
			batch, err := sim.GenerateBatch(nil, settings, sim.Workload{Real: batchSize / 20, Cover: batchSize - batchSize/20})
			if err != nil {
				log.Fatal(err)
			}
			for _, onion := range batch {
				if err := network.Entry.Submit(wire.Dialing, round, onion); err != nil {
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
		ms := func(pct int) float64 {
			return float64(percentile(okDurations, pct)) / float64(time.Millisecond)
		}
		res.P50Ms, res.P99Ms = ms(50), ms(99)
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
