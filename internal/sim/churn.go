package sim

import (
	mathrand "math/rand"
)

// This file is the churn-injection harness: a deterministic, seeded
// schedule of daemon failures for multi-round availability experiments.
// The plan is pure data — WHICH daemon dies, pauses, or comes back before
// WHICH round — that the rpc round tests and alpenhorn-bench -exp churn
// replay with Network.Kill and Network.Restart on either transport.

// ChurnAction is one kind of injected failure.
type ChurnAction int

const (
	// ChurnKill takes the daemon's RPC listener down: peers and the
	// coordinator get transport errors until a ChurnRestart.
	ChurnKill ChurnAction = iota
	// ChurnRestart brings a killed daemon back on its old address.
	ChurnRestart
	// ChurnPause takes the daemon down and brings it back within the
	// same inter-round gap — a GC stall or network blip rather than a
	// crash; the scheduler should see a failed probe at worst.
	ChurnPause
)

func (a ChurnAction) String() string {
	switch a {
	case ChurnKill:
		return "kill"
	case ChurnRestart:
		return "restart"
	case ChurnPause:
		return "pause"
	default:
		return "unknown"
	}
}

// ChurnEvent is one scheduled failure: apply Action to the daemon at
// (Position, Shard) before planning round Round. Victims are always
// non-announcer shards (Shard >= 1): the announcer's signing key is
// pinned by clients, so no scheduler could route around its death, and
// the experiment measures self-healing, not key ceremony.
type ChurnEvent struct {
	Round    int
	Position int
	Shard    int
	Action   ChurnAction
}

// ChurnPlan is a deterministic failure schedule over a shard fleet.
type ChurnPlan struct {
	Events []ChurnEvent
	// Kills and Pauses count the scheduled disruptions (restarts excluded).
	Kills  int
	Pauses int
}

// NewChurnPlan builds a seeded failure schedule for `rounds` consecutive
// rounds over a fleet with counts[i] daemons at position i. Every
// killEvery-th round (starting at round 1) one randomly chosen
// non-announcer shard is disrupted before the round opens — usually
// killed and restarted before the round after next, occasionally only
// paused — so consecutive rounds see daemons die, stay dead for a full
// round, and return. Positions with a single daemon are never victims.
func NewChurnPlan(seed int64, rounds, killEvery int, counts []int) *ChurnPlan {
	if killEvery < 1 {
		killEvery = 1
	}
	rng := mathrand.New(mathrand.NewSource(seed))
	var candidates [][2]int
	for pos, n := range counts {
		for s := 1; s < n; s++ {
			candidates = append(candidates, [2]int{pos, s})
		}
	}
	plan := &ChurnPlan{}
	if len(candidates) == 0 {
		return plan
	}
	for r := 1; r <= rounds; r++ {
		if (r-1)%killEvery != 0 {
			continue
		}
		victim := candidates[rng.Intn(len(candidates))]
		if rng.Intn(4) == 0 {
			plan.Events = append(plan.Events, ChurnEvent{
				Round: r, Position: victim[0], Shard: victim[1], Action: ChurnPause,
			})
			plan.Pauses++
			continue
		}
		plan.Events = append(plan.Events, ChurnEvent{
			Round: r, Position: victim[0], Shard: victim[1], Action: ChurnKill,
		})
		plan.Kills++
		// The daemon stays dead through round r (the scheduler must
		// bench it and draft a spare) and returns before round r+1, so
		// re-admission is exercised on every kill.
		if r+1 <= rounds {
			plan.Events = append(plan.Events, ChurnEvent{
				Round: r + 1, Position: victim[0], Shard: victim[1], Action: ChurnRestart,
			})
		}
	}
	return plan
}

// EventsBefore returns the events to apply before planning `round`, in
// schedule order.
func (p *ChurnPlan) EventsBefore(round int) []ChurnEvent {
	var out []ChurnEvent
	for _, ev := range p.Events {
		if ev.Round == round {
			out = append(out, ev)
		}
	}
	return out
}
