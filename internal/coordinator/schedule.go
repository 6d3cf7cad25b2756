package coordinator

// This file is the coordinator's round SCHEDULER: the health-driven
// planning layer that sits between the per-round health records
// (RoundHealth, from mix.round.wait) and the next round's shard-group
// layout. Each round open captures a plan — which daemon serves each
// shard slot and which group member hosts the merge/build-lead role — and
// each round close feeds the observed outcome back into a per-daemon
// scoreboard.
//
// A plan is made in two steps. planRound first probes every candidate of
// every position, members and spares alike, in one concurrent fan-out of
// short-timeout mix.info calls, so a daemon killed BETWEEN rounds is
// caught before the round is burned. Then, under one hold of the
// coordinator's lock, it snapshots the scoreboard and the spares that open
// plans hold, and calls decidePlan: a pure function of those inputs and
// the probe results that returns the plan, the score transitions and the
// lines to log. The transitions and the plan are committed under the same
// hold, so two rounds opening at once (the add-friend and dialing timers
// tick independently) can never draft the same spare.
//
// The decision:
//
//   - A daemon that crashed, timed out, or failed locally in a closed
//     round, or fails its plan-time probe, is BENCHED: the plan replaces
//     it with the first healthy spare of its position that no open plan
//     holds, at the same shard slot (pinned members reject a changed
//     group size, so the group never shrinks). A daemon that merely
//     aborted because an upstream failed keeps its seat; the abort-reason
//     codes exist exactly so the scheduler can tell the difference.
//
//   - A benched daemon that probes healthy again is re-admitted without
//     operator action once its cooldown has passed.
//
//   - The merge/build-lead role of each shard group is slot
//     round % len(group), moving the per-position bandwidth funnel and
//     the build deal's fan-out cost to a different member each round.
//
// A round's data-plane deadline (RoundDeadline) is the configured one.
// The scoreboard is served read-only over the coordinator.status RPC.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"alpenhorn/internal/wire"
)

// benchCooldownRounds is how many rounds a benched daemon sits out after
// its bench round even once it probes healthy again: re-admission needs
// both a successful probe AND a round of distance from the failure, so a
// daemon that is alive but keeps failing rounds (misbehaving rather than
// crashed) cannot flap back in on the very next plan.
const benchCooldownRounds = 1

// DaemonScore is one daemon's scheduling scoreboard entry: smoothed
// performance (EWMA duration and throughput), failure accounting by
// abort reason, and its current bench state. Snapshot type — Scoreboard
// returns copies.
type DaemonScore struct {
	Addr     string `json:"addr"`
	Position int    `json:"position"`
	Shard    int    `json:"shard"`
	// Spare marks a hot-spare daemon (drafted into benched slots) rather
	// than a configured group member.
	Spare bool `json:"spare,omitempty"`

	Rounds   uint64 `json:"rounds"`
	Failures uint64 `json:"failures"`
	// Aborts counts round failures by wire.Abort* reason code, which is
	// what lets the scheduler (and an operator reading coordinator.status)
	// tell a slow daemon from a crashed or misbehaving one.
	Aborts map[string]uint64 `json:"aborts,omitempty"`

	// EWMADurationMs / EWMAThroughputKBs smooth the daemon's self-reported
	// per-round duration and batch throughput (alpha = scoreAlpha).
	EWMADurationMs    float64 `json:"ewma_duration_ms"`
	EWMAThroughputKBs float64 `json:"ewma_throughput_kbs"`

	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	Benched             bool   `json:"benched,omitempty"`
	BenchedRound        uint32 `json:"benched_round,omitempty"`
	Readmissions        uint64 `json:"readmissions,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// Scoreboard is the scheduler's exported state: every known daemon's
// score. Served read-only over coordinator.status.
type Scoreboard struct {
	Daemons []DaemonScore `json:"daemons"`
}

// scoreAlpha is the EWMA smoothing factor for duration/throughput.
const scoreAlpha = 0.3

// planKey identifies one open round's plan.
type planKey struct {
	service wire.Service
	round   uint32
}

// roundPlan is the scheduling decision for one round, captured at open
// and reused verbatim at close so benching between open and close can
// never split a round across two layouts.
type roundPlan struct {
	// groups is the round's actual membership per position: the
	// configured shard group with benched slots replaced by drafted
	// spares. Slot 0 is always the position's announcer (clients pin its
	// key), so it is never substituted.
	groups [][]Mixer
	// leads is the index WITHIN each group of the member hosting the
	// merge/build-lead role this round: round % len(group).
	leads []int
	// deadlineMs is the round's data-plane deadline (RoundDeadline).
	deadlineMs int64
	// drafted lists the spare addresses this plan holds, released when
	// the plan is dropped.
	drafted []string
}

// score returns (creating if needed) addr's scoreboard entry. Caller
// holds c.mu.
func (c *Coordinator) score(addr string) *DaemonScore {
	if c.scores == nil {
		c.scores = make(map[string]*DaemonScore)
	}
	sc, ok := c.scores[addr]
	if !ok {
		sc = &DaemonScore{Addr: addr, Aborts: make(map[string]uint64)}
		c.scores[addr] = sc
	}
	return sc
}

// Scoreboard returns a snapshot of the scheduler's per-daemon scores,
// sorted by position/shard/address. The slice and maps are copies;
// callers may keep them.
func (c *Coordinator) Scoreboard() Scoreboard {
	c.mu.Lock()
	defer c.mu.Unlock()
	sb := Scoreboard{}
	for _, sc := range c.scores {
		d := *sc
		d.Aborts = nil
		if len(sc.Aborts) > 0 {
			d.Aborts = maps.Clone(sc.Aborts)
		}
		sb.Daemons = append(sb.Daemons, d)
	}
	sort.Slice(sb.Daemons, func(i, j int) bool {
		a, b := sb.Daemons[i], sb.Daemons[j]
		if a.Position != b.Position {
			return a.Position < b.Position
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Addr < b.Addr
	})
	return sb
}

// benchReason classifies one daemon's round outcome for the scheduler:
// "" means the outcome does not warrant a bench (success, or an abort
// propagated from ANOTHER daemon's failure), anything else is the
// wire.Abort* code to charge the daemon with.
func benchReason(d DaemonRoundStats, slo time.Duration) string {
	if d.Err == "" {
		if slo > 0 && d.Stats.Duration > slo {
			return wire.AbortSlow
		}
		return ""
	}
	reason := d.Stats.AbortReason
	if reason == "" {
		// The daemon never reported: the coordinator's own wait failed,
		// which means the daemon itself is unreachable.
		reason = wire.AbortCrashed
	}
	if reason == wire.AbortUpstream {
		return ""
	}
	return reason
}

// updateScoreboard folds one closed round's per-daemon stats into the
// scheduler's scores, benching daemons whose failure was their own.
// Caller holds c.mu.
func (c *Coordinator) updateScoreboard(h RoundHealth) {
	for _, d := range h.Daemons {
		sc := c.score(d.Addr)
		sc.Position, sc.Shard = d.Position, d.Shard
		sc.Rounds++
		reason := benchReason(d, c.LatencySLO)
		if d.Err == "" {
			sc.LastError = ""
			if reason == "" {
				sc.ConsecutiveFailures = 0
				durMs := float64(d.Stats.Duration) / float64(time.Millisecond)
				sc.EWMADurationMs = ewma(sc.EWMADurationMs, durMs)
				if d.Stats.Duration > 0 {
					kbs := float64(d.Stats.BytesIn+d.Stats.BytesOut) / 1024 / d.Stats.Duration.Seconds()
					sc.EWMAThroughputKBs = ewma(sc.EWMAThroughputKBs, kbs)
				}
				continue
			}
		} else {
			sc.LastError = d.Err
		}
		// Tally by the daemon's reported wire code (falling back to the
		// bench classification for daemons that never reported), so an
		// operator reading the scoreboard sees upstream aborts as such.
		code := d.Stats.AbortReason
		if code == "" {
			code = reason
		}
		sc.Aborts[code]++
		if reason == "" {
			// Upstream abort: not this daemon's fault, seat kept.
			continue
		}
		sc.Failures++
		sc.ConsecutiveFailures++
		if !sc.Benched {
			sc.Benched = true
			sc.BenchedRound = h.Round
			c.logf("scheduler: benching %s (pos %d shard %d): %s: %s",
				d.Addr, d.Position, d.Shard, reason, d.Err)
		}
	}
}

func ewma(prev, sample float64) float64 {
	if prev == 0 {
		return sample
	}
	return prev*(1-scoreAlpha) + sample*scoreAlpha
}

// planInput is everything one plan decision reads.
type planInput struct {
	round          uint32
	groups, spares [][]Mixer              // per position; groups as configured, announcer first
	scores         map[string]DaemonScore // scoreboard snapshot
	held           map[string]bool        // spares that open plans hold
	alive          map[string]bool        // plan-time probe results, by address
}

// scoreOp is a scoreboard transition a plan decides.
type scoreOp int

const (
	opBench scoreOp = iota + 1
	opReadmit
	opDraft
)

// scoreChange applies op to the daemon at addr, seated at (or drafted
// into) shard slot shard of position pos.
type scoreChange struct {
	op         scoreOp
	addr       string
	pos, shard int
}

// decidePlan is the scheduling decision for one round: it benches the
// members that failed their probe, re-admits benched members that probe
// healthy past their cooldown, drafts a spare into every benched slot but
// the announcer's, and rotates the merge/build lead. It reads nothing but
// its input, so equal inputs give equal plans. The plan's deadlineMs is
// left for the caller.
func decidePlan(in planInput) (plan *roundPlan, changes []scoreChange, logs []string) {
	plan = &roundPlan{}
	note := func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	for pos, configured := range in.groups {
		group := append([]Mixer(nil), configured...)
		for s, m := range configured {
			addr := m.Addr()
			sc := in.scores[addr]
			benched := sc.Benched
			switch {
			case in.alive[addr] && benched && in.round > sc.BenchedRound+benchCooldownRounds:
				benched = false
				changes = append(changes, scoreChange{opReadmit, addr, pos, s})
				note("re-admitting %s (pos %d shard %d) after recovery", addr, pos, s)
			case !in.alive[addr] && !benched:
				benched = true
				changes = append(changes, scoreChange{opBench, addr, pos, s})
				note("benching %s (pos %d shard %d): probe failed at plan time", addr, pos, s)
			}
			if !benched {
				continue
			}
			if s == 0 {
				// The announcer cannot be substituted: clients pin ITS
				// signing key, so a spare's announcement would never
				// verify. The round runs (and likely fails) with it; the
				// bench stands until it recovers.
				note("pos %d announcer %s is benched but irreplaceable; proceeding", pos, addr)
				continue
			}
			spare := draftSpare(in, pos, plan.drafted)
			if spare == nil {
				note("pos %d shard %d (%s) benched with no spare available; proceeding", pos, s, addr)
				continue
			}
			group[s] = spare
			plan.drafted = append(plan.drafted, spare.Addr())
			changes = append(changes, scoreChange{opDraft, spare.Addr(), pos, s})
			note("drafting spare %s into pos %d shard %d (benched %s)", spare.Addr(), pos, s, addr)
		}
		plan.groups = append(plan.groups, group)
		plan.leads = append(plan.leads, int(in.round%uint32(len(group))))
	}
	return plan, changes, logs
}

// draftSpare returns position pos's first spare that probed healthy and
// that neither an open plan nor this one (drafted) holds, or nil.
func draftSpare(in planInput, pos int, drafted []string) Mixer {
	if pos >= len(in.spares) {
		return nil
	}
	for _, spare := range in.spares[pos] {
		addr := spare.Addr()
		if in.alive[addr] && !in.held[addr] && !slices.Contains(drafted, addr) {
			return spare
		}
	}
	return nil
}

// planRound captures the scheduling decision for (service, round): it
// probes every candidate, then snapshots the scoreboard, decides, commits
// the score transitions and the plan under one hold of c.mu, and logs the
// decisions. The plan is stored until dropPlan.
func (c *Coordinator) planRound(service wire.Service, round uint32) *roundPlan {
	in := planInput{round: round, spares: c.Spares}
	var candidates []Mixer
	for i := range c.Mixers {
		in.groups = append(in.groups, c.shardGroup(i))
		candidates = append(candidates, in.groups[i]...)
		if i < len(c.Spares) {
			candidates = append(candidates, c.Spares[i]...)
		}
	}
	up := make([]bool, len(candidates))
	_ = fanOut(len(candidates), func(i int) error {
		up[i] = candidates[i].Probe() == nil
		return nil
	})
	in.alive = make(map[string]bool, len(candidates))
	for i, m := range candidates {
		in.alive[m.Addr()] = up[i]
	}

	c.mu.Lock()
	in.scores = make(map[string]DaemonScore, len(c.scores))
	for addr, sc := range c.scores {
		in.scores[addr] = *sc
	}
	in.held = make(map[string]bool)
	for _, p := range c.plans {
		for _, addr := range p.drafted {
			in.held[addr] = true
		}
	}
	plan, changes, logs := decidePlan(in)
	plan.deadlineMs = int64(c.RoundDeadline / time.Millisecond)
	for _, ch := range changes {
		sc := c.score(ch.addr)
		sc.Position, sc.Shard = ch.pos, ch.shard
		switch ch.op {
		case opBench:
			sc.Benched, sc.BenchedRound = true, round
		case opReadmit:
			sc.Benched, sc.ConsecutiveFailures = false, 0
			sc.Readmissions++
		case opDraft:
			sc.Spare = true
		}
	}
	if c.plans == nil {
		c.plans = make(map[planKey]*roundPlan)
	}
	c.plans[planKey{service, round}] = plan
	c.mu.Unlock()

	for _, line := range logs {
		c.logf("scheduler: %v round %d: %s", service, round, line)
	}
	return plan
}

// planFor returns the plan captured when (service, round) opened, or nil
// for a round this coordinator did not open.
func (c *Coordinator) planFor(service wire.Service, round uint32) *roundPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[planKey{service, round}]
}

// dropPlan forgets (service, round)'s plan, which returns its drafted
// spares to the pool.
func (c *Coordinator) dropPlan(service wire.Service, round uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.plans, planKey{service, round})
}
