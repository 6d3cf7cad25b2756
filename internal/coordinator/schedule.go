package coordinator

// This file is the coordinator's round SCHEDULER: the health-driven
// planning layer that sits between the per-round health records
// (RoundHealth, from mix.round.wait) and the next round's shard-group
// layout. Each round open captures a plan — which daemon serves each
// shard slot, which group member hosts the merge/build-lead role, what
// chunk size and data-plane deadline the round runs with — and each round
// close feeds the observed outcome back into a per-daemon scoreboard:
//
//   - A daemon that crashed, timed out, or failed locally is BENCHED:
//     the next plan replaces it with a hot spare from Spares (same
//     position, same shard slot — pinned members reject a changed group
//     size, so the group never shrinks). A daemon that merely aborted
//     because an upstream failed keeps its seat; the abort-reason codes
//     exist exactly so the scheduler can tell the difference.
//
//   - Every candidate — members, benched daemons, spares — is probed
//     with a short-timeout mix.info at plan time, so a daemon killed
//     BETWEEN rounds is caught before the round is burned, and a benched
//     daemon that restarted is re-admitted without operator action.
//
//   - The merge/build-lead role rotates round-robin across each shard
//     group (PinLead disables it), moving the per-position bandwidth
//     funnel and the mix.deal.* fan-out cost to a different member each
//     round. Rotation never changes the round's output: the permutation
//     is derived from the round key every member holds.
//
//   - The pipeline chunk size adapts (AdaptiveChunk) to the observed
//     round outcomes inside a bounded window around ChunkSize, shrinking
//     after failed or SLO-breaching rounds and recovering geometrically.
//
// The scoreboard is exported read-only (Scoreboard) and served to
// operators over the coordinator.status RPC.

import (
	"fmt"
	"sort"
	"time"

	"alpenhorn/internal/mixnet"
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
// score plus the current adaptive chunk size per service. Served
// read-only over coordinator.status.
type Scoreboard struct {
	Daemons []DaemonScore  `json:"daemons"`
	Chunk   map[string]int `json:"chunk,omitempty"`
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
	// merge/build-lead role this round (rotation; 0 when pinned or a
	// group of one).
	leads []int
	// peers is each position's shard network — the members' dial
	// addresses — sent to the announcer with mix.newround so it can gate
	// mix.round.exportkey to the planned group.
	peers [][]string
	// chunkSize / deadlineMs are the round's data-plane parameters.
	chunkSize  int
	deadlineMs int64
	// drafted lists the spare addresses this plan holds, released when
	// the plan is dropped.
	drafted []string
}

// group returns position i's planned membership.
func (p *roundPlan) group(i int) []Mixer { return p.groups[i] }

// lead returns position i's lead index, clamped for safety.
func (p *roundPlan) lead(i int) int {
	li := p.leads[i]
	if li < 0 || li >= len(p.groups[i]) {
		return 0
	}
	return li
}

// daemonScore is the internal mutable counterpart of DaemonScore,
// guarded by Coordinator.mu.
type daemonScore struct {
	DaemonScore
}

// score returns (creating if needed) addr's scoreboard entry. Caller
// holds c.mu.
func (c *Coordinator) score(addr string) *daemonScore {
	if c.scores == nil {
		c.scores = make(map[string]*daemonScore)
	}
	sc, ok := c.scores[addr]
	if !ok {
		sc = &daemonScore{DaemonScore{Addr: addr, Aborts: make(map[string]uint64)}}
		c.scores[addr] = sc
	}
	return sc
}

// Scoreboard returns a snapshot of the scheduler's per-daemon scores and
// adaptive chunk state, sorted by position/shard/address. The slice and
// maps are copies; callers may keep them.
func (c *Coordinator) Scoreboard() Scoreboard {
	c.mu.Lock()
	defer c.mu.Unlock()
	sb := Scoreboard{}
	for _, sc := range c.scores {
		d := sc.DaemonScore
		d.Aborts = make(map[string]uint64, len(sc.Aborts))
		for k, v := range sc.Aborts {
			d.Aborts[k] = v
		}
		if len(d.Aborts) == 0 {
			d.Aborts = nil
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
	if len(c.chunkNow) > 0 {
		sb.Chunk = make(map[string]int, len(c.chunkNow))
		for svc, n := range c.chunkNow {
			sb.Chunk[fmt.Sprint(svc)] = n
		}
	}
	return sb
}

// baseChunk is the configured pipeline chunk size.
func (c *Coordinator) baseChunk() int {
	if c.ChunkSize > 0 {
		return c.ChunkSize
	}
	return mixnet.DefaultStreamChunk
}

// currentChunk is the chunk size the next round should run with: the
// adaptive value when AdaptiveChunk is on, the configured base otherwise.
func (c *Coordinator) currentChunk(service wire.Service) int {
	base := c.baseChunk()
	if !c.AdaptiveChunk {
		return base
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.chunkNow[service]; ok && n > 0 {
		return n
	}
	return base
}

// chunkWindow bounds the adaptive chunk size to [base/4, base*4] — the
// adaptation reacts to observed throughput but can never run away from
// the operator's configured order of magnitude.
func (c *Coordinator) chunkWindow() (min, max int) {
	base := c.baseChunk()
	min = base / 4
	if min < 1 {
		min = 1
	}
	return min, base * 4
}

// adaptChunk updates the service's chunk size from a closed round's
// outcome: a failed round or one whose slowest daemon breached the
// latency SLO halves the chunk (smaller chunks = finer pipelining and
// cheaper retries under churn); a clean round grows it geometrically
// back toward the window's top. Caller holds c.mu.
func (c *Coordinator) adaptChunk(h RoundHealth) {
	if !c.AdaptiveChunk {
		return
	}
	min, max := c.chunkWindow()
	if c.chunkNow == nil {
		c.chunkNow = make(map[wire.Service]int)
	}
	cur, ok := c.chunkNow[h.Service]
	if !ok || cur <= 0 {
		cur = c.baseChunk()
	}
	slow := h.Err != ""
	if !slow && c.LatencySLO > 0 {
		for _, d := range h.Daemons {
			if d.Stats.Duration > c.LatencySLO {
				slow = true
				break
			}
		}
	}
	if slow {
		cur /= 2
	} else {
		cur += cur/4 + 1
	}
	if cur < min {
		cur = min
	}
	if cur > max {
		cur = max
	}
	c.chunkNow[h.Service] = cur
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

// planRound captures the scheduling decision for (service, round):
// probe every candidate, replace benched members with healthy spares,
// rotate the merge/build-lead role, and fix the round's chunk size and
// deadline. The plan is stored until dropPlan.
func (c *Coordinator) planRound(service wire.Service, round uint32) *roundPlan {
	plan := &roundPlan{
		chunkSize:  c.currentChunk(service),
		deadlineMs: int64(c.RoundDeadline / time.Millisecond),
	}
	for i := range c.Mixers {
		group := append([]Mixer(nil), c.shardGroup(i)...)
		c.patchGroup(service, round, i, group, plan)
		li := 0
		if len(group) > 1 && !c.PinLead {
			li = int(round % uint32(len(group)))
		}
		plan.groups = append(plan.groups, group)
		plan.leads = append(plan.leads, li)
		plan.peers = append(plan.peers, addrs(group))
	}
	c.mu.Lock()
	if c.plans == nil {
		c.plans = make(map[planKey]*roundPlan)
	}
	c.plans[planKey{service, round}] = plan
	if len(plan.drafted) > 0 {
		if c.draftedNow == nil {
			c.draftedNow = make(map[string]int)
		}
		for _, addr := range plan.drafted {
			c.draftedNow[addr]++
		}
	}
	c.mu.Unlock()
	return plan
}

// patchGroup probes position i's members, updates bench state, and
// substitutes drafted spares into benched non-announcer slots, mutating
// group in place.
func (c *Coordinator) patchGroup(service wire.Service, round uint32, pos int, group []Mixer, plan *roundPlan) {
	alive := make([]bool, len(group))
	_ = fanOut(len(group), func(s int) error {
		alive[s] = group[s].Probe() == nil
		return nil
	})
	for s, m := range group {
		addr := m.Addr()
		c.mu.Lock()
		sc := c.score(addr)
		sc.Position, sc.Shard = pos, s
		if alive[s] {
			if sc.Benched && round > sc.BenchedRound+benchCooldownRounds {
				sc.Benched = false
				sc.ConsecutiveFailures = 0
				sc.Readmissions++
				c.mu.Unlock()
				c.logf("scheduler: re-admitting %s (pos %d shard %d) after recovery", addr, pos, s)
				continue
			}
		} else if !sc.Benched {
			sc.Benched = true
			sc.BenchedRound = round
			c.mu.Unlock()
			c.logf("scheduler: benching %s (pos %d shard %d): probe failed at plan time", addr, pos, s)
			c.mu.Lock()
		}
		benched := sc.Benched
		c.mu.Unlock()
		if !benched {
			continue
		}
		if s == 0 {
			// The announcer cannot be substituted: clients pin ITS signing
			// key, so a spare's announcement would never verify. The round
			// runs (and likely fails) with it; the bench stands until it
			// recovers.
			c.logf("scheduler: pos %d announcer %s is benched but irreplaceable; proceeding", pos, addr)
			continue
		}
		if spare := c.draftSpare(pos, plan); spare != nil {
			c.logf("scheduler: drafting spare %s into pos %d shard %d (benched %s)", spare.Addr(), pos, s, addr)
			group[s] = spare
		} else {
			c.logf("scheduler: pos %d shard %d (%s) benched with no spare available; proceeding", pos, s, addr)
		}
	}
}

// draftSpare returns the first healthy, un-drafted spare for position
// pos, marking it drafted in plan, or nil when the pool is exhausted.
func (c *Coordinator) draftSpare(pos int, plan *roundPlan) Mixer {
	if pos >= len(c.Spares) {
		return nil
	}
	for _, spare := range c.Spares[pos] {
		addr := spare.Addr()
		c.mu.Lock()
		inUse := c.draftedNow[addr] > 0
		if !inUse {
			for _, d := range plan.drafted {
				if d == addr {
					inUse = true
					break
				}
			}
		}
		c.mu.Unlock()
		if inUse || spare.Probe() != nil {
			continue
		}
		c.mu.Lock()
		sc := c.score(addr)
		sc.Spare = true
		sc.Position = pos
		c.mu.Unlock()
		plan.drafted = append(plan.drafted, addr)
		return spare
	}
	return nil
}

// planFor returns the plan captured when (service, round) opened, or nil
// for a round this coordinator did not open.
func (c *Coordinator) planFor(service wire.Service, round uint32) *roundPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[planKey{service, round}]
}

// dropPlan forgets (service, round)'s plan and releases its drafted
// spares back to the pool.
func (c *Coordinator) dropPlan(service wire.Service, round uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.plans[planKey{service, round}]
	if !ok {
		return
	}
	delete(c.plans, planKey{service, round})
	for _, addr := range p.drafted {
		if c.draftedNow[addr] > 0 {
			c.draftedNow[addr]--
		}
	}
}
