// Package coordinator drives Alpenhorn's periodic rounds (§3.1).
//
// The paper makes the first mixnet server coordinate rounds; this package
// factors that role into its own type so it can run inside the first
// mixer's process (as in the paper), as a standalone daemon, or — most
// importantly for reproducibility — under direct control of tests and
// benchmarks, which step rounds manually instead of on timers.
//
// The coordinator is a CONTROL PLANE: it announces rounds, distributes
// keys, opens and closes intake, and sequences the chain. The bulk data of
// a round travels on the DATA PLANE, which has one arrangement
// (internal/rpc/forward.go): every chain position is a shard group of one
// or more mixer daemons; each daemon peels its slice, the group's lead
// merges and shuffles once, and pushes the result directly to the next
// position's group; the last group builds the mailboxes, each member its
// own mailbox-ID range, and publishes them straight to the CDN. The entry
// tier feeds the FIRST position: every frontend — the coordinator's own
// entry server, frontend 0, as much as the others — closes its intake and
// in the same call deals its sub-batch into position 0 itself, through the
// same push every mixer uses to feed the next shard set (rpc.EntryReplica;
// the coordinator drives frontend 0's in process). The coordinator moves
// no onion: it exchanges control messages only — round opens, intake
// closes, completion waits, aborts. At paper scale
// (~24k-request mailboxes, millions of onions) this keeps the coordinator
// off the bandwidth-critical path entirely.
//
// # Shard groups
//
// One chain position may be SHARDED across several daemons (Shards); an
// unsharded position is a group of one. The coordinator plans the group
// each round and hands each member its place in it at open. Shard 0 of a
// group is its ANNOUNCER: it generates and announces the position's one
// round key — clients pin ITS signing key, so it is the one member the
// scheduler can never substitute. Every other member pulls the key from
// the announcer inside the group's trust domain (the private key never
// crosses the coordinator). Key export is gated to the round's planned
// shard network: the announcer refuses mix.round.exportkey calls from
// hosts outside the peer list its mix.newround carried, and every other
// daemon refuses them all.
//
// Every member learns its position's planned group and its own slot in it
// at round open (before noise generation, because the group divides the
// position's per-mailbox noise), and the successor position's FULL shard
// set, across which the lead deals its post-shuffle chunks. Aborts fan out
// to every shard of every position. Clients never see any of this: round
// settings carry one key per position either way.
//
// # Self-healing rounds (schedule.go)
//
// The merge/build-lead role — where the position's single full-batch
// shuffle runs, where deposits funnel, and whence the build deal fans out —
// is a ROLE, not a machine: in round r it is slot r % len(group) of each
// group. Rotation never changes a round's output, because the shuffle
// permutation is derived from the round key that every member holds.
//
// Each round is planned against a per-daemon scoreboard built from the
// previous rounds' health: daemons that crashed, stalled past the
// latency SLO, or failed locally are benched and replaced from the
// position's hot-spare pool (Spares) at the same shard slot; every member
// and spare is probed with a short-timeout mix.info each plan, and
// benched daemons are re-admitted once they recover. Abort-reason codes
// from mix.round.wait (slow / crashed / upstream / error) let the
// scheduler distinguish a daemon's own failure from an abort it merely
// echoed. The plan itself is a pure function of the probe results and a
// scoreboard snapshot (decidePlan). RoundDeadline bounds every daemon's
// peer-dial retries so a dead peer costs bounded time, not the round's
// wait timeout.
//
// The coordinator keeps per-round health (Status): wall time, batch
// size, and each daemon's self-reported duration, batch bytes, and abort
// reason from the mix.round.wait long-poll. The scheduler's scoreboard
// (Scoreboard) is served to operators read-only over the
// coordinator.status RPC.
//
// One add-friend round proceeds as:
//
//  1. the scheduler probes every candidate daemon (mix.info) and fixes
//     the round's plan: membership and merge leads;
//  2. every PKG announces a fresh signed IBE master key;
//  3. every position's announcer, slot 0 of its planned group, announces
//     a fresh signed onion key (mix.newround, which also installs its
//     export allowlist: the group's addresses);
//  4. one parallel mix.round.open per planned daemon hands it the plan
//     for its position (the group, the lead's slot, where the output
//     goes), its own slot, the downstream keys and the mailbox count; it
//     works out its role, pulls the key from slot 0 unless it is slot 0,
//     and starts its noise before it answers;
//  5. the coordinator assembles the signed RoundSettings and opens the
//     round at the entry servers; clients submit onions (real or cover),
//     extracting their identity keys from the PKGs as part of submission;
//  6. the coordinator closes intake at every frontend at once, and each
//     deals its sub-batch to the first position, which orders the
//     frontends' streams by upstream index; the last position's daemons
//     publish the mailboxes to the CDN;
//  7. mixers erase their round keys as soon as the chain finishes. PKG
//     master keys are erased as intake closes, beside the frontends'
//     closes and deals: extraction happens strictly during the
//     submission window, so from then on the master keys are dead weight
//     and the erasures overlap the deals and the chain instead of
//     following them.
//
// Dialing rounds are the same minus the PKG steps. An open that fails
// at any step erases every key it created.
package coordinator

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// Mixer is the coordinator's view of one mixer daemon; *rpc.MixerClient
// implements it.
type Mixer interface {
	// Addr is the daemon's RPC address: its predecessors' forwarding
	// target, its group's peer-list entry, its scoreboard key.
	Addr() string
	// Probe is a cheap, short-timeout liveness check; the scheduler
	// probes every candidate at plan time.
	Probe() error
	NoiseMu(service wire.Service) float64

	// NewRound asks a position's announcer for its signed round onion
	// key. peers is the group's planned shard network, the only hosts the
	// announcer serves the round's private key to.
	NewRound(service wire.Service, round uint32, peers []string) (wire.MixerRoundKey, error)
	// OpenRound hands the daemon its whole assignment for the round: the
	// plan for its position and its slot in it. The daemon works out its
	// role, pulls the round key from the group's announcer unless it is
	// the announcer (the private key moves inside the group's trust
	// domain), and starts its noise generation so it runs concurrently
	// with client intake.
	OpenRound(service wire.Service, round uint32, spec wire.RouteSpec) error
	// WaitRound blocks until the daemon's data-plane role in the round
	// completes, returning the daemon's self-reported duration and byte
	// counts, and its error if it failed or was aborted.
	WaitRound(service wire.Service, round uint32) (wire.MixerRoundStats, error)
	// AbortRound discards the daemon's in-flight stream and route,
	// unblocking any waiter; the daemon propagates the abort downstream.
	AbortRound(service wire.Service, round uint32, reason string) error
	CloseRound(service wire.Service, round uint32)
}

// PKG is the coordinator's view of one PKG server. It is satisfied by
// *pkgserver.Server (in-process) and *rpc.PKGClient (remote daemon).
type PKG interface {
	NewRound(round uint32) (wire.PKGRoundKey, error)
	CloseRound(round uint32)
}

// Frontend is the coordinator's view of one entry frontend. Entry is
// frontend 0, driven in process through an *rpc.EntryReplica; every one
// in Frontends is remote, and *rpc.EntryReplicaClient drives it over
// entry.replicate.
//
// The coordinator replays every announcement to every frontend in one
// serialized order, so the frontends' event logs assign identical cursors
// — one cursor namespace for the whole tier, which is what lets a client
// fail over between frontends mid-round without a snapshot reset. Each
// frontend admits its own sub-batch and, when its intake closes, deals it
// into position 0's shard set itself, tagged with its upstream index, so
// no batch crosses the coordinator. A close names only where the sub-batch
// goes: the frontend cuts it into stream chunks itself.
type Frontend interface {
	OpenRound(settings *wire.RoundSettings) error
	AnnouncePublished(service wire.Service, round uint32)
	// CloseIntake closes the frontend's round, deals its sub-batch across
	// position 0's shard set (chunk i to shard i mod N) as upstream
	// feeder `upstream`, and reports the sub-batch size.
	CloseIntake(service wire.Service, round uint32, shards []string, upstream int) (int, error)
}

// Coordinator orchestrates rounds across the servers. It is safe for
// concurrent use, though rounds are typically driven sequentially.
type Coordinator struct {
	Entry  *entry.Server
	Mixers []Mixer
	PKGs   []PKG
	// Deprecated: nothing reads CDN; bench/fleet.go, frozen for this PR, sets it.
	CDN *cdn.Store

	// Frontends lists ADDITIONAL entry frontends; Entry is frontend 0.
	// Every announcement fans out to all of them under one lock (annMu)
	// so their event logs stay cursor-identical, and at round close each
	// frontend's sub-batch joins the chain as its own counted upstream.
	// Frontends must start with the coordinator: the replay carries no
	// history, so a late joiner's cursors would diverge.
	Frontends []Frontend

	// Shards lists ADDITIONAL shard daemons per chain position:
	// position i is served by Mixers[i] (shard 0 — the group's
	// ANNOUNCER, whose pinned signing key clients verify, and the
	// round-key source) plus Shards[i] (shards 1..N-1), in shard-index
	// order. A nil or empty entry leaves the position a group of one. The
	// merge/build-lead ROLE within each group rotates per round: slot
	// round % len(group).
	Shards [][]Mixer

	// Spares lists hot-spare daemons per chain position: unpinned,
	// idle daemons the scheduler drafts into a benched member's exact
	// shard slot for a round (the announcer, slot 0, is never
	// substituted — clients pin its key). A spare returns to the pool
	// when its round's plan is dropped. Positions beyond len(Spares)
	// have no spares.
	Spares [][]Mixer

	// LatencySLO, when set, is the per-daemon round-duration budget: a
	// daemon whose self-reported duration exceeds it is treated as slow,
	// and benched, even if the round succeeded.
	LatencySLO time.Duration

	// RoundDeadline, when set, bounds each daemon's data-plane work per
	// round (wire.RouteSpec.DeadlineMs), counted from the daemon's first
	// mix.stream.begin: peer-dial retries give up once it passes instead
	// of burning the whole round against a dead peer.
	RoundDeadline time.Duration

	// TargetRequestsPerMailbox controls how many requests (real + noise)
	// the coordinator aims to put in one mailbox; the paper sizes
	// add-friend mailboxes at roughly 24,000 requests (§8.2). Tests use
	// small values.
	TargetRequestsPerMailbox int

	// Deprecated: nothing reads PairingV2; bench/fleet.go, frozen for this PR, sets it.
	PairingV2 bool

	// Deprecated: nothing reads ChainForward; bench/fleet.go, frozen for this PR, sets it.
	ChainForward bool

	// CDNAddr is the RPC address serving cdn.publish, where the last
	// position's daemons publish the round's mailboxes. Required.
	CDNAddr string

	// Logger, when set, gets one round-health line per closed round.
	Logger *log.Logger

	// ExpectedVolume estimates the next round's request count for
	// mailbox sizing. Updated from each observed batch.
	mu             sync.Mutex
	expectedVolume map[wire.Service]int
	health         []RoundHealth

	// Scheduler state (schedule.go), guarded by mu: the plans of the open
	// rounds, which hold their drafted spares, and the per-daemon
	// scoreboard.
	plans  map[planKey]*roundPlan
	scores map[string]*DaemonScore

	// annMu serializes announcement fan-out across the frontend tier.
	// Concurrent round opens (the add-friend and dialing timers tick
	// independently) must reach every frontend's log in the SAME order,
	// or the replicas' cursors diverge and failover breaks.
	annMu sync.Mutex

	// entry is Entry's intake, made at first use (under mu), which the
	// coordinator drives in process as frontend 0.
	entry *rpc.EntryReplica
}

// defaultHealthRing bounds how many recent rounds Status retains — sized
// so the coordinator.status surface can show meaningful failure-rate
// history, not just the last burst.
const defaultHealthRing = 64

// DaemonRoundStats is one daemon's outcome in a closed round, built from
// its mix.round.wait reply.
type DaemonRoundStats struct {
	Position int
	Shard    int
	Addr     string
	Stats    wire.MixerRoundStats
	Err      string
}

// RoundHealth is the coordinator's record of one closed round: overall
// wall time plus each daemon's self-reported duration and batch bytes.
// The scheduler seed for skipping or replacing a flapping daemon.
type RoundHealth struct {
	Service  wire.Service
	Round    uint32
	Batch    int
	Duration time.Duration
	Daemons  []DaemonRoundStats
	Err      string
}

// String renders the health record as the coordinator's per-round log line.
func (h RoundHealth) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v round %d: batch=%d duration=%s", h.Service, h.Round, h.Batch, h.Duration.Round(time.Millisecond))
	if h.Err != "" {
		fmt.Fprintf(&b, " err=%q", h.Err)
	}
	for _, d := range h.Daemons {
		fmt.Fprintf(&b, " pos%d/s%d=%s/%dKB-in/%dKB-out",
			d.Position, d.Shard, d.Stats.Duration.Round(time.Millisecond),
			d.Stats.BytesIn/1024, d.Stats.BytesOut/1024)
		if d.Err != "" {
			fmt.Fprintf(&b, "(err=%q)", d.Err)
		}
	}
	return b.String()
}

// Status returns the health records of recent rounds, newest last. The
// slice is a copy; callers may keep it.
func (c *Coordinator) Status() []RoundHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoundHealth, len(c.health))
	copy(out, c.health)
	return out
}

// recordHealth appends a round's health to the bounded ring, folds the
// per-daemon outcomes into the scheduler's scoreboard, and emits the
// per-round log line.
func (c *Coordinator) recordHealth(h RoundHealth) {
	c.mu.Lock()
	c.health = append(c.health, h)
	if len(c.health) > defaultHealthRing {
		c.health = c.health[len(c.health)-defaultHealthRing:]
	}
	c.updateScoreboard(h)
	c.mu.Unlock()
	if c.Logger != nil {
		c.Logger.Printf("round health: %s", h)
	}
}

// SetExpectedVolume seeds the mailbox-count heuristic (e.g. from the
// previous round's batch size).
func (c *Coordinator) SetExpectedVolume(service wire.Service, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expectedVolume == nil {
		c.expectedVolume = make(map[wire.Service]int)
	}
	c.expectedVolume[service] = n
}

// numMailboxes picks K: enough mailboxes that each holds roughly
// TargetRequestsPerMailbox requests, counting per-mailbox noise from every
// mixer. The paper's balance point puts "a roughly equal amount of noise
// and real requests in each mailbox" (§6).
func (c *Coordinator) numMailboxes(service wire.Service) uint32 {
	c.mu.Lock()
	expected := c.expectedVolume[service]
	c.mu.Unlock()

	perMailboxNoise := 0.0
	for _, m := range c.Mixers {
		perMailboxNoise += m.NoiseMu(service)
	}
	target := float64(c.TargetRequestsPerMailbox)
	realPerMailbox := target - perMailboxNoise
	if realPerMailbox <= 0 {
		// Noise alone exceeds the target: use one mailbox.
		return 1
	}
	k := uint32(float64(expected) / realPerMailbox)
	if k < 1 {
		k = 1
	}
	return k
}

// fanOut runs fn(0), …, fn(n-1) on their own goroutines and returns the
// first error. Against remote daemons each call is a network round trip,
// so key announcements and erasures fan out instead of serializing.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// frontends returns every frontend in upstream order: Entry's intake,
// then Frontends.
func (c *Coordinator) frontends() []Frontend {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entry == nil {
		c.entry = rpc.NewEntryReplica(c.Entry)
	}
	return append([]Frontend{c.entry}, c.Frontends...)
}

// announceOpen opens the round on every frontend, holding annMu so that
// concurrently opening rounds cannot interleave differently in different
// replicas' logs. A replica that cannot take the open fails the round:
// proceeding would fork the cursor namespace, which breaks failover far
// more subtly than a skipped round does.
func (c *Coordinator) announceOpen(settings *wire.RoundSettings) error {
	c.annMu.Lock()
	defer c.annMu.Unlock()
	for i, f := range c.frontends() {
		if err := f.OpenRound(settings); err != nil {
			return fmt.Errorf("coordinator: frontend %d open: %w", i, err)
		}
	}
	return nil
}

// announcePublished replays the publish announcement to every frontend,
// under the same ordering lock as opens.
func (c *Coordinator) announcePublished(service wire.Service, round uint32) {
	c.annMu.Lock()
	defer c.annMu.Unlock()
	for _, f := range c.frontends() {
		f.AnnouncePublished(service, round)
	}
}

// OpenAddFriendRound performs steps 1-5: key announcements and settings.
func (c *Coordinator) OpenAddFriendRound(round uint32) (*wire.RoundSettings, error) {
	return c.openRound(wire.AddFriend, round)
}

// OpenDialingRound announces a dialing round.
func (c *Coordinator) OpenDialingRound(round uint32) (*wire.RoundSettings, error) {
	return c.openRound(wire.Dialing, round)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logger != nil {
		c.Logger.Printf(format, args...)
	}
}

// shardGroup returns position i's CONFIGURED shard set: Mixers[i] (the
// announcer, shard 0) plus Shards[i]. The scheduler's plan may
// substitute spares into slots 1..N-1 for a given round.
func (c *Coordinator) shardGroup(i int) []Mixer {
	group := []Mixer{c.Mixers[i]}
	if i < len(c.Shards) {
		group = append(group, c.Shards[i]...)
	}
	return group
}

func (c *Coordinator) openRound(service wire.Service, round uint32) (_ *wire.RoundSettings, err error) {
	if len(c.Mixers) == 0 || c.CDNAddr == "" {
		return nil, fmt.Errorf("coordinator: a round needs at least one mixer and a CDN publish address")
	}
	settings := &wire.RoundSettings{
		Service:      service,
		Round:        round,
		NumMailboxes: c.numMailboxes(service),
	}
	// The scheduler plans the round FIRST: it probes every candidate,
	// drafts spares into benched slots, and rotates the merge role, so a
	// daemon killed between rounds is caught here rather than burning the
	// round mid-chain. The plan is fixed for the round's whole life —
	// CloseRound reuses it verbatim.
	plan := c.planRound(service, round)
	defer func() {
		if err != nil {
			// A round that never opens must not leave keys behind: the
			// announcers' onion keys, the PKGs' master keys, and whatever
			// routes and noise the opens that succeeded installed.
			c.closeMixerRounds(service, round, plan)
			if service == wire.AddFriend {
				c.FinishAddFriendRound(round)
			}
			c.dropPlan(service, round)
		}
	}()
	if service == wire.AddFriend {
		settings.PKGs = make([]wire.PKGRoundKey, len(c.PKGs))
		err := fanOut(len(c.PKGs), func(i int) error {
			rk, err := c.PKGs[i].NewRound(round)
			if err != nil {
				return fmt.Errorf("coordinator: PKG %d: %w", i, err)
			}
			settings.PKGs[i] = rk
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := c.openMixRound(settings, plan); err != nil {
		return nil, err
	}
	if err := c.announceOpen(settings); err != nil {
		return nil, err
	}
	return settings, nil
}

// openMixRound has the announcers announce the round keys, then opens the
// round on every planned daemon at once.
func (c *Coordinator) openMixRound(settings *wire.RoundSettings, plan *roundPlan) error {
	service, round := settings.Service, settings.Round
	// The position ANNOUNCERS announce the round keys: clients wrap one
	// onion layer per position, so a shard group shares one key,
	// generated by its announcer (slot 0, whose signing key clients pin)
	// and announced once. The settings are identical whether or not any
	// position is sharded — sharding, spares, and rotation are all
	// invisible to clients. Each announcer installs its group's export
	// allowlist before it answers, so no member's open can race it.
	keys := make([][]byte, len(c.Mixers))
	settings.Mixers = make([]wire.MixerRoundKey, len(c.Mixers))
	err := fanOut(len(c.Mixers), func(i int) error {
		rk, err := c.Mixers[i].NewRound(service, round, addrs(plan.groups[i]))
		if err != nil {
			return fmt.Errorf("coordinator: mixer %d: %w", i, err)
		}
		settings.Mixers[i] = rk
		keys[i] = rk.OnionKey
		return nil
	})
	if err != nil {
		return err
	}
	// One call per daemon, all at once, each with its position's plan —
	// the group, the rotated lead's slot, the next position's FULL shard
	// set or the CDN — and its own slot; the daemon works out its role.
	// The onion keys of the POSITIONS after it let every daemon make its
	// noise concurrently with client intake.
	last := len(plan.groups) - 1
	return fanOut(len(plan.groups), func(i int) error {
		group := plan.groups[i]
		route := wire.RouteSpec{
			NumMailboxes:   settings.NumMailboxes,
			Group:          addrs(group),
			Lead:           plan.leads[i],
			DownstreamKeys: keys[i+1:],
			NumUpstream:    1,
			DeadlineMs:     plan.deadlineMs,
		}
		if i == 0 {
			// Position 0 is fed by every frontend: its intake stays open
			// until all of them have sent their upstream-tagged end.
			route.NumUpstream = 1 + len(c.Frontends)
		}
		if i == last {
			route.CDNAddr = c.CDNAddr
		} else {
			route.Successors = addrs(plan.groups[i+1])
		}
		return fanOut(len(group), func(s int) error {
			spec := route
			spec.ShardIndex = s
			if err := group[s].OpenRound(service, round, spec); err != nil {
				return fmt.Errorf("coordinator: opening mixer %d/%d: %w", i, s, err)
			}
			return nil
		})
	})
}

// CloseRound performs steps 6-7 for either service: close intake, run the
// data plane, and erase round keys. Only a round this coordinator opened
// can close: its daemons were routed at open.
//
// For add-friend rounds the PKG master keys are erased CONCURRENTLY with
// the intake closes and the mix chain: clients extract identity keys
// strictly while submitting, so the erasures start with the closes
// instead of following the frontends' deals or the publish
// (FinishAddFriendRound remains as an explicit, idempotent hook for
// drivers that want a later erasure point).
//
// The mailboxes never pass through the coordinator: the last position's
// daemons publish them to the CDN at CDNAddr, and clients (and tests)
// fetch them from there.
//
// Deprecated: the first result is always nil; bench/round.go, frozen for
// this PR, reads two results.
func (c *Coordinator) CloseRound(service wire.Service, round uint32) (map[uint32][]byte, error) {
	start := time.Now()
	// The round runs with the plan captured at open — membership, merge
	// leads and deadline are fixed for the round's life.
	plan := c.planFor(service, round)
	if plan == nil {
		return nil, fmt.Errorf("coordinator: round %d (%s) was not opened by this coordinator", round, service)
	}
	defer c.dropPlan(service, round)
	// Once intake closes, the mixers' round keys die with the round
	// whether it succeeds or fails — a failed round is never retried (the
	// next round carries the traffic), and keys that outlive their round
	// are a forward-secrecy hazard.
	defer c.closeMixerRounds(service, round, plan)

	// Intake closes now, so the PKG master keys die beside the closes: a
	// close includes the frontend's whole deal into position 0, and a
	// client extracts before it submits, so one still extracting at this
	// instant would miss the round either way.
	pkgErased := make(chan struct{})
	if service == wire.AddFriend {
		go func() {
			defer close(pkgErased)
			c.FinishAddFriendRound(round)
		}()
	} else {
		close(pkgErased)
	}
	defer func() { <-pkgErased }()

	// Close every frontend's intake at once; each deals its sub-batch into
	// position 0 itself, whose intake orders the frontends' streams by
	// upstream index whenever they arrive. A failed close fails the round
	// but stops no other: every intake that can close does, so no
	// frontend keeps taking onions for a round that will never mix.
	frontends := c.frontends()
	first := addrs(plan.groups[0])
	sizes := make([]int, len(frontends))
	err := fanOut(len(frontends), func(k int) (err error) {
		sizes[k], err = frontends[k].CloseIntake(service, round, first, k)
		if err != nil {
			return fmt.Errorf("coordinator: frontend %d close: %w", k, err)
		}
		return nil
	})
	total := 0
	for _, n := range sizes {
		total += n
	}
	if err == nil {
		c.SetExpectedVolume(service, total)
	}

	daemons, err := c.runRound(service, round, plan, err)
	h := RoundHealth{
		Service: service, Round: round, Batch: total,
		Duration: time.Since(start), Daemons: daemons,
	}
	if err != nil {
		h.Err = err.Error()
	}
	c.recordHealth(h)
	if err != nil {
		return nil, err
	}
	// The last position published straight to the CDN; tell the entry
	// servers so subscribers and entry.events watchers learn the round's
	// mailboxes are available.
	c.announcePublished(service, round)
	return nil, nil
}

// closeMixerRounds erases the round key on every PLANNED member of every
// position (drafted spares included), fanning the calls out (each is a
// network round trip against daemons). Erasure failures are the daemons'
// problem — CloseRound is fire-and-forget.
func (c *Coordinator) closeMixerRounds(service wire.Service, round uint32, plan *roundPlan) {
	_ = fanOut(len(c.Mixers), func(i int) error {
		for _, m := range plan.groups[i] {
			m.CloseRound(service, round)
		}
		return nil
	})
}

// addrs returns a group's dial addresses, in shard order.
func addrs(group []Mixer) []string {
	out := make([]string, len(group))
	for s, m := range group {
		out[s] = m.Addr()
	}
	return out
}

// runRound waits on every daemon's completion of the round the frontends'
// closes fed, or, when a close failed (closeErr), aborts it at once. On
// the first failure the round is aborted on every shard of every position
// — daemons also propagate aborts down the chain and across their groups
// themselves, so a mid-chain death cannot wedge its successors.
//
// The returned per-daemon stats (from mix.round.wait) feed the round
// health record even when the round fails.
func (c *Coordinator) runRound(service wire.Service, round uint32, plan *roundPlan, closeErr error) ([]DaemonRoundStats, error) {
	var daemons []DaemonRoundStats
	var mixers []Mixer
	for i, group := range plan.groups {
		for s, m := range group {
			daemons = append(daemons, DaemonRoundStats{Position: i, Shard: s, Addr: m.Addr()})
			mixers = append(mixers, m)
		}
	}
	abortAll := func(reason error) {
		_ = fanOut(len(mixers), func(i int) error {
			return mixers[i].AbortRound(service, round, reason.Error())
		})
	}
	if closeErr != nil {
		// Other frontends may have fed position 0 already.
		abortAll(closeErr)
		return nil, closeErr
	}

	errs := make([]error, len(mixers))
	var abortOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(len(mixers))
	for i := range mixers {
		go func(i int) {
			defer wg.Done()
			d := &daemons[i]
			var err error
			d.Stats, err = mixers[i].WaitRound(service, round)
			if err != nil {
				d.Err = err.Error()
				errs[i] = err
				// First failure: abort everywhere, which releases every
				// other daemon's waiter too.
				abortOnce.Do(func() {
					abortAll(fmt.Errorf("mixer %d/%d: %v", d.Position, d.Shard, err))
				})
			}
		}(i)
	}
	wg.Wait()

	// Prefer a root-cause error over propagated "aborted:" echoes.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("coordinator: mixer %d/%d: %w", daemons[i].Position, daemons[i].Shard, err)
		if firstErr == nil {
			firstErr = wrapped
		}
		if !strings.HasPrefix(err.Error(), "aborted:") {
			return daemons, wrapped
		}
	}
	return daemons, firstErr
}

// FinishAddFriendRound erases every PKG's master secret for the round
// (§4.4: "after a preconfigured amount of time or after all users have
// obtained their private keys"). CloseRound already runs this concurrently
// with the mix chain — all extractions happen inside the submission window
// — so calling it again is an idempotent no-op; it remains exported for
// drivers that open rounds without closing them. The erasures fan out:
// against remote PKG daemons each is a network round trip.
func (c *Coordinator) FinishAddFriendRound(round uint32) {
	_ = fanOut(len(c.PKGs), func(i int) error {
		c.PKGs[i].CloseRound(round)
		return nil
	})
}
