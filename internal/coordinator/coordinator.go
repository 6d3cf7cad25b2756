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
// own mailbox-ID range, and publishes them straight to the CDN. The
// coordinator streams its own entry server's batch to the FIRST position
// (other frontends feed theirs themselves) and then exchanges control
// messages — route announcements, completion waits, aborts. At paper scale
// (~24k-request mailboxes, millions of onions) this keeps the coordinator
// off the bandwidth-critical path entirely.
//
// # Shard groups
//
// One chain position may be SHARDED across several daemons (Shards); an
// unsharded position is a group of one. The coordinator plans the group
// each round and announces it through the routes. Shard 0 of a group is its
// ANNOUNCER: it generates and announces the position's one round key —
// clients pin ITS signing key, so it is the one member the scheduler can
// never substitute. The other members pull the key inside the group's
// trust domain (the private key never crosses the coordinator), along a
// two-step chain when the merge role is rotated: the round's lead pulls
// from the announcer, everyone else pulls from the lead. Key export is
// gated to the round's planned shard network — daemons refuse
// mix.round.exportkey calls from hosts outside the peer list the
// coordinator distributed with the layout.
//
// Every member learns its shard index and group size at round open
// (SetRoundShard, before noise generation, because the group divides the
// position's per-mailbox noise), and the routes give each merge server
// the successor position's FULL shard set so it can deal its
// post-shuffle chunks across them. Aborts fan out to every shard of
// every position. Clients never see any of this: round settings carry
// one key per position either way.
//
// # Self-healing rounds (schedule.go)
//
// The merge/build-lead role — where the position's single full-batch
// shuffle runs, where deposits funnel, and where mix.deal.* fans out —
// is a ROLE, not a machine: it rotates round-robin across each group per
// round (round % groupSize; PinLead pins it to slot 0). Rotation never
// changes a round's output, because the shuffle permutation is derived
// from the round key that every member holds.
//
// Each round is planned against a per-daemon scoreboard built from the
// previous rounds' health: daemons that crashed, stalled past the
// latency SLO, or failed locally are benched and replaced from the
// position's hot-spare pool (Spares) at the same shard slot; benched
// daemons are probed with a short-timeout mix.info each plan and
// re-admitted once they recover. Abort-reason codes from mix.round.wait
// (slow / crashed / upstream / error) let the scheduler distinguish a
// daemon's own failure from an abort it merely echoed. The pipeline
// chunk size can adapt per round to observed outcomes (AdaptiveChunk)
// inside a bounded window, and RoundDeadline bounds every daemon's
// peer-dial retries so a dead peer costs bounded time, not the round's
// wait timeout.
//
// The coordinator keeps per-round health (Status): wall time, batch
// size, and each daemon's self-reported duration, batch bytes, and abort
// reason from the mix.round.wait long-poll. The scheduler's scoreboard (Scoreboard) is served to
// operators read-only over the coordinator.status RPC.
//
// One add-friend round proceeds as:
//
//  1. every PKG announces a fresh signed IBE master key,
//  2. every mixer announces a fresh signed onion key,
//  3. the coordinator picks the mailbox count, assembles the signed
//     RoundSettings, and opens the round at the entry server,
//  4. clients submit onions (real or cover), extracting their identity
//     keys from the PKGs as part of submission,
//  5. the coordinator closes intake and runs the data plane; the last
//     position's daemons publish the mailboxes to the CDN,
//  6. mixers erase their round keys as soon as the chain finishes. PKG
//     master keys are erased concurrently with the mix: extraction
//     happens strictly during the submission window, so once intake
//     closes the master keys are dead weight and the erasures overlap
//     the chain instead of serializing after publish.
//
// Dialing rounds are the same minus the PKG steps.
package coordinator

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// RouteSpec is wire.RouteSpec: one daemon's forwarding assignment for a
// round — where its output goes and its place in its shard group.
type RouteSpec = wire.RouteSpec

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

	NewRound(service wire.Service, round uint32) (wire.MixerRoundKey, error)
	// SetRoundShard places the daemon in the round's shard group for its
	// position (shard index of count) and hands it the group's dial
	// addresses: it serves the round key to those hosts only. Must
	// precede PrepareNoise: the group divides the position's noise.
	SetRoundShard(service wire.Service, round uint32, index, count int, peers []string) error
	// ImportRoundKeyFrom makes the daemon pull the position's round
	// onion key directly from a group member that holds it — the private
	// key moves inside the group's trust domain, the coordinator only
	// names the source.
	ImportRoundKeyFrom(service wire.Service, round uint32, keyAddr string) error
	SetDownstreamKeys(service wire.Service, round uint32, keys [][]byte) error
	// PrepareNoise starts the daemon's noise generation as soon as the
	// round's settings are fixed, concurrently with client intake.
	PrepareNoise(service wire.Service, round uint32, numMailboxes uint32) error

	// OpenRoute tells the daemon where the round's output goes and its
	// shard-group placement.
	OpenRoute(service wire.Service, round uint32, spec RouteSpec) error
	// StreamBegin, StreamChunk and StreamEnd feed the routed daemon its
	// onions; the end names WHICH of the route's NumUpstream feeders
	// finished, so the counted intake closes exactly once per feeder.
	StreamBegin(service wire.Service, round uint32, numMailboxes uint32) error
	StreamChunk(service wire.Service, round uint32, chunk [][]byte) error
	StreamEnd(service wire.Service, round uint32, upstream int) error
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

// PairingPKG is the optional optimal-ate (v2 sealed-ciphertext tier)
// surface of a PKG: a round key signed under the v2 domain tag. The
// negotiation is all-or-nothing per round — the coordinator opens a v2
// round only when EVERY PKG implements this interface and every
// NewRoundV2 call succeeds; any absence or failure (an rpc.PKGClient
// talking to a pre-v2 daemon returns an unknown-method error) downgrades
// the WHOLE round to v1. Mixed versions within one round are never
// produced: every client would derive garbage from a settings blob whose
// keys disagree on the pairing.
type PairingPKG interface {
	NewRoundV2(round uint32) (wire.PKGRoundKey, error)
}

// Frontend is the coordinator's view of one ADDITIONAL entry frontend
// beyond Entry (which is always frontend 0); *rpc.EntryReplicaClient
// implements it.
//
// The coordinator replays every announcement to every frontend in one
// serialized order, so the frontends' event logs assign identical cursors
// — one cursor namespace for the whole tier, which is what lets a client
// fail over between frontends mid-round without a snapshot reset. Each
// frontend admits its own sub-batch, keeps it when its intake closes, and
// deals it into position 0's shard set itself, tagged with its upstream
// index, so at N frontends the batches never cross the coordinator.
type Frontend interface {
	OpenRound(settings *wire.RoundSettings) error
	AnnouncePublished(service wire.Service, round uint32)
	// CloseIntake closes the frontend's round and reports the sub-batch
	// size, leaving the batch stashed frontend-side for FeedBatch.
	CloseIntake(service wire.Service, round uint32) (int, error)
	// FeedBatch deals the stashed sub-batch across position 0's shard
	// set (chunk i to shard i mod N) as upstream feeder `upstream`.
	FeedBatch(service wire.Service, round uint32, numMailboxes uint32, chunkSize int, shards []string, upstream int) error
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
	// merge/build-lead ROLE within each group rotates per round (see
	// PinLead).
	Shards [][]Mixer

	// Spares lists hot-spare daemons per chain position: unpinned,
	// idle daemons the scheduler drafts into a benched member's exact
	// shard slot for a round (the announcer, slot 0, is never
	// substituted — clients pin its key). A spare returns to the pool
	// when its round's plan is dropped. Positions beyond len(Spares)
	// have no spares.
	Spares [][]Mixer

	// PinLead pins each shard group's merge/build-lead role to slot 0
	// (the pre-rotation layout) instead of rotating it round-robin per
	// round. Rotation never changes a round's output — the permutation
	// is derived from the round key every member holds — so this exists
	// for A/B determinism tests and operators who want a fixed funnel.
	PinLead bool

	// AdaptiveChunk lets the scheduler adapt the pipeline chunk size
	// per round to observed outcomes, inside [ChunkSize/4, ChunkSize*4].
	// Off by default: a fixed chunk keeps fixed-seed rounds reproducible.
	AdaptiveChunk bool

	// LatencySLO, when set, is the per-daemon round-duration budget: a
	// daemon whose self-reported duration exceeds it is treated as slow
	// (benched and, with AdaptiveChunk, the chunk size shrinks) even if
	// the round succeeded.
	LatencySLO time.Duration

	// RoundDeadline, when set, bounds each daemon's data-plane work per
	// round (RouteSpec.DeadlineMs): peer-dial retries give up once it
	// passes instead of burning the whole round against a dead peer.
	RoundDeadline time.Duration

	// HealthRing bounds how many recent rounds Status retains
	// (0 = defaultHealthRing).
	HealthRing int

	// TargetRequestsPerMailbox controls how many requests (real + noise)
	// the coordinator aims to put in one mailbox; the paper sizes
	// add-friend mailboxes at roughly 24,000 requests (§8.2). Tests use
	// small values.
	TargetRequestsPerMailbox int

	// ChunkSize is the number of onions per pipeline chunk when streaming
	// a batch through the chain (0 = mixnet.DefaultStreamChunk).
	ChunkSize int

	// PairingV2 enables negotiation of the optimal-ate sealed-ciphertext
	// tier for add-friend rounds. Rounds open at v2 only when every PKG
	// supports it (see PairingPKG); otherwise — and always when this gate
	// is off — rounds open at v1, byte-identical to pre-capability
	// settings.
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

	// Scheduler state (schedule.go), all guarded by mu: the per-round
	// plans captured at open, the per-daemon scoreboard, the adaptive
	// chunk size per service, and the spares currently drafted into
	// open plans.
	plans      map[planKey]*roundPlan
	scores     map[string]*daemonScore
	chunkNow   map[wire.Service]int
	draftedNow map[string]int

	// annMu serializes announcement fan-out across the frontend tier.
	// Concurrent round opens (the add-friend and dialing timers tick
	// independently) must reach every frontend's log in the SAME order,
	// or the replicas' cursors diverge and failover breaks.
	annMu sync.Mutex
}

// defaultHealthRing bounds how many recent rounds Status retains when
// Config.HealthRing is unset — sized so the coordinator.status surface
// can show meaningful failure-rate history, not just the last burst.
const defaultHealthRing = 64

// healthRingSize is the configured Status retention.
func (c *Coordinator) healthRingSize() int {
	if c.HealthRing > 0 {
		return c.HealthRing
	}
	return defaultHealthRing
}

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
// per-daemon outcomes into the scheduler's scoreboard, adapts the chunk
// size, and emits the per-round log line.
func (c *Coordinator) recordHealth(h RoundHealth) {
	c.mu.Lock()
	c.health = append(c.health, h)
	if ring := c.healthRingSize(); len(c.health) > ring {
		c.health = c.health[len(c.health)-ring:]
	}
	c.updateScoreboard(h)
	c.adaptChunk(h)
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
	if n <= 1 {
		if n == 1 {
			return fn(0)
		}
		return nil
	}
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

// announceOpen opens the round on every frontend, holding annMu so that
// concurrently opening rounds cannot interleave differently in different
// replicas' logs. A replica that cannot take the open fails the round:
// proceeding would fork the cursor namespace, which breaks failover far
// more subtly than a skipped round does.
func (c *Coordinator) announceOpen(settings *wire.RoundSettings) error {
	c.annMu.Lock()
	defer c.annMu.Unlock()
	if err := c.Entry.OpenRound(settings); err != nil {
		return err
	}
	for i, f := range c.Frontends {
		if err := f.OpenRound(settings); err != nil {
			return fmt.Errorf("coordinator: frontend %d open: %w", i+1, err)
		}
	}
	return nil
}

// announcePublished replays the publish announcement to every frontend,
// under the same ordering lock as opens.
func (c *Coordinator) announcePublished(service wire.Service, round uint32) {
	c.annMu.Lock()
	defer c.annMu.Unlock()
	c.Entry.AnnouncePublished(service, round)
	for _, f := range c.Frontends {
		f.AnnouncePublished(service, round)
	}
}

// OpenAddFriendRound performs steps 1-3: key announcements and settings.
func (c *Coordinator) OpenAddFriendRound(round uint32) (*wire.RoundSettings, error) {
	settings := &wire.RoundSettings{
		Service:      wire.AddFriend,
		Round:        round,
		NumMailboxes: c.numMailboxes(wire.AddFriend),
	}
	settings.PKGs = make([]wire.PKGRoundKey, len(c.PKGs))
	if c.PairingV2 && c.openPKGRoundV2(round, settings) {
		settings.PairingVersion = 2
	} else {
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
	if err := c.openMixRound(settings); err != nil {
		return nil, err
	}
	if err := c.announceOpen(settings); err != nil {
		c.dropPlan(settings.Service, settings.Round)
		return nil, err
	}
	return settings, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logger != nil {
		c.Logger.Printf(format, args...)
	}
}

// openPKGRoundV2 attempts to open the round at the optimal-ate tier,
// filling settings.PKGs with v2-signed keys. It reports false — leaving
// the settings untouched for the v1 retry, which is safe because
// NewRound/NewRoundV2 are idempotent per open round and return the same
// master key either way — if any PKG lacks the capability or fails.
func (c *Coordinator) openPKGRoundV2(round uint32, settings *wire.RoundSettings) bool {
	v2 := make([]PairingPKG, len(c.PKGs))
	for i, p := range c.PKGs {
		pp, ok := p.(PairingPKG)
		if !ok {
			c.logf("round %d: PKG %d predates the v2 pairing tier; opening at v1", round, i)
			return false
		}
		v2[i] = pp
	}
	err := fanOut(len(c.PKGs), func(i int) error {
		rk, err := v2[i].NewRoundV2(round)
		if err != nil {
			return fmt.Errorf("coordinator: PKG %d v2: %w", i, err)
		}
		settings.PKGs[i] = rk
		return nil
	})
	if err != nil {
		c.logf("round %d: v2 negotiation failed (%v); opening at v1", round, err)
		return false
	}
	return true
}

// OpenDialingRound announces a dialing round.
func (c *Coordinator) OpenDialingRound(round uint32) (*wire.RoundSettings, error) {
	settings := &wire.RoundSettings{
		Service:      wire.Dialing,
		Round:        round,
		NumMailboxes: c.numMailboxes(wire.Dialing),
	}
	if err := c.openMixRound(settings); err != nil {
		return nil, err
	}
	if err := c.announceOpen(settings); err != nil {
		c.dropPlan(settings.Service, settings.Round)
		return nil, err
	}
	return settings, nil
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

func (c *Coordinator) openMixRound(settings *wire.RoundSettings) (err error) {
	if len(c.Mixers) == 0 || c.CDNAddr == "" {
		return fmt.Errorf("coordinator: a round needs at least one mixer and a CDN publish address")
	}
	// The scheduler plans the round FIRST: it probes every candidate,
	// drafts spares into benched slots, and picks the merge-role
	// rotation, so a daemon killed between rounds is caught here rather
	// than burning the round mid-chain. The plan is fixed for the
	// round's whole life — CloseRound reuses it verbatim.
	plan := c.planRound(settings.Service, settings.Round)
	defer func() {
		if err != nil {
			c.dropPlan(settings.Service, settings.Round)
		}
	}()
	// The position ANNOUNCERS announce the round keys: clients wrap one
	// onion layer per position, so a shard group shares one key,
	// generated by its announcer (slot 0, whose signing key clients pin)
	// and announced once. The settings are identical whether or not any
	// position is sharded — sharding, spares, and rotation are all
	// invisible to clients.
	keys := make([][]byte, len(c.Mixers))
	settings.Mixers = make([]wire.MixerRoundKey, len(c.Mixers))
	err = fanOut(len(c.Mixers), func(i int) error {
		rk, err := c.Mixers[i].NewRound(settings.Service, settings.Round)
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
	if err := c.openShardGroups(settings.Service, settings.Round, plan); err != nil {
		return err
	}
	// Every shard of every position needs the onion keys of the
	// POSITIONS after it to wrap its noise; with the keys distributed,
	// every server can generate its round noise concurrently with client
	// intake, so the mix never waits for it.
	return fanOut(len(c.Mixers), func(i int) error {
		group := plan.group(i)
		return fanOut(len(group), func(s int) error {
			m := group[s]
			if err := m.SetDownstreamKeys(settings.Service, settings.Round, keys[i+1:]); err != nil {
				return fmt.Errorf("coordinator: mixer %d/%d downstream keys: %w", i, s, err)
			}
			if err := m.PrepareNoise(settings.Service, settings.Round, settings.NumMailboxes); err != nil {
				return fmt.Errorf("coordinator: mixer %d/%d prepare noise: %w", i, s, err)
			}
			return nil
		})
	})
}

// openShardGroups prepares every multi-member position for the round: the
// group members pull the announcer's round key (one key per position —
// shards are one logical server), and every member learns its shard
// index, group size, and the round's shard network so its noise share
// divides correctly and its key-export surface is gated to the planned
// group. Runs strictly before PrepareNoise.
//
// The key moves along a two-step chain when the merge-lead role is
// rotated away from the announcer: the LEAD pulls it from the announcer
// first, then the remaining members pull from the lead — "key export
// from whichever shard is lead this round". Ordering matters twice
// over: a member's import opens its round (so its layout call must
// follow its import), and a daemon's exportkey allowlist must be
// installed before any peer pulls from it (so the announcer's layout
// call comes first of all, and the lead's precedes the other members').
func (c *Coordinator) openShardGroups(service wire.Service, round uint32, plan *roundPlan) error {
	return fanOut(len(c.Mixers), func(i int) error {
		group := plan.group(i)
		if len(group) == 1 {
			// A group of one has nobody to share a key with and no noise
			// to divide: the daemon's round opens as shard 0 of 1.
			return nil
		}
		peers := plan.peers[i]
		setShard := func(s int) error {
			if err := group[s].SetRoundShard(service, round, s, len(group), peers); err != nil {
				return fmt.Errorf("coordinator: position %d shard %d layout: %w", i, s, err)
			}
			return nil
		}
		// The announcer owns the round key, so its layout (and with it
		// the export allowlist) installs before anyone pulls.
		if err := setShard(0); err != nil {
			return err
		}
		li := plan.lead(i)
		keyAddr := group[0].Addr()
		if li != 0 {
			if err := group[li].ImportRoundKeyFrom(service, round, keyAddr); err != nil {
				return fmt.Errorf("coordinator: position %d lead %d importing round key: %w", i, li, err)
			}
			if err := setShard(li); err != nil {
				return err
			}
			keyAddr = group[li].Addr()
		}
		// The remaining members are independent of one another (only
		// import-before-layout matters, per member), so they fan out
		// like every other daemon RPC.
		return fanOut(len(group), func(s int) error {
			if s == 0 || s == li {
				return nil
			}
			if err := group[s].ImportRoundKeyFrom(service, round, keyAddr); err != nil {
				return fmt.Errorf("coordinator: position %d shard %d importing round key: %w", i, s, err)
			}
			return setShard(s)
		})
	})
}

// CloseRound performs steps 5-6 for either service: close intake, run the
// data plane, and erase round keys.
//
// For add-friend rounds the PKG master keys are erased CONCURRENTLY with
// the mix chain: clients extract identity keys strictly while submitting,
// so once intake closes the erasures can overlap the mix instead of
// serializing after publish (FinishAddFriendRound remains as an explicit,
// idempotent hook for drivers that want a later erasure point).
//
// The mailboxes never pass through the coordinator: the last position's
// daemons publish them to the CDN at CDNAddr, and clients (and tests)
// fetch them from there.
//
// Deprecated: the first result is always nil; bench/round.go, frozen for
// this PR, reads two results.
func (c *Coordinator) CloseRound(service wire.Service, round uint32) (map[uint32][]byte, error) {
	start := time.Now()
	settings, err := c.Entry.Settings(service, round)
	if err != nil {
		return nil, err
	}
	// The round runs with the plan captured at open — membership, merge
	// rotation, chunk size, and deadline are fixed for the round's life.
	plan := c.planFor(service, round)
	defer c.dropPlan(service, round)
	batch, err := c.Entry.CloseRound(service, round)
	if err != nil {
		return nil, err
	}

	// Intake is closed: no further extractions can happen, so the PKG
	// master keys die now, overlapping the chain.
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

	// Likewise, once the batch is out of intake the mixers' round keys
	// die with the round whether it succeeds or fails — a failed round
	// is never retried (the next round carries the traffic), and keys
	// that outlive their round are a forward-secrecy hazard.
	defer c.closeMixerRounds(service, round, plan)

	// Close the other frontends' intakes, in frontend order. Each keeps
	// its sub-batch and will deal it into position 0 itself.
	total := len(batch)
	for i, f := range c.Frontends {
		n, err := f.CloseIntake(service, round)
		if err != nil {
			return nil, fmt.Errorf("coordinator: frontend %d close: %w", i+1, err)
		}
		total += n
	}
	c.SetExpectedVolume(service, total)

	daemons, err := c.runRound(service, round, settings.NumMailboxes, batch, plan)
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
		for _, m := range plan.group(i) {
			m.CloseRound(service, round)
		}
		return nil
	})
}

// routedDaemon is one daemon's place in a round's route graph.
type routedDaemon struct {
	pos, shard int
	m          Mixer
}

// addrs returns a group's dial addresses, in shard order.
func addrs(group []Mixer) []string {
	out := make([]string, len(group))
	for s, m := range group {
		out[s] = m.Addr()
	}
	return out
}

// runRound drives the data plane: open a route on every daemon (back to
// front, so each successor is routed before its predecessor could
// possibly forward), deal the entry batch across the first position's
// shard set, then wait on every daemon's completion. Routes announce the
// shard topology per position: every member learns its shard index and
// group size, non-lead shards learn their group's lead address, and each
// lead learns the successor position's FULL shard set — or, for the last
// position, the CDN address and its own group's address list, across
// which it deals the post-shuffle batch by mailbox ID so that every
// member builds and publishes its own slice. The lead role lands on the
// plan's rotated lead — a role, not a machine; the key-derived
// permutation makes the round's output independent of which member hosts
// it. On the first failure the round is aborted on every shard of every
// position — daemons also propagate aborts down the chain and across
// their groups themselves, so a mid-chain death cannot wedge its
// successors.
//
// The returned per-daemon stats (from mix.round.wait) feed the round
// health record even when the round fails.
func (c *Coordinator) runRound(service wire.Service, round uint32, numMailboxes uint32, batch [][]byte, plan *roundPlan) ([]DaemonRoundStats, error) {
	chunkSize := plan.chunkSize
	numUpstream := 1 + len(c.Frontends)
	var all []routedDaemon
	for i, group := range plan.groups {
		for s, m := range group {
			all = append(all, routedDaemon{pos: i, shard: s, m: m})
		}
	}
	abortAll := func(reason error) {
		_ = fanOut(len(all), func(i int) error {
			return all[i].m.AbortRound(service, round, reason.Error())
		})
	}

	last := len(plan.groups) - 1
	for i := last; i >= 0; i-- {
		group := plan.group(i)
		// Positions are routed back-to-front (a successor must be routed
		// before its predecessor could forward), but the shards WITHIN a
		// position are independent and fan out.
		li := plan.lead(i)
		err := fanOut(len(group), func(s int) error {
			spec := RouteSpec{
				NumMailboxes: numMailboxes,
				ChunkSize:    chunkSize,
				ShardIndex:   s,
				ShardCount:   len(group),
				NumUpstream:  1,
				DeadlineMs:   plan.deadlineMs,
			}
			if i == 0 {
				// Position 0 is fed by every frontend: its intake stays
				// open until all of them have sent their upstream-tagged
				// end.
				spec.NumUpstream = numUpstream
			}
			if i == last {
				// Every member of the last group publishes its own
				// mailbox-ID slice.
				spec.CDNAddr = c.CDNAddr
			}
			switch {
			case s != li:
				spec.MergeAddr = group[li].Addr()
			case i == last:
				// BuildShards stays in shard order — members identify
				// themselves by their own shard index.
				spec.BuildShards = addrs(group)
			default:
				spec.Successors = addrs(plan.group(i + 1))
			}
			if err := group[s].OpenRoute(service, round, spec); err != nil {
				return fmt.Errorf("coordinator: routing mixer %d/%d: %w", i, s, err)
			}
			return nil
		})
		if err != nil {
			abortAll(err)
			return nil, err
		}
	}

	// Frontend 0's batch is the one payload this process still moves: the
	// coordinator owns its entry server, so this hop is unavoidable and
	// costs one sub-batch-width, not one per chain hop.
	if err := feedFirstGroup(service, round, numMailboxes, batch, chunkSize, plan.group(0)); err != nil {
		err = fmt.Errorf("coordinator: feeding position 0: %w", err)
		abortAll(err)
		return nil, err
	}
	// The other frontends feed after frontend 0, sequentially and in
	// frontend order, so the merged intake order at every shard is
	// deterministic: a fixed-seed N-frontend round reproduces the
	// single-frontend byte stream exactly.
	first := addrs(plan.group(0))
	for k, f := range c.Frontends {
		if err := f.FeedBatch(service, round, numMailboxes, chunkSize, first, k+1); err != nil {
			err = fmt.Errorf("coordinator: feeding position 0 as upstream %d: %w", k+1, err)
			abortAll(err)
			return nil, err
		}
	}

	daemons := make([]DaemonRoundStats, len(all))
	errs := make([]error, len(all))
	var abortOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(len(all))
	for i, rd := range all {
		go func(i int, rd routedDaemon) {
			defer wg.Done()
			stats, err := rd.m.WaitRound(service, round)
			daemons[i] = DaemonRoundStats{Position: rd.pos, Shard: rd.shard, Addr: rd.m.Addr(), Stats: stats}
			if err != nil {
				daemons[i].Err = err.Error()
				errs[i] = err
				// First failure: abort everywhere, which releases every
				// other daemon's waiter too.
				abortOnce.Do(func() {
					abortAll(fmt.Errorf("mixer %d/%d: %v", rd.pos, rd.shard, err))
				})
			}
		}(i, rd)
	}
	wg.Wait()

	// Prefer a root-cause error over propagated "aborted:" echoes.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("coordinator: mixer %d/%d: %w", all[i].pos, all[i].shard, err)
		if firstErr == nil {
			firstErr = wrapped
		}
		if !strings.HasPrefix(err.Error(), "aborted:") {
			return daemons, wrapped
		}
	}
	return daemons, firstErr
}

// feedFirstGroup deals the coordinator's own entry server's closed
// sub-batch, as upstream 0, across the first position's PLANNED shard set,
// chunk i to shard i mod N — the same deterministic deal the daemons use
// between positions. Every shard gets its own stream; the other
// frontends' begins JOIN these streams.
func feedFirstGroup(service wire.Service, round uint32, numMailboxes uint32, batch [][]byte, chunkSize int, group []Mixer) error {
	for s, m := range group {
		if err := m.StreamBegin(service, round, numMailboxes); err != nil {
			return fmt.Errorf("coordinator: opening stream to shard %d: %w", s, err)
		}
	}
	for i, lo := 0, 0; lo < len(batch); i, lo = i+1, lo+chunkSize {
		hi := min(lo+chunkSize, len(batch))
		if err := group[i%len(group)].StreamChunk(service, round, batch[lo:hi]); err != nil {
			return err
		}
	}
	for s, m := range group {
		if err := m.StreamEnd(service, round, 0); err != nil {
			return fmt.Errorf("coordinator: closing stream to shard %d: %w", s, err)
		}
	}
	return nil
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
