package coordinator

import (
	"errors"
	"testing"
	"time"

	"alpenhorn/internal/wire"
)

// stubMixer is a controllable in-memory daemon for scheduler tests: it
// exposes an address (so the scheduler scores it) and a flippable
// liveness bit (so plan-time probes can be made to fail).
type stubMixer struct {
	addr  string
	alive bool
}

func (m *stubMixer) Addr() string                 { return m.addr }
func (m *stubMixer) NoiseMu(wire.Service) float64 { return 0 }
func (m *stubMixer) NewRound(wire.Service, uint32, []string) (wire.MixerRoundKey, error) {
	return wire.MixerRoundKey{}, nil
}
func (m *stubMixer) OpenRound(wire.Service, uint32, RouteSpec) error  { return nil }
func (m *stubMixer) StreamBegin(wire.Service, uint32, uint32) error   { return nil }
func (m *stubMixer) StreamChunk(wire.Service, uint32, [][]byte) error { return nil }
func (m *stubMixer) StreamEnd(wire.Service, uint32, int) error        { return nil }
func (m *stubMixer) WaitRound(wire.Service, uint32) (wire.MixerRoundStats, error) {
	return wire.MixerRoundStats{}, nil
}
func (m *stubMixer) AbortRound(wire.Service, uint32, string) error { return nil }
func (m *stubMixer) CloseRound(wire.Service, uint32)               {}
func (m *stubMixer) Probe() error {
	if m.alive {
		return nil
	}
	return errors.New("stub daemon is down")
}

func TestBenchReason(t *testing.T) {
	slo := 100 * time.Millisecond
	cases := []struct {
		name string
		d    DaemonRoundStats
		slo  time.Duration
		want string
	}{
		{"success", DaemonRoundStats{}, 0, ""},
		{"success under SLO", DaemonRoundStats{Stats: wire.MixerRoundStats{Duration: 50 * time.Millisecond}}, slo, ""},
		{"success over SLO", DaemonRoundStats{Stats: wire.MixerRoundStats{Duration: 200 * time.Millisecond}}, slo, wire.AbortSlow},
		{"unreachable daemon", DaemonRoundStats{Err: "wait: connection refused"}, 0, wire.AbortCrashed},
		{"upstream abort keeps seat", DaemonRoundStats{Err: "aborted: upstream died", Stats: wire.MixerRoundStats{AbortReason: wire.AbortUpstream}}, 0, ""},
		{"own fault", DaemonRoundStats{Err: "mix failed", Stats: wire.MixerRoundStats{AbortReason: wire.AbortError}}, 0, wire.AbortError},
		{"deadline", DaemonRoundStats{Err: "round deadline exceeded", Stats: wire.MixerRoundStats{AbortReason: wire.AbortSlow}}, 0, wire.AbortSlow},
	}
	for _, tc := range cases {
		if got := benchReason(tc.d, tc.slo); got != tc.want {
			t.Errorf("%s: benchReason = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestAdaptChunkWindow(t *testing.T) {
	c := &Coordinator{ChunkSize: 64, AdaptiveChunk: true}

	// Failures halve the chunk but never push it under base/4.
	for i := 0; i < 5; i++ {
		c.adaptChunk(RoundHealth{Service: wire.Dialing, Err: "boom"})
	}
	if got := c.currentChunk(wire.Dialing); got != 16 {
		t.Errorf("after repeated failures chunk = %d, want floor 16", got)
	}

	// Clean rounds grow it geometrically but never past base*4.
	for i := 0; i < 40; i++ {
		c.adaptChunk(RoundHealth{Service: wire.Dialing})
	}
	if got := c.currentChunk(wire.Dialing); got != 256 {
		t.Errorf("after repeated clean rounds chunk = %d, want ceiling 256", got)
	}

	// An SLO breach counts as slow even when the round succeeded.
	c.LatencySLO = time.Millisecond
	c.adaptChunk(RoundHealth{Service: wire.Dialing, Daemons: []DaemonRoundStats{
		{Stats: wire.MixerRoundStats{Duration: 50 * time.Millisecond}},
	}})
	if got := c.currentChunk(wire.Dialing); got != 128 {
		t.Errorf("after SLO breach chunk = %d, want 128", got)
	}

	// AddFriend rounds leave Dialing's state alone.
	c.adaptChunk(RoundHealth{Service: wire.AddFriend, Err: "boom"})
	if got := c.currentChunk(wire.Dialing); got != 128 {
		t.Errorf("unrelated rounds moved the chunk to %d, want 128", got)
	}

	// With AdaptiveChunk off, rounds always plan the configured base.
	c.AdaptiveChunk = false
	if got := c.currentChunk(wire.Dialing); got != 64 {
		t.Errorf("with AdaptiveChunk off chunk = %d, want base 64", got)
	}
}

// newStubCoordinator builds a coordinator over one position with a
// 3-member stub shard group and one stub spare.
func newStubCoordinator() (*Coordinator, []*stubMixer, *stubMixer) {
	members := []*stubMixer{
		{addr: "10.0.0.1:1", alive: true},
		{addr: "10.0.0.2:1", alive: true},
		{addr: "10.0.0.3:1", alive: true},
	}
	spare := &stubMixer{addr: "10.0.0.9:1", alive: true}
	c := &Coordinator{
		Mixers: []Mixer{members[0]},
		Shards: [][]Mixer{{members[1], members[2]}},
		Spares: [][]Mixer{{spare}},
	}
	return c, members, spare
}

func TestLeadRotation(t *testing.T) {
	c, _, _ := newStubCoordinator()
	for r := uint32(1); r <= 7; r++ {
		plan := c.planRound(wire.Dialing, r)
		if got, want := plan.lead(0), int(r%3); got != want {
			t.Errorf("round %d: lead %d, want %d", r, got, want)
		}
		if got := len(plan.peers[0]); got != 3 {
			t.Errorf("round %d: %d peers in shard network, want 3", r, got)
		}
		c.dropPlan(wire.Dialing, r)
	}

	c.PinLead = true
	plan := c.planRound(wire.Dialing, 5)
	if got := plan.lead(0); got != 0 {
		t.Errorf("PinLead: lead %d, want 0", got)
	}
	c.dropPlan(wire.Dialing, 5)

	// A round never opened here has no plan (and so no routes to close).
	if c.planFor(wire.Dialing, 99) != nil {
		t.Error("a round never opened here has a plan")
	}
}

func TestBenchDraftAndReadmit(t *testing.T) {
	c, members, spare := newStubCoordinator()
	victim := members[2] // pos 0, shard slot 2

	// Round 1: the victim is down at plan time — benched, spare drafted
	// into its exact slot.
	victim.alive = false
	plan := c.planRound(wire.Dialing, 1)
	if got := plan.group(0)[2]; got != Mixer(spare) {
		t.Fatalf("round 1: slot 2 holds %v, want the drafted spare", got)
	}
	if plan.peers[0][2] != spare.addr {
		t.Errorf("round 1: shard network lists %s at slot 2, want spare %s", plan.peers[0][2], spare.addr)
	}

	// Round 2 overlaps round 1: the single spare is already committed,
	// so the benched victim keeps its slot (and the round rides on it).
	plan2 := c.planRound(wire.Dialing, 2)
	if got := plan2.group(0)[2]; got != Mixer(victim) {
		t.Errorf("round 2: slot 2 holds %v, want the benched victim (spare pool exhausted)", got)
	}
	c.dropPlan(wire.Dialing, 1)
	c.dropPlan(wire.Dialing, 2)

	// The victim restarts. Cooldown: one round of distance from the
	// bench round is required even with a healthy probe.
	victim.alive = true
	plan = c.planRound(wire.Dialing, 2)
	if got := plan.group(0)[2]; got != Mixer(spare) {
		t.Errorf("cooldown round: slot 2 holds %v, want the spare", got)
	}
	c.dropPlan(wire.Dialing, 2)

	// Past the cooldown it is re-admitted automatically.
	plan = c.planRound(wire.Dialing, 3)
	if got := plan.group(0)[2]; got != Mixer(victim) {
		t.Fatalf("round 3: slot 2 holds %v, want the re-admitted victim", got)
	}
	c.dropPlan(wire.Dialing, 3)

	sb := c.Scoreboard()
	var vs, ss *DaemonScore
	for i := range sb.Daemons {
		switch sb.Daemons[i].Addr {
		case victim.addr:
			vs = &sb.Daemons[i]
		case spare.addr:
			ss = &sb.Daemons[i]
		}
	}
	if vs == nil || vs.Benched || vs.Readmissions != 1 {
		t.Errorf("victim scoreboard = %+v, want un-benched with 1 readmission", vs)
	}
	if ss == nil || !ss.Spare {
		t.Errorf("spare scoreboard = %+v, want Spare flag", ss)
	}
}

func TestAnnouncerNeverSubstituted(t *testing.T) {
	c, members, _ := newStubCoordinator()
	members[0].alive = false
	plan := c.planRound(wire.Dialing, 1)
	if got := plan.group(0)[0]; got != Mixer(members[0]) {
		t.Fatalf("slot 0 holds %v, want the (benched) announcer: clients pin its key", got)
	}
	c.dropPlan(wire.Dialing, 1)
}

func TestUpdateScoreboardOwnFaultOnly(t *testing.T) {
	c := &Coordinator{}
	h := RoundHealth{Service: wire.Dialing, Round: 3, Daemons: []DaemonRoundStats{
		{Position: 0, Shard: 0, Addr: "a:1", Stats: wire.MixerRoundStats{
			Duration: 80 * time.Millisecond, BytesIn: 1 << 20, BytesOut: 1 << 20,
		}},
		{Position: 0, Shard: 1, Addr: "b:1", Err: "aborted: upstream died",
			Stats: wire.MixerRoundStats{AbortReason: wire.AbortUpstream}},
		{Position: 1, Shard: 0, Addr: "c:1", Err: "wait: connection refused"},
	}}
	c.updateScoreboard(h)

	byAddr := map[string]DaemonScore{}
	for _, d := range c.Scoreboard().Daemons {
		byAddr[d.Addr] = d
	}
	if d := byAddr["a:1"]; d.Benched || d.Failures != 0 || d.EWMADurationMs != 80 || d.EWMAThroughputKBs == 0 {
		t.Errorf("healthy daemon score = %+v, want clean EWMAs", d)
	}
	if d := byAddr["b:1"]; d.Benched || d.Failures != 0 || d.Aborts[wire.AbortUpstream] != 1 {
		t.Errorf("upstream-abort daemon score = %+v, want seat kept with upstream abort counted", d)
	}
	if d := byAddr["c:1"]; !d.Benched || d.BenchedRound != 3 || d.Aborts[wire.AbortCrashed] != 1 {
		t.Errorf("unreachable daemon score = %+v, want benched at round 3 as crashed", d)
	}
}

func TestHealthRingSize(t *testing.T) {
	c := &Coordinator{}
	for r := uint32(1); r <= 100; r++ {
		c.recordHealth(RoundHealth{Service: wire.Dialing, Round: r})
	}
	if got := len(c.Status()); got != defaultHealthRing {
		t.Errorf("default ring kept %d records, want %d", got, defaultHealthRing)
	}
	if got := c.Status()[defaultHealthRing-1].Round; got != 100 {
		t.Errorf("ring tail holds round %d, want the newest round 100", got)
	}
}
