package coordinator

import (
	"errors"
	"reflect"
	"slices"
	"sync"
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
	// onProbe, when set, runs inside every Probe call.
	onProbe func()

	mu     sync.Mutex
	opened []wire.RouteSpec // every spec OpenRound was handed
}

func (m *stubMixer) Addr() string                 { return m.addr }
func (m *stubMixer) NoiseMu(wire.Service) float64 { return 0 }
func (m *stubMixer) NewRound(wire.Service, uint32, []string) (wire.MixerRoundKey, error) {
	return wire.MixerRoundKey{}, nil
}
func (m *stubMixer) OpenRound(_ wire.Service, _ uint32, spec wire.RouteSpec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opened = append(m.opened, spec)
	return nil
}
func (m *stubMixer) WaitRound(wire.Service, uint32) (wire.MixerRoundStats, error) {
	return wire.MixerRoundStats{}, nil
}
func (m *stubMixer) AbortRound(wire.Service, uint32, string) error { return nil }
func (m *stubMixer) CloseRound(wire.Service, uint32)               {}
func (m *stubMixer) Probe() error {
	if m.onProbe != nil {
		m.onProbe()
	}
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

// TestOpenSendsThePlan: every member of a position is opened with the same
// route but for its own slot, and that route is the plan: the group in
// shard order, the plan's lead, and the next position's group or, at the
// last position, the CDN.
func TestOpenSendsThePlan(t *testing.T) {
	c, members, _ := newStubCoordinator()
	last := []*stubMixer{{addr: "10.0.1.1:1", alive: true}, {addr: "10.0.1.2:1", alive: true}}
	c.Mixers = append(c.Mixers, last[0])
	c.Shards = append(c.Shards, []Mixer{last[1]})
	c.CDNAddr = "cdn:1"
	const round = 4
	plan := c.planRound(wire.Dialing, round)
	defer c.dropPlan(wire.Dialing, round)
	if err := c.openMixRound(&wire.RoundSettings{Service: wire.Dialing, Round: round, NumMailboxes: 3}, plan); err != nil {
		t.Fatal(err)
	}
	stubAddrs := func(group []*stubMixer) (out []string) {
		for _, m := range group {
			out = append(out, m.addr)
		}
		return out
	}
	for i, group := range [][]*stubMixer{members, last} {
		want := wire.RouteSpec{
			NumMailboxes: 3, Group: stubAddrs(group), Lead: round % len(group),
			NumUpstream: 1, DeadlineMs: plan.deadlineMs,
		}
		if i == 0 {
			want.DownstreamKeys, want.Successors = [][]byte{nil}, stubAddrs(last)
		} else {
			want.DownstreamKeys, want.CDNAddr = [][]byte{}, "cdn:1"
		}
		for s, m := range group {
			if len(m.opened) != 1 {
				t.Fatalf("position %d slot %d opened %d times", i, s, len(m.opened))
			}
			want.ShardIndex = s
			if got := m.opened[0]; !reflect.DeepEqual(got, want) {
				t.Errorf("position %d slot %d opened with\n%+v, want\n%+v", i, s, got, want)
			}
		}
	}
}

func TestLeadRotation(t *testing.T) {
	c, members, _ := newStubCoordinator()
	for r := uint32(1); r <= 7; r++ {
		plan := c.planRound(wire.Dialing, r)
		if got, want := plan.leads[0], int(r%3); got != want {
			t.Errorf("round %d: lead %d, want %d", r, got, want)
		}
		if got := plan.groups[0]; len(got) != 3 || got[0] != Mixer(members[0]) {
			t.Errorf("round %d: planned group %v, want the 3 configured members", r, got)
		}
		c.dropPlan(wire.Dialing, r)
	}

	// A round never opened here has no plan (and so no routes to close).
	if c.planFor(wire.Dialing, 99) != nil {
		t.Error("a round never opened here has a plan")
	}
}

// TestPlanDecision is the table test of decidePlan, the scheduler's pure
// decision: one position served by a 3-member group with two spares, and
// a second, unsharded position.
func TestPlanDecision(t *testing.T) {
	m := []*stubMixer{{addr: "m0"}, {addr: "m1"}, {addr: "m2"}, {addr: "n0"}}
	sp := []*stubMixer{{addr: "s0"}, {addr: "s1"}}
	groups := [][]Mixer{{m[0], m[1], m[2]}, {m[3]}}
	spares := [][]Mixer{{sp[0], sp[1]}}
	addrsOf := func(ms ...*stubMixer) []string {
		var out []string
		for _, x := range ms {
			out = append(out, x.addr)
		}
		return out
	}
	all := append(addrsOf(m...), addrsOf(sp...)...)
	// input builds the decision's maps, inserting their keys in the given
	// address order: down lists the daemons whose probe failed.
	input := func(order []string, round uint32, down []string, benchedAt map[string]uint32, held []string) planInput {
		in := planInput{round: round, groups: groups, spares: spares,
			scores: map[string]DaemonScore{}, held: map[string]bool{}, alive: map[string]bool{}}
		for _, addr := range order {
			in.alive[addr] = !slices.Contains(down, addr)
			if r, ok := benchedAt[addr]; ok {
				in.scores[addr] = DaemonScore{Addr: addr, Benched: true, BenchedRound: r}
			}
			if slices.Contains(held, addr) {
				in.held[addr] = true
			}
		}
		return in
	}
	type want struct {
		group0  []string
		leads   []int
		drafted []string
		changes []scoreChange
	}
	cases := []struct {
		name      string
		round     uint32
		down      []string
		benchedAt map[string]uint32
		held      []string
		want      want
	}{
		{
			name: "healthy fleet", round: 4,
			want: want{group0: addrsOf(m[0], m[1], m[2]), leads: []int{1, 0}},
		},
		{
			name: "benched member takes the spare", round: 3, down: []string{"m2"},
			want: want{group0: []string{"m0", "m1", "s0"}, leads: []int{0, 0}, drafted: []string{"s0"},
				changes: []scoreChange{{opBench, "m2", 0, 2}, {opDraft, "s0", 0, 2}}},
		},
		{
			name: "dead spare is skipped", round: 3, down: []string{"m1", "s0"},
			want: want{group0: []string{"m0", "s1", "m2"}, leads: []int{0, 0}, drafted: []string{"s1"},
				changes: []scoreChange{{opBench, "m1", 0, 1}, {opDraft, "s1", 0, 1}}},
		},
		{
			name: "two benched members take both spares", round: 5, down: []string{"m1", "m2"},
			want: want{group0: []string{"m0", "s0", "s1"}, leads: []int{2, 0}, drafted: []string{"s0", "s1"},
				changes: []scoreChange{{opBench, "m1", 0, 1}, {opDraft, "s0", 0, 1}, {opBench, "m2", 0, 2}, {opDraft, "s1", 0, 2}}},
		},
		{
			name: "spares held by other plans leave the victim seated", round: 3, down: []string{"m2"}, held: []string{"s0", "s1"},
			want: want{group0: addrsOf(m[0], m[1], m[2]), leads: []int{0, 0},
				changes: []scoreChange{{opBench, "m2", 0, 2}}},
		},
		{
			name: "announcer is never substituted", round: 3, down: []string{"m0"},
			want: want{group0: addrsOf(m[0], m[1], m[2]), leads: []int{0, 0},
				changes: []scoreChange{{opBench, "m0", 0, 0}}},
		},
		{
			name: "benched announcer past cooldown is re-admitted", round: 5, benchedAt: map[string]uint32{"m0": 2},
			want: want{group0: addrsOf(m[0], m[1], m[2]), leads: []int{2, 0},
				changes: []scoreChange{{opReadmit, "m0", 0, 0}}},
		},
		{
			name: "cooldown round keeps a healthy member benched", round: 5, benchedAt: map[string]uint32{"m2": 4},
			want: want{group0: []string{"m0", "m1", "s0"}, leads: []int{2, 0}, drafted: []string{"s0"},
				changes: []scoreChange{{opDraft, "s0", 0, 2}}},
		},
		{
			name: "re-admitted after the cooldown", round: 6, benchedAt: map[string]uint32{"m2": 4},
			want: want{group0: addrsOf(m[0], m[1], m[2]), leads: []int{0, 0},
				changes: []scoreChange{{opReadmit, "m2", 0, 2}}},
		},
		{
			name: "benched and still down stays benched", round: 9, down: []string{"m2"}, benchedAt: map[string]uint32{"m2": 4},
			want: want{group0: []string{"m0", "m1", "s0"}, leads: []int{0, 0}, drafted: []string{"s0"},
				changes: []scoreChange{{opDraft, "s0", 0, 2}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, changes, logs := decidePlan(input(all, tc.round, tc.down, tc.benchedAt, tc.held))
			got := want{group0: addrs(plan.groups[0]), leads: plan.leads, drafted: plan.drafted, changes: changes}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("decision = %+v\nwant       %+v", got, tc.want)
			}
			if got := addrs(plan.groups[1]); !reflect.DeepEqual(got, []string{"n0"}) {
				t.Errorf("unsharded position planned as %v, want [n0]", got)
			}
			if len(changes) > 0 && len(logs) == 0 {
				t.Error("score transitions with nothing to log")
			}

			// The same input with every map filled in the reverse order
			// gives the same plan, transitions and log lines.
			reversed := slices.Clone(all)
			slices.Reverse(reversed)
			plan2, changes2, logs2 := decidePlan(input(reversed, tc.round, tc.down, tc.benchedAt, tc.held))
			if !reflect.DeepEqual(plan, plan2) || !reflect.DeepEqual(changes, changes2) || !reflect.DeepEqual(logs, logs2) {
				t.Errorf("map insertion order changed the decision:\n%+v %v %q\n%+v %v %q", plan, changes, logs, plan2, changes2, logs2)
			}
		})
	}
}

// TestConcurrentPlansNeverShareSpare opens an add-friend and a dialing
// plan at once over one benched slot and one spare whose probe returns
// only when both plans are inside it: the plans overlap between probing
// and committing. Exactly one of them may draft the spare.
func TestConcurrentPlansNeverShareSpare(t *testing.T) {
	c, members, spare := newStubCoordinator()
	members[2].alive = false
	var mu sync.Mutex
	arrived := 0
	both := make(chan struct{})
	spare.onProbe = func() {
		mu.Lock()
		if arrived++; arrived == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-time.After(5 * time.Second):
		}
	}

	services := []wire.Service{wire.AddFriend, wire.Dialing}
	plans := make([]*roundPlan, len(services))
	var wg sync.WaitGroup
	for i, svc := range services {
		wg.Add(1)
		go func(i int, svc wire.Service) {
			defer wg.Done()
			plans[i] = c.planRound(svc, 1)
		}(i, svc)
	}
	wg.Wait()

	holders := 0
	for _, p := range plans {
		if p.groups[0][2] == Mixer(spare) {
			holders++
		}
	}
	if holders != 1 {
		t.Errorf("%d concurrent plans drafted the one spare, want exactly 1", holders)
	}
	drafts := 0
	for _, p := range c.plans {
		drafts += len(p.drafted)
	}
	if drafts != 1 {
		t.Errorf("the open plans hold %d drafts, want 1", drafts)
	}
}

func TestBenchDraftAndReadmit(t *testing.T) {
	c, members, spare := newStubCoordinator()
	victim := members[2] // pos 0, shard slot 2

	// Round 1: the victim is down at plan time — benched, spare drafted
	// into its exact slot.
	victim.alive = false
	plan := c.planRound(wire.Dialing, 1)
	if got := plan.groups[0][2]; got != Mixer(spare) {
		t.Fatalf("round 1: slot 2 holds %v, want the drafted spare", got)
	}
	if got := addrs(plan.groups[0])[2]; got != spare.addr {
		t.Errorf("round 1: shard network lists %s at slot 2, want spare %s", got, spare.addr)
	}

	// Round 2 overlaps round 1: the single spare is already committed,
	// so the benched victim keeps its slot (and the round rides on it).
	plan2 := c.planRound(wire.Dialing, 2)
	if got := plan2.groups[0][2]; got != Mixer(victim) {
		t.Errorf("round 2: slot 2 holds %v, want the benched victim (spare pool exhausted)", got)
	}
	c.dropPlan(wire.Dialing, 1)
	c.dropPlan(wire.Dialing, 2)

	// The victim restarts. Cooldown: one round of distance from the
	// bench round is required even with a healthy probe.
	victim.alive = true
	plan = c.planRound(wire.Dialing, 2)
	if got := plan.groups[0][2]; got != Mixer(spare) {
		t.Errorf("cooldown round: slot 2 holds %v, want the spare", got)
	}
	c.dropPlan(wire.Dialing, 2)

	// Past the cooldown it is re-admitted automatically.
	plan = c.planRound(wire.Dialing, 3)
	if got := plan.groups[0][2]; got != Mixer(victim) {
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
	if got := plan.groups[0][0]; got != Mixer(members[0]) {
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
