package main

import (
	"context"
	"fmt"
	mathrand "math/rand"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/core"
	"alpenhorn/internal/wire"
)

// firstDialRound is the first dialing round any workload runs: a fresh
// client proposes dialing round 0 + DialRoundDelta for a new keywheel, so
// befriended clients can call each other from round 2 on.
const firstDialRound = 2

// A deployment is something rounds can be driven on: the TCP fleet, or
// the in-process servers of the layer walk. Both run the same scenario.
type deployment interface {
	// newProbe registers and confirms client i.
	newProbe(ctx context.Context, i int) (*probe, error)
	// runRound drives one round of service with k mailboxes; synth adds
	// the workload's synthetic batch. A returned error means the round
	// could not finish; anything it got wrong short of that is recorded
	// on the scenario.
	runRound(ctx context.Context, sc *scenario, service wire.Service, k uint32, synth bool, plan roundPlan) error
}

// scenario is the part of a workload that is about its real clients: who
// befriends or calls whom in which round, and what each of them must have
// seen afterwards. Everything random in it comes from the seed.
type scenario struct {
	w    workload
	seed int64
	rng  *mathrand.Rand

	clients []*probe // the workload's standing clients
	senders []*probe // freshSender: one used up per round
	// pairs is allScan's befriending order. replyFrom and replyTo are the
	// ends of the friend request accepted last round, whose reply rides
	// the next add-friend round.
	pairs              [][2]*probe
	replyFrom, replyTo *probe

	next map[wire.Service]uint32 // next round number per service

	attempted, failed int
	problems          []string
}

// fail records one failed operation or undelivered request.
func (sc *scenario) fail(format string, args ...any) {
	sc.failed++
	if len(sc.problems) < 20 {
		sc.problems = append(sc.problems, fmt.Sprintf(format, args...))
	}
}

func (sc *scenario) nextRound(service wire.Service) uint32 {
	r := sc.next[service]
	sc.next[service] = r + 1
	return r
}

// other is the service the workload does not run; a traced run adds one
// small round of it.
func (w workload) other() wire.Service {
	if w.service == wire.AddFriend {
		return wire.Dialing
	}
	return wire.AddFriend
}

// roundPlan is what one round does with the real clients and what it must
// deliver.
type roundPlan struct {
	submit  []*probe
	inClock []*probe // scans inside the clock
	after   []*probe // scans once the clock has stopped
	// probeReal counts the clients' real requests by destination mailbox;
	// nil skips the mailbox arithmetic (set-up and complement rounds).
	probeReal map[uint32]int
	// expect is what each client's handler must have seen by the end of
	// the round (session keys aside); clients not listed must have seen
	// nothing. nil skips the check.
	expect map[*probe]*roundEvents
	// caller and callee are the ends of this round's call, whose session
	// keys must match.
	caller, callee *probe
}

func (p roundPlan) probes() []*probe {
	seen := make(map[*probe]bool)
	var all []*probe
	for _, list := range [][]*probe{p.submit, p.inClock, p.after} {
		for _, pr := range list {
			if !seen[pr] {
				seen[pr] = true
				all = append(all, pr)
			}
		}
	}
	return all
}

// newScenario registers the workload's clients on dep and runs whatever
// rounds they need before the first measured one: a dialing pair befriends
// each other over two add-friend rounds. rounds bounds how many measured
// rounds will follow, which is how many fresh senders get registered.
func newScenario(ctx context.Context, dep deployment, w workload, seed int64, rounds int) (*scenario, error) {
	sc := &scenario{
		w: w, seed: seed, rng: mathrand.New(mathrand.NewSource(seed)),
		next: map[wire.Service]uint32{wire.AddFriend: 1, wire.Dialing: firstDialRound},
	}
	for i := 0; i < w.clients; i++ {
		p, err := dep.newProbe(ctx, i)
		if err != nil {
			return nil, err
		}
		sc.clients = append(sc.clients, p)
	}
	if w.freshSender {
		for i := 0; i < rounds; i++ {
			p, err := dep.newProbe(ctx, w.clients+i)
			if err != nil {
				return nil, err
			}
			sc.senders = append(sc.senders, p)
		}
	}
	if w.allScan {
		// Every unordered pair once, in seeded order, so no request ever
		// meets an older one between the same two clients.
		for i, a := range sc.clients {
			for _, b := range sc.clients[i+1:] {
				pair := [2]*probe{a, b}
				if sc.rng.Intn(2) == 1 {
					pair = [2]*probe{b, a}
				}
				sc.pairs = append(sc.pairs, pair)
			}
		}
		sc.rng.Shuffle(len(sc.pairs), func(i, j int) { sc.pairs[i], sc.pairs[j] = sc.pairs[j], sc.pairs[i] })
	}
	if w.service == wire.Dialing {
		a, b := sc.clients[0], sc.clients[1]
		if err := a.client.AddFriend(b.email, nil); err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			if err := dep.runRound(ctx, sc, wire.AddFriend, 1, false, sc.coverPlan()); err != nil {
				return nil, err
			}
		}
		if !a.client.IsFriend(b.email) || !b.client.IsFriend(a.email) {
			return nil, fmt.Errorf("set-up: %s and %s did not become friends", a.email, b.email)
		}
	}
	return sc, nil
}

// coverPlan has every standing client submit whatever it has queued and
// scan, with nothing expected of the round: set-up and complement rounds.
func (sc *scenario) coverPlan() roundPlan {
	return roundPlan{submit: sc.clients, inClock: sc.clients}
}

// plan queues this round's friend request or call and says what the round
// must deliver. k is the round's mailbox count.
func (sc *scenario) plan(k uint32) roundPlan {
	p := roundPlan{probeReal: make(map[uint32]int), expect: make(map[*probe]*roundEvents)}
	expect := func(pr *probe) *roundEvents {
		if p.expect[pr] == nil {
			p.expect[pr] = &roundEvents{}
		}
		return p.expect[pr]
	}
	request := func(from, to *probe) {
		if err := from.client.AddFriend(to.email, nil); err != nil {
			sc.fail("queueing friend request %s -> %s: %v", from.email, to.email, err)
			return
		}
		p.probeReal[wire.MailboxID(to.email, k)]++
		expect(to).newFriends = append(expect(to).newFriends, from.email)
	}
	replying := sc.replyFrom
	if sc.w.service == wire.AddFriend && replying != nil {
		// Last round's recipient accepted; its reply goes out now (it
		// counts the friendship confirmed on sending) and the original
		// sender confirms on receiving it.
		from, to := replying, sc.replyTo
		p.probeReal[wire.MailboxID(to.email, k)]++
		expect(from).confirmed = append(expect(from).confirmed, to.email)
		expect(to).confirmed = append(expect(to).confirmed, from.email)
		sc.replyFrom, sc.replyTo = nil, nil
	}

	switch {
	case sc.w.service == wire.Dialing:
		caller, callee := sc.clients[0], sc.clients[1]
		call := core.Call{Intent: uint32(sc.rng.Intn(numIntents)), Round: sc.next[wire.Dialing]}
		if err := caller.client.Call(callee.email, call.Intent); err != nil {
			sc.fail("queueing call: %v", err)
		}
		p.probeReal[wire.MailboxID(callee.email, k)]++
		out, in := call, call
		out.Friend, in.Friend = callee.email, caller.email
		expect(caller).outgoing = []core.Call{out}
		expect(callee).incoming = []core.Call{in}
		p.caller, p.callee = caller, callee
		p.submit, p.inClock, p.after = sc.clients, []*probe{callee}, []*probe{caller}

	case sc.w.freshSender:
		recipient, sender := sc.clients[0], sc.senders[0]
		sc.senders = sc.senders[1:]
		request(sender, recipient)
		sc.replyFrom, sc.replyTo = recipient, sender
		// The sender never scans, so it never learns of the reply.
		p.submit, p.inClock = []*probe{sender, recipient}, []*probe{recipient}

	default: // allScan
		// The new sender must not be the client whose reply is queued for
		// this round: a client sends one request per round, and two
		// queued ones would make the round's arithmetic depend on which
		// it picks.
		for i, pair := range sc.pairs {
			if pair[0] == replying {
				continue
			}
			sc.pairs = append(sc.pairs[:i:i], sc.pairs[i+1:]...)
			request(pair[0], pair[1])
			sc.replyFrom, sc.replyTo = pair[1], pair[0]
			break
		}
		p.submit, p.inClock = sc.clients, sc.clients
	}
	return p
}

// checkDelivery verifies a finished round from outside: the published
// mailboxes hold exactly what the workload's arithmetic says, every
// synthetic dial token is in its Bloom filter, and each client's handler
// saw this round's events and nothing else.
func (sc *scenario) checkDelivery(service wire.Service, round uint32, k uint32, store *cdn.Store, batch *synthBatch, plan roundPlan) {
	tag := serviceTag(service)
	if plan.probeReal != nil {
		sc.checkMailboxes(service, round, k, store, batch, plan)
	}
	events := make(map[*probe]roundEvents)
	for _, p := range plan.probes() {
		events[p] = p.events.take()
		for _, err := range events[p].errors {
			sc.fail("%s round %d: %s reported: %v", tag, round, p.email, err)
		}
	}
	if plan.expect == nil {
		return
	}
	for p, got := range events {
		var want roundEvents
		if e := plan.expect[p]; e != nil {
			want = *e
		}
		if !sameStrings(got.newFriends, want.newFriends) {
			sc.fail("%s round %d: %s saw friend requests from %v, want %v", tag, round, p.email, got.newFriends, want.newFriends)
		}
		if !sameStrings(got.confirmed, want.confirmed) {
			sc.fail("%s round %d: %s confirmed %v, want %v", tag, round, p.email, got.confirmed, want.confirmed)
		}
		if !sameCalls(got.incoming, want.incoming) {
			sc.fail("%s round %d: %s got incoming calls %v, want %v", tag, round, p.email, callNames(got.incoming), callNames(want.incoming))
		}
		if !sameCalls(got.outgoing, want.outgoing) {
			sc.fail("%s round %d: %s got outgoing calls %v, want %v", tag, round, p.email, callNames(got.outgoing), callNames(want.outgoing))
		}
	}
	if plan.caller != nil {
		out, in := events[plan.caller].outgoing, events[plan.callee].incoming
		if len(out) == 1 && len(in) == 1 && out[0].SessionKey != in[0].SessionKey {
			sc.fail("%s round %d: caller and callee derived different session keys", tag, round)
		}
	}
}

func (sc *scenario) checkMailboxes(service wire.Service, round uint32, k uint32, store *cdn.Store, batch *synthBatch, plan roundPlan) {
	tag := serviceTag(service)
	noise := noisePerMailbox(sc.w.mu)
	boxes, err := store.RoundSnapshot(service, round)
	if err != nil {
		sc.fail("%s round %d: reading the published round: %v", tag, round, err)
		return
	}
	if len(boxes) != int(k) {
		sc.fail("%s round %d: %d mailboxes published, want %d", tag, round, len(boxes), k)
	}
	for mb := uint32(0); mb < k; mb++ {
		real := batch.perMailbox[mb] + plan.probeReal[mb]
		sc.attempted += real
		got := -1
		if service == wire.AddFriend {
			if len(boxes[mb])%wire.EncryptedFriendRequestSize == 0 {
				got = len(boxes[mb]) / wire.EncryptedFriendRequestSize
			}
		} else if filter, err := bloom.Unmarshal(boxes[mb]); err == nil {
			got = int(filter.Entries())
			for _, tok := range batch.tokens[mb] {
				if !filter.Test(tok) {
					sc.fail("%s round %d mailbox %d: a synthetic token is missing from the Bloom filter", tag, round, mb)
				}
			}
		}
		if want := real + noise; got != want {
			sc.fail("%s round %d mailbox %d holds %d requests, want %d (%d real + %d noise)", tag, round, mb, got, want, real, noise)
		}
	}
}

func serviceTag(service wire.Service) string {
	if service == wire.AddFriend {
		return "addfriend"
	}
	return "dial"
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameCalls compares calls by friend, intent and round; the session key is
// not known in advance and is checked between the two ends instead.
func sameCalls(a, b []core.Call) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Friend != b[i].Friend || a[i].Intent != b[i].Intent || a[i].Round != b[i].Round {
			return false
		}
	}
	return true
}

func callNames(calls []core.Call) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = fmt.Sprintf("%s/intent %d/round %d", c.Friend, c.Intent, c.Round)
	}
	return out
}
