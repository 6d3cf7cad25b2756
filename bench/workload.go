package main

import (
	"bufio"
	"fmt"
	mathrand "math/rand"
	"sync"

	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// A workload is one shape of round. The four of them price the regimes
// the system has: a bulk round the mix chain carries, a round the
// recipient's trial decryption carries, a round the servers' own noise
// carries, and a round so small that only fixed cost is left.
type workload struct {
	name    string
	why     string
	service wire.Service
	// synthReal and synthCover are the synthetic onions per round from
	// sim.GenerateBatch: correctly formed requests without client state
	// behind them. Real ones reach a mailbox, cover ones are dropped by
	// the last position.
	synthReal, synthCover int
	// mu is the noise mean per position and mailbox for the workload's
	// service (b is 0, so counts repeat exactly); the other service keeps
	// mu 2.
	mu        float64
	mailboxes uint32
	// clients is how many real core.Clients take part every round.
	clients int
	// freshSender adds one more client per round that befriends client 0
	// and is never used again.
	freshSender bool
	// allScan puts every client's scan inside the clock; otherwise only
	// the recipient's (client 1 of a dialing pair, client 0 with
	// freshSender) is.
	allScan bool
	// warmup rounds run first and are discarded; timed rounds then run
	// until the run's seconds are used up, at least minRounds and at most
	// maxRounds of them.
	warmup, minRounds, maxRounds int
}

var workloads = []workload{
	{
		name:    "dial-bulk",
		why:     "5000 dialing onions, little noise: peel, shuffle, hop-to-hop transfer and Bloom build carry the round; the scan is negligible",
		service: wire.Dialing, synthReal: 250, synthCover: 4750, mu: 2, mailboxes: 4,
		clients: 2, warmup: 2, minRounds: 6, maxRounds: 200,
	},
	{
		name:    "addfriend-scan",
		why:     "1000 add-friend requests in one mailbox: the recipient's trial decryption (ibe, bn254) carries the round and the mix chain little",
		service: wire.AddFriend, synthReal: 1000, mu: 2, mailboxes: 1,
		clients: 1, freshSender: true, warmup: 1, minRounds: 4, maxRounds: 60,
	},
	{
		name:    "noise-only",
		why:     "two clients and 24000 server-made noise onions: noise wrapping is on the critical path, as in a deployment with few users",
		service: wire.Dialing, mu: 2000, mailboxes: 4,
		clients: 2, warmup: 1, minRounds: 4, maxRounds: 200,
	},
	{
		name:    "small-rounds",
		why:     "16 real clients and about 50 onions: planning, announce fan-out, route set-up, PKG round keys, disk seal and 16 small fetches dominate",
		service: wire.AddFriend, mu: 2, mailboxes: 1,
		clients: 16, allScan: true, warmup: 2, minRounds: 10, maxRounds: 100,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload to smoke-test size: the same code paths with a
// few dozen onions.
func (w workload) toy() workload {
	if w.synthReal > 0 {
		w.synthReal = 8
	}
	if w.synthCover > 0 {
		w.synthCover = 12
	}
	if w.mu > 4 {
		w.mu = 4
	}
	if w.clients > 4 {
		w.clients = 4
	}
	w.warmup, w.minRounds, w.maxRounds = 0, 2, 2
	return w
}

// noisePerMailbox is how many noise requests every mailbox holds after a
// round: each of a position's shards draws ceil(mu/shards) per mailbox.
func noisePerMailbox(mu float64) int {
	perShard := int((mu + shardsPerPos - 1) / shardsPerPos)
	return numPositions * shardsPerPos * perShard
}

// synthBatch is one round's synthetic traffic, already split by the
// frontend that will admit it.
type synthBatch struct {
	onions [numFrontends][][]byte
	// perMailbox counts the real requests addressed to each mailbox;
	// tokens lists the dial tokens among them, by mailbox.
	perMailbox map[uint32]int
	tokens     map[uint32][][]byte
}

const numFrontends = 2

func (b *synthBatch) size() int { return len(b.onions[0]) + len(b.onions[1]) }

// generate builds the round's synthetic onions on one goroutine per
// frontend. Everything random about them — bodies, onion keys, which
// mailbox a real request goes to — comes from seed, so the same seed
// gives the same inputs; only the round keys they are wrapped for differ
// between runs.
func (w workload) generate(settings *wire.RoundSettings, seed int64) (*synthBatch, error) {
	b := &synthBatch{perMailbox: make(map[uint32]int), tokens: make(map[uint32][][]byte)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, numFrontends)
	for g := 0; g < numFrontends; g++ {
		real := w.synthReal / numFrontends
		cover := w.synthCover / numFrontends
		if g == 0 {
			real += w.synthReal % numFrontends
			cover += w.synthCover % numFrontends
		}
		wg.Add(1)
		go func(g, real, cover int) {
			defer wg.Done()
			rng := mathrand.New(mathrand.NewSource(seed*numFrontends + int64(g)))
			rd := bufio.NewReader(rng)
			for i := 0; i < real; i++ {
				mb := uint32(rng.Intn(int(settings.NumMailboxes)))
				var token []byte
				if w.service == wire.Dialing {
					// The body of a synthetic dialing request is the next
					// TokenSize bytes GenerateBatch reads; peeking at them
					// is how the round's Bloom filters can be checked for
					// every token that went in.
					peek, err := rd.Peek(keywheel.TokenSize)
					if err != nil {
						errs[g] = err
						return
					}
					token = append([]byte(nil), peek...)
				}
				onions, err := sim.GenerateBatch(rd, settings, sim.Workload{
					Real: 1, MailboxOf: func(int) uint32 { return mb },
				})
				if err != nil {
					errs[g] = err
					return
				}
				b.onions[g] = append(b.onions[g], onions...)
				mu.Lock()
				b.perMailbox[mb]++
				if token != nil {
					b.tokens[mb] = append(b.tokens[mb], token)
				}
				mu.Unlock()
			}
			onions, err := sim.GenerateBatch(rd, settings, sim.Workload{Cover: cover})
			if err != nil {
				errs[g] = err
				return
			}
			b.onions[g] = append(b.onions[g], onions...)
		}(g, real, cover)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generating synthetic batch: %w", err)
		}
	}
	return b, nil
}
