package mixnet

import (
	"testing"

	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/wire"
)

// BenchmarkMix measures a full 3-server dialing round — peel, noise,
// shuffle, mailbox build — through the reference Chain, stage by stage,
// each server on GOMAXPROCS workers. Run it with -cpu 1,2 and compare
// msgs/sec for the multi-core speedup.
func BenchmarkMix(b *testing.B) {
	const numServers, batchSize, numMailboxes = 3, 2048, 4
	nz := noise.Laplace{Mu: 2, B: 0}
	servers := make([]*Server, numServers)
	for i := range servers {
		s, err := New(Config{
			Name: "m", Position: i, ChainLength: numServers,
			AddFriendNoise: &nz, DialingNoise: &nz,
		})
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = s
	}
	rounds, hops := openRound(b, servers, wire.Dialing, 1, numMailboxes)
	batch := make([][]byte, batchSize)
	for i := range batch {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1] = byte(i), byte(i>>8)
		batch[i] = makeDialOnion(b, hops, uint32(i)%numMailboxes, tok)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Chain(rounds, numMailboxes, batch); err != nil {
			b.Fatal(err)
		}
	}
	perRound := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(batchSize)/perRound, "msgs/sec")
	b.ReportMetric(perRound*1e3, "ms/round")
}
