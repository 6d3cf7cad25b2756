// Benchmarks reproducing every figure and measured claim in the Alpenhorn
// paper's evaluation (§8). Each benchmark corresponds to an entry in the
// experiment index of EXPERIMENTS.md; cmd/alpenhorn-bench prints the full
// series the paper's figures plot. Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics are the paper-comparable quantities (mailbox
// bytes, requests/sec, projected latency seconds).
package alpenhorn_test

import (
	"context"
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/model"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"

	emailpkg "alpenhorn/internal/email"
)

func testingNow() time.Time            { return time.Now() }
func testingSince(t time.Time) float64 { return time.Since(t).Seconds() }

// ---- Figure 6 / Figure 7: client bandwidth vs round duration ----

// BenchmarkFig6AddFriendBandwidth regenerates Figure 6: add-friend client
// bandwidth at 100K/1M/10M users. The mailbox model is driven by this
// codebase's real message sizes; the benchmark measures the cost of
// evaluating a full sweep and reports the headline bandwidth numbers.
func BenchmarkFig6AddFriendBandwidth(b *testing.B) {
	durations := []float64{1800, 3600, 2 * 3600, 4 * 3600, 8 * 3600, 24 * 3600}
	var last float64
	for i := 0; i < b.N; i++ {
		for _, users := range []float64{1e5, 1e6, 1e7} {
			p := model.PaperParams(users, 3)
			for _, d := range durations {
				last = p.AddFriendBandwidth(d)
			}
		}
	}
	_ = last
	p := model.PaperParams(1e6, 3)
	b.ReportMetric(p.AddFriendMailboxModel().Bytes/1e6, "MB/mailbox@1M")
	b.ReportMetric(p.AddFriendBandwidth(3600)/1024, "KB/s@1M,1h")
	b.ReportMetric(model.PaperParams(1e7, 3).AddFriendBandwidth(3600)/1024, "KB/s@10M,1h")
}

// BenchmarkFig7DialingBandwidth regenerates Figure 7: dialing client
// bandwidth at 100K/1M/10M users.
func BenchmarkFig7DialingBandwidth(b *testing.B) {
	durations := []float64{60, 120, 180, 240, 300, 480, 600}
	var last float64
	for i := 0; i < b.N; i++ {
		for _, users := range []float64{1e5, 1e6, 1e7} {
			p := model.PaperParams(users, 3)
			for _, d := range durations {
				last = p.DialingBandwidth(d)
			}
		}
	}
	_ = last
	b.ReportMetric(model.PaperParams(1e6, 3).DialingMailboxModel().Bytes/1e6, "MB/filter@1M")
	b.ReportMetric(model.PaperParams(1e7, 3).DialingBandwidth(300)/1024, "KB/s@10M,5min")
}

// ---- Figures 8/9: round latency vs users and servers ----

// runMixRound measures one real dialing batch through an in-process chain
// (mixnet.Chain: full-batch barriers, so dividing by the server count is
// meaningful), returning seconds per message per server.
func runMixRound(b *testing.B, numServers, batchSize int) float64 {
	b.Helper()
	servers, batch := newBenchChain(b, numServers, 0, batchSize, 1)
	start := testingNow()
	if _, err := mixnet.Chain(servers, wire.Dialing, 1, 1, batch); err != nil {
		b.Fatal(err)
	}
	return testingSince(start) / float64(batchSize) / float64(numServers)
}

// BenchmarkFig8AddFriendLatency regenerates Figure 8's shape: measured
// per-message mix cost at laptop scale, extrapolated to 10K-10M users via
// the calibrated model, for 3/5/10 servers.
func BenchmarkFig8AddFriendLatency(b *testing.B) {
	var perMsg float64
	for i := 0; i < b.N; i++ {
		perMsg = runMixRound(b, 3, 4000)
	}
	cal := model.PaperCalibration()
	cal.MixSecondsPerMessage = perMsg
	// The Montgomery-limb pairing decrypts within ~4x of the paper's
	// BN-256 assembly (it was ~100x off on big.Int before the limb
	// backend); report both calibrations to separate model shape from
	// substrate speed.
	cal.IBEDecryptSeconds = measureIBEDecrypt(b)
	ours := model.PaperParams(1e7, 3).AddFriendLatency(cal)
	paper := model.PaperParams(1e7, 3).AddFriendLatency(model.PaperCalibration())
	b.ReportMetric(perMsg*1e6, "µs/msg/server")
	b.ReportMetric(ours, "s@10M,3srv(ours)")
	b.ReportMetric(paper, "s@10M,3srv(papercal)")
}

// BenchmarkFig9DialingLatency regenerates Figure 9's shape.
func BenchmarkFig9DialingLatency(b *testing.B) {
	var perMsg float64
	for i := 0; i < b.N; i++ {
		perMsg = runMixRound(b, 3, 4000)
	}
	cal := model.PaperCalibration()
	cal.MixSecondsPerMessage = perMsg
	b.ReportMetric(perMsg*1e6, "µs/msg/server")
	b.ReportMetric(model.PaperParams(1e7, 3).DialingLatency(cal, 1000, 10), "s@10M,3srv")
	b.ReportMetric(model.PaperParams(1e7, 10).DialingLatency(cal, 1000, 10), "s@10M,10srv")
}

// ---- Figure 10: Zipf-skewed popularity ----

// BenchmarkFig10ZipfSkew regenerates Figure 10: mailbox-size spread (which
// drives per-user latency spread) as recipient popularity skews.
func BenchmarkFig10ZipfSkew(b *testing.B) {
	const users = 100000
	const k = 4
	var maxLoad int
	for i := 0; i < b.N; i++ {
		for _, s := range []float64{0, 0.5, 1, 1.5, 2} {
			z := model.NewZipf(users, s)
			counts, err := z.MailboxLoad(rand.Reader, users/20, k)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range counts {
				if c > maxLoad {
					maxLoad = c
				}
			}
		}
	}
	// Paper: median latency constant; max grows with skew. Report the
	// top-10 concentration at s=2 (paper: 94.2%).
	b.ReportMetric(model.NewZipf(1000000, 2).TopShare(10)*100, "top10-share-%@s=2")
}

// ---- §8.2 microbenchmarks (T1-T4) ----

func measureIBEDecrypt(b *testing.B) float64 {
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	// Scan configuration (see model.CostCalibration.IBEDecryptSeconds):
	// clients trial-decrypt mailboxes through DecryptBatch with a key whose
	// Miller ladder is precomputed once, so the calibration wants the
	// marginal per-ciphertext cost of the batched pipeline.
	key := ibe.Extract(priv, "bob@example.org").Precompute()
	const batch = 16
	ctxts := make([][]byte, batch)
	for i := 1; i < batch; i++ {
		c, err := ibe.RandomCiphertext(rand.Reader, wire.FriendRequestSize)
		if err != nil {
			b.Fatal(err)
		}
		ctxts[i] = c
	}
	ctxts[0], err = ibe.Encrypt(rand.Reader, pub, "bob@example.org", make([]byte, wire.FriendRequestSize))
	if err != nil {
		b.Fatal(err)
	}
	ibe.DecryptBatch(key, ctxts) // warm the scratch pool
	start := testingNow()
	const reps = 3
	for i := 0; i < reps; i++ {
		if _, oks := ibe.DecryptBatch(key, ctxts); !oks[0] {
			b.Fatal("decrypt failed")
		}
	}
	return testingSince(start) / (reps * batch)
}

// BenchmarkIBEDecrypt is T1: the paper's prototype does 800 decryptions
// per second per core on BN-256 assembly; this measures our BN254
// substitute on the Montgomery-limb backend (~200+/sec — within ~4x of
// the assembly, vs ~7/sec on the original big.Int arithmetic; see
// EXPERIMENTS.md). The regression pin in internal/bn254 keeps the limb
// backend ≥5x the retained big.Int reference.
func BenchmarkIBEDecrypt(b *testing.B) {
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ctxt, err := ibe.Encrypt(rand.Reader, pub, "bob@example.org", make([]byte, wire.FriendRequestSize))
	if err != nil {
		b.Fatal(err)
	}
	key := ibe.Extract(priv, "bob@example.org")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ibe.Decrypt(key, ctxt)
	}
	b.ReportMetric(1/b.Elapsed().Seconds()*float64(b.N), "decrypts/sec")
}

// BenchmarkMailboxScan is T1's scan claim: time to trial-decrypt a
// mailbox. The paper scans 24,000 requests in 8 s on 4 cores; we scan a
// proportionally smaller mailbox and report the per-request cost. The
// "batched" sub-benchmark is the real client path — DecryptBatch with the
// Montgomery-trick shared inversions, as core.Client.ScanAddFriendRound
// runs it — and "unbatched" is the per-ciphertext loop it replaced, kept
// for the speedup comparison.
func BenchmarkMailboxScan(b *testing.B) {
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	key := ibe.Extract(priv, "bob@example.org")
	const mailboxSize = 16
	ctxts := make([][]byte, mailboxSize)
	for i := 0; i < mailboxSize-1; i++ {
		c, err := ibe.RandomCiphertext(rand.Reader, wire.FriendRequestSize)
		if err != nil {
			b.Fatal(err)
		}
		ctxts[i] = c
	}
	ctxts[mailboxSize-1], err = ibe.Encrypt(rand.Reader, pub, "bob@example.org", make([]byte, wire.FriendRequestSize))
	if err != nil {
		b.Fatal(err)
	}

	// The real scan path (core.Client.ScanAddFriendRound) precomputes the
	// key's Miller-loop ladder once per mailbox; mirror it here.
	key.Precompute()
	scan := func(b *testing.B, scanOnce func() int) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if found := scanOnce(); found != 1 {
				b.Fatalf("found %d of 1", found)
			}
		}
		perReq := b.Elapsed().Seconds() / float64(b.N) / mailboxSize
		b.ReportMetric(perReq, "sec/request")
		b.ReportMetric(24000*perReq/4, "proj-sec/24k-mailbox/4cores")
	}
	b.Run("batched", func(b *testing.B) {
		scan(b, func() int {
			found := 0
			_, oks := ibe.DecryptBatch(key, ctxts)
			for _, ok := range oks {
				if ok {
					found++
				}
			}
			return found
		})
	})
	b.Run("unbatched", func(b *testing.B) {
		scan(b, func() int {
			found := 0
			for _, c := range ctxts {
				if _, ok := ibe.Decrypt(key, c); ok {
					found++
				}
			}
			return found
		})
	})
}

// BenchmarkKeywheelAdvance is T2: the paper computes 1M keywheel hashes
// per second per core.
func BenchmarkKeywheelAdvance(b *testing.B) {
	var secret [keywheel.SecretSize]byte
	rand.Read(secret[:])
	w := keywheel.New(0, &secret)
	b.ResetTimer()
	if err := w.Advance(uint32(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hashes/sec")
}

// BenchmarkDialScan is T2's scan claim: 1000 friends x 10 intents against
// one round's Bloom filter in under a second.
func BenchmarkDialScan(b *testing.B) {
	const friends = 1000
	const intents = 10
	var secret [keywheel.SecretSize]byte
	rand.Read(secret[:])
	wheels := make([]*keywheel.Wheel, friends)
	for i := range wheels {
		wheels[i] = keywheel.New(0, &secret)
	}
	f := bloom.New(125000, bloom.DefaultBitsPerElement)
	tok, _ := wheels[7].DialToken(0, 3, "friend7")
	f.Add(tok[:])

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for fi, w := range wheels {
			for intent := uint32(0); intent < intents; intent++ {
				tok, err := w.DialToken(0, intent, fmt.Sprintf("friend%d", fi))
				if err != nil {
					b.Fatal(err)
				}
				if f.Test(tok[:]) {
					hits++
				}
			}
		}
		if hits != 1 {
			b.Fatalf("hits = %d", hits)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "sec/full-scan")
}

// BenchmarkKeyExtraction is T3: client-side combined key extraction
// against 3 and 10 in-process PKGs (paper: 4.9 ms and 5.2 ms medians —
// network-latency dominated; ours measures the computation).
func BenchmarkKeyExtraction(b *testing.B) {
	for _, numPKGs := range []int{3, 10} {
		b.Run(fmt.Sprintf("pkgs=%d", numPKGs), func(b *testing.B) {
			net, err := sim.NewNetwork(sim.Config{NumPKGs: numPKGs, Shards: []int{1}})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(net.Close)
			h := &sim.Handler{AcceptAll: true}
			client, err := net.NewClient("bench@example.org", h)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round := uint32(i + 1)
				if _, err := net.Coord.OpenAddFriendRound(round); err != nil {
					b.Fatal(err)
				}
				// Submit includes extraction of all PKG key shares
				// plus attestation verification.
				if err := client.SubmitAddFriendRound(context.Background(), round); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPKGExtract is T4: server-side extraction throughput (paper:
// 4310 extractions/sec on 36 cores with assembly).
func BenchmarkPKGExtract(b *testing.B) {
	provider := emailpkg.NewInMemoryProvider()
	pkg, err := pkgserver.New(pkgserver.Config{Name: "p", Provider: provider})
	if err != nil {
		b.Fatal(err)
	}
	client, err := sim.RegisterDirect(pkg, provider, "user@example.org")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pkg.NewRound(1); err != nil {
		b.Fatal(err)
	}
	sig := client.SignExtract("user@example.org", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pkg.Extract("user@example.org", 1, sig); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "extractions/sec")
}

// ---- T5: message sizes ----

// TestPaperSizes records this implementation's message sizes next to the
// paper's (see EXPERIMENTS.md): the paper's friend request is 308 bytes
// (244 + 64 B of IBE overhead); ours carries 80 B of overhead, an
// uncompressed 64 B G1 ciphertext element plus a 16 B AES-GCM tag.
func TestPaperSizes(t *testing.T) {
	t.Logf("friend request plaintext:  %d B (paper: 244 B)", wire.FriendRequestSize)
	t.Logf("encrypted friend request:  %d B (paper: 308 B)", wire.EncryptedFriendRequestSize)
	t.Logf("IBE ciphertext overhead:   %d B (paper: 64 B; ours: 64 B G1 point + 16 B tag)", ibe.Overhead)
	t.Logf("dial token:                %d B (paper: 32 B)", keywheel.TokenSize)
	t.Logf("add-friend onion (3 hops): %d B", wire.OnionSize(wire.AddFriend, 3))
	t.Logf("dialing onion (3 hops):    %d B", wire.OnionSize(wire.Dialing, 3))
	if wire.EncryptedFriendRequestSize < 244+ibe.Overhead {
		t.Fatal("request cannot be smaller than payload plus overhead")
	}
	if keywheel.TokenSize != 32 {
		t.Fatal("dial tokens must be 256 bits (paper §5)")
	}
}

// ---- T8/A1: IBE constructions ----

// BenchmarkAnytrustVsOnion is ablation A1: Anytrust-IBE (the paper's
// contribution) vs the naive onion construction it replaces (§4.2).
// Anytrust decryption time and ciphertext size are constant in the number
// of PKGs; onion grows linearly in both.
func BenchmarkAnytrustVsOnion(b *testing.B) {
	msg := make([]byte, 64)
	for _, n := range []int{1, 3, 10} {
		var pubs []*ibe.MasterPublicKey
		var privs []*ibe.MasterPrivateKey
		for i := 0; i < n; i++ {
			pub, priv, err := ibe.Setup(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			pubs = append(pubs, pub)
			privs = append(privs, priv)
		}
		var idKeys []*ibe.IdentityPrivateKey
		for _, priv := range privs {
			idKeys = append(idKeys, ibe.Extract(priv, "bob@x.org"))
		}

		b.Run(fmt.Sprintf("anytrust/pkgs=%d", n), func(b *testing.B) {
			agg := ibe.AggregateMasterKeys(pubs...)
			combined := ibe.AggregatePrivateKeys(idKeys...)
			ctxt, err := ibe.Encrypt(rand.Reader, agg, "bob@x.org", msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ibe.Decrypt(combined, ctxt); !ok {
					b.Fatal("decrypt failed")
				}
			}
			b.ReportMetric(float64(len(ctxt)), "ctxt-bytes")
		})
		b.Run(fmt.Sprintf("onion/pkgs=%d", n), func(b *testing.B) {
			ctxt, err := ibe.OnionEncrypt(rand.Reader, pubs, "bob@x.org", msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ibe.OnionDecrypt(idKeys, ctxt); !ok {
					b.Fatal("decrypt failed")
				}
			}
			b.ReportMetric(float64(len(ctxt)), "ctxt-bytes")
		})
	}
}

// BenchmarkIBESweep is T8 (§8.6): how Alpenhorn's costs scale with the
// underlying IBE construction — encryption, extraction, decryption.
func BenchmarkIBESweep(b *testing.B) {
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, wire.FriendRequestSize)
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ibe.Encrypt(rand.Reader, pub, "bob@x.org", msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ibe.Extract(priv, "bob@x.org")
		}
	})
}

// ---- The reference chain, by worker count ----

// newBenchChain builds an n-server chain with the given decryption worker
// count, opens round 1, and returns the servers plus a wrapped dialing
// batch addressed round-robin to numMailboxes mailboxes.
func newBenchChain(b *testing.B, numServers, workers, batchSize int, numMailboxes uint32) ([]*mixnet.Server, [][]byte) {
	b.Helper()
	nz := noise.Laplace{Mu: 2, B: 0}
	servers := make([]*mixnet.Server, numServers)
	keys := make([][]byte, numServers)
	hops := make([]*onionbox.PublicKey, numServers)
	for i := range servers {
		m, err := mixnet.New(mixnet.Config{
			Name: "m", Position: i, ChainLength: numServers,
			AddFriendNoise: &nz, DialingNoise: &nz,
			Parallelism: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = m
		rk, err := m.NewRound(wire.Dialing, 1)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = rk.OnionKey
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			b.Fatal(err)
		}
		hops[i] = pk
	}
	for i, m := range servers {
		if err := m.SetDownstreamKeys(wire.Dialing, 1, keys[i+1:]); err != nil {
			b.Fatal(err)
		}
	}
	batch := make([][]byte, batchSize)
	tok := make([]byte, keywheel.TokenSize)
	for i := range batch {
		tok[0], tok[1] = byte(i), byte(i>>8)
		payload := (&wire.MixPayload{Mailbox: uint32(i) % numMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(rand.Reader, hops, payload)
		if err != nil {
			b.Fatal(err)
		}
		batch[i] = onion
	}
	return servers, batch
}

// benchChain measures a full 3-server dialing round — peel, noise,
// shuffle, mailbox build — through mixnet.Chain at one worker count.
func benchChain(b *testing.B, workers int) {
	const batchSize = 2048
	const numMailboxes = 4
	servers, batch := newBenchChain(b, 3, workers, batchSize, numMailboxes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mixnet.Chain(servers, wire.Dialing, 1, numMailboxes, batch); err != nil {
			b.Fatal(err)
		}
	}
	perRound := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(batchSize)/perRound, "msgs/sec")
	b.ReportMetric(perRound*1e3, "ms/round")
}

// BenchmarkMixSequential is one decryption thread per server, strict
// stage-by-stage chain execution.
func BenchmarkMixSequential(b *testing.B) { benchChain(b, 1) }

// BenchmarkMixParallel uses the worker-pool decrypt path (GOMAXPROCS
// workers) with the chain still running stage by stage. Compare its
// msgs/sec against BenchmarkMixSequential for the multi-core speedup.
func BenchmarkMixParallel(b *testing.B) { benchChain(b, 0) }

// ---- A2: Bloom filter vs raw tokens ----

// BenchmarkBloomVsRaw is ablation A2 (§5.2): dialing mailbox size with and
// without the Bloom filter encoding.
func BenchmarkBloomVsRaw(b *testing.B) {
	for _, tokens := range []int{10000, 125000} {
		b.Run(fmt.Sprintf("tokens=%d", tokens), func(b *testing.B) {
			var f *bloom.Filter
			tok := make([]byte, keywheel.TokenSize)
			for i := 0; i < b.N; i++ {
				f = bloom.New(tokens, bloom.DefaultBitsPerElement)
				for j := 0; j < tokens; j++ {
					tok[0], tok[1], tok[2] = byte(j), byte(j>>8), byte(j>>16)
					f.Add(tok)
				}
			}
			bloomBytes := float64(f.SizeBytes())
			rawBytes := float64(tokens * keywheel.TokenSize)
			b.ReportMetric(bloomBytes/1e6, "bloom-MB")
			b.ReportMetric(rawBytes/bloomBytes, "savings-x")
		})
	}
}
