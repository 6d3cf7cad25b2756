package main

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"time"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/bls"
	"alpenhorn/internal/bn254"
	"alpenhorn/internal/email"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// timeEach runs fn n times and returns the mean seconds per call.
func timeEach(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(n)
}

// primitiveProbes times the primitive layers' exported functions in
// fixed-count loops on inputs of the workload's size: the onion is the
// workload's service's, the scan batch and Bloom filter are one mailbox's
// worth. scale shrinks the loop counts (the smoke test passes a small
// one). The loops run one after another on one goroutine, so a number
// here is a per-call cost on an otherwise idle process.
func primitiveProbes(w workload, scale float64) (map[string]float64, error) {
	out := make(map[string]float64)
	count := func(n int) int {
		if n = int(float64(n) * scale); n < 2 {
			n = 2
		}
		return n
	}
	mailbox := (w.synthReal+w.clients)/int(w.mailboxes) + noisePerMailbox(w.mu)

	// onionbox: peel the outer layer of a 3-hop onion; wrap all 3.
	var hops []*onionbox.PublicKey
	var privs []*onionbox.PrivateKey
	for i := 0; i < numPositions; i++ {
		pub, priv, err := onionbox.GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		hops, privs = append(hops, pub), append(privs, priv)
	}
	payload := make([]byte, wire.PayloadSize(w.service))
	onion, err := onionbox.WrapOnion(rand.Reader, hops, payload)
	if err != nil {
		return nil, err
	}
	out["onionbox.wrap3_us"] = 1e6 * timeEach(count(1000), func() { onionbox.WrapOnion(rand.Reader, hops, payload) })
	out["onionbox.open_us"] = 1e6 * timeEach(count(2000), func() { onionbox.Open(privs[0], onion) })

	// noise: a Laplace draw at the paper's dialing parameters.
	out["noise.sample_ns"] = 1e9 * timeEach(count(20000), func() { noise.DialingNoise.Sample(rand.Reader) })

	// rpc: a DefaultStreamChunk of onions to a handler that drops them,
	// which is what a hop-to-hop transfer costs without the peel.
	srv := rpc.NewServer()
	rpc.HandleFunc(srv, "sink", func(a struct {
		Batch [][]byte `json:"batch"`
	}) (any, error) {
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client := rpc.Dial(addr)
	defer client.Close()
	chunk := make([][]byte, mixnet.DefaultStreamChunk)
	for i := range chunk {
		chunk[i] = onion
	}
	args := struct {
		Batch [][]byte `json:"batch"`
	}{chunk}
	if err := client.Call("sink", args, nil); err != nil {
		return nil, err
	}
	calls := count(40)
	sent0 := client.Stats().BytesSent
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out["rpc.chunk_call_ms"] = 1e3 * timeEach(calls, func() { err = client.Call("sink", args, nil) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	onions := float64(calls * len(chunk))
	out["rpc.wire_ratio"] = float64(client.Stats().BytesSent-sent0) / (onions * float64(len(onion)))
	out["rpc.allocs_per_onion"] = float64(ms1.Mallocs-ms0.Mallocs) / onions
	out["rpc.small_call_us"] = 1e6 * timeEach(count(2000), func() { client.Call("sink", struct{}{}, nil) })

	// pkgserver and bls: a round key, an extraction, and the attestation
	// check the client runs on each extraction.
	provider := email.NewInMemoryProvider()
	pkg, err := pkgserver.New(pkgserver.Config{Name: "probe", Provider: provider})
	if err != nil {
		return nil, err
	}
	const user = "user@bench.example"
	du, err := sim.RegisterDirect(pkg, provider, user)
	if err != nil {
		return nil, err
	}
	round := uint32(0)
	var rk wire.PKGRoundKey
	out["pkgserver.new_round_ms"] = 1e3 * timeEach(count(50), func() {
		round++
		rk, err = pkg.NewRoundV2(round)
	})
	if err != nil {
		return nil, err
	}
	sig := du.SignExtract(user, round)
	var reply *pkgserver.ExtractReply
	out["pkgserver.extract_us"] = 1e6 * timeEach(count(200), func() { reply, err = pkg.Extract(user, round, sig) })
	if err != nil {
		return nil, err
	}
	attMsg := wire.AttestationMessage(user, du.Pub, round)
	ok := true
	out["bls.verify_ms"] = 1e3 * timeEach(count(50), func() { ok = ok && bls.Verify(pkg.BLSKey(), attMsg, reply.Attestation) })
	if !ok {
		return nil, fmt.Errorf("probe: PKG attestation did not verify")
	}

	// ibe and bn254: encrypt one request; trial-decrypt a mailbox-sized
	// batch of ciphertexts meant for someone else, as a scan does.
	mpk, err := ibe.UnmarshalMasterPublicKey(rk.MasterKey)
	if err != nil {
		return nil, err
	}
	mpk.PrecomputeV2()
	request := make([]byte, wire.FriendRequestSize)
	out["ibe.encrypt_ms"] = 1e3 * timeEach(count(50), func() { ibe.EncryptV2(rand.Reader, mpk, user, request) })
	batch := mailbox
	if batch > 256 {
		batch = 256
	}
	ctxts, err := ibe.RandomCiphertexts(rand.Reader, wire.FriendRequestSize, count(batch))
	if err != nil {
		return nil, err
	}
	key := reply.IdentityKey.PrecomputeV2()
	out["ibe.decrypt_batch_us"] = 1e6 * timeEach(2, func() { ibe.DecryptBatchV2(key, ctxts) }) / float64(len(ctxts))
	g1, g2 := bn254.G1Generator(), bn254.G2Generator()
	out["bn254.ate_pair_us"] = 1e6 * timeEach(count(200), func() { bn254.AtePair(g1, g2) })

	// bloom and keywheel: build one mailbox's filter, test one token,
	// derive one token.
	tokens := make([][]byte, mailbox)
	for i := range tokens {
		tokens[i] = make([]byte, keywheel.TokenSize)
		rand.Read(tokens[i])
	}
	var filter *bloom.Filter
	out["bloom.build_us_per_elem"] = 1e6 * timeEach(count(20), func() {
		filter = bloom.NewFromElements(tokens, bloom.DefaultBitsPerElement)
	}) / float64(len(tokens))
	out["bloom.test_ns"] = 1e9 * timeEach(count(100000), func() { filter.Test(tokens[0]) })
	var secret [keywheel.SecretSize]byte
	wheel := keywheel.New(firstDialRound, &secret)
	out["keywheel.dial_token_us"] = 1e6 * timeEach(count(20000), func() { wheel.DialToken(firstDialRound, 0, user) })
	return out, nil
}
