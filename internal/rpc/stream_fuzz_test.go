package rpc

import (
	"crypto/rand"
	"encoding/json"
	"slices"
	"testing"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/wire"
)

// FuzzStreamArgs drives one daemon's intake with a sequence of mix.stream
// calls whose stage, upstream slot and blob count are the fuzzer's. role picks the daemon: 0 is a depositor at position 0 fed by
// two frontends, 1 a mid-chain lead of a three-member group, 2 a build
// shard of the last position. No call may panic, no stage may complete
// twice or with a slot still open, and a refused call may change nothing.
//
// Each call is three bytes of calls: the method (b0 % 3) and blob count
// (b0 / 3 % 4), the stage (b1 % 6 - 1) and the upstream slot (b2 % 6 - 1).
// The stages' completions are counted, not run: what follows a completion
// dials the route's peers.
func FuzzStreamArgs(f *testing.F) {
	honest := func(stage, upstream byte) []byte {
		return []byte{0, stage + 1, upstream + 1, 4, stage + 1, upstream + 1, 2, stage + 1, upstream + 1}
	}
	f.Add(uint8(0), append(honest(0, 0), honest(0, 1)...))
	f.Add(uint8(1), append(honest(0, 0), honest(1, 1)...))
	f.Add(uint8(1), honest(1, 0))
	f.Add(uint8(2), append(honest(0, 0), honest(2, 0)...))
	f.Add(uint8(2), []byte{1, 3, 1, 2, 3, 1, 1, 3, 1, 0, 3, 1})

	var keys [][]byte
	for i := 0; i < 2; i++ {
		pub, _, err := onionbox.GenerateKey(rand.Reader)
		if err != nil {
			f.Fatal(err)
		}
		keys = append(keys, pub.Bytes())
	}
	// The daemon sits at slot 0, the announcer's, in every role: it holds
	// the round key it announced and pulls none.
	roles := []wire.RouteSpec{
		{Group: []string{"mem:0", "mem:1"}, Lead: 1, NumUpstream: 2, Successors: []string{"mem:2"}, DownstreamKeys: keys},
		{Group: []string{"mem:0", "mem:1", "mem:4"}, NumUpstream: 1, Successors: []string{"mem:2"}, DownstreamKeys: keys[:1]},
		{Group: []string{"mem:0", "mem:1"}, Lead: 1, NumUpstream: 1, CDNAddr: "mem:3"},
	}
	nz := noise.Laplace{}

	f.Fuzz(func(t *testing.T, role uint8, calls []byte) {
		pos := int(role % 3)
		m, err := mixnet.New(mixnet.Config{Name: "m", Position: pos, ChainLength: 3, AddFriendNoise: &nz, DialingNoise: &nz})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		d := RegisterMixer(s, m)
		round := []byte(`{"service":2,"round":1}`)
		if _, err := s.handlers["mix.newround"]("", round, nil); err != nil {
			t.Fatal(err)
		}
		defer s.handlers["mix.closeround"]("", round, nil)
		spec := roles[pos]
		spec.NumMailboxes = 4
		if err := d.openRound(openArgs{Service: wire.Dialing, Round: 1, RouteSpec: spec}); err != nil {
			t.Fatal(err)
		}
		rt := d.rounds[outKey{wire.Dialing, 1}]

		var completed [numStages]int
		for ; len(calls) >= 3; calls = calls[3:] {
			method := []string{"mix.stream.begin", "mix.stream.chunk", "mix.stream.end"}[calls[0]%3]
			a := streamArgs{
				Service: wire.Dialing, Round: 1,
				Stage: stage(calls[1]%6) - 1, Upstream: int(calls[2]%6) - 1,
			}
			for i := 0; i < int(calls[0]/3%4); i++ {
				a.blobs = append(a.blobs, []byte{byte(i)})
			}
			// The call as it arrives: the params cross as JSON.
			params, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			var got streamArgs
			if err := json.Unmarshal(params, &got); err != nil {
				t.Fatal(err)
			}
			got.blobs = a.blobs

			before := d.IntakeState(wire.Dialing, 1)
			_, done, err := d.admit(method, got)
			if err != nil {
				if after := d.IntakeState(wire.Dialing, 1); after != before {
					t.Fatalf("refused %s %+v (%v) moved the intake from %q to %q", method, got, err, before, after)
				}
				continue
			}
			if !done {
				continue
			}
			if completed[got.Stage]++; completed[got.Stage] > 1 {
				t.Fatalf("stage %d completed twice", got.Stage)
			}
			if slices.Contains(rt.intakes[got.Stage].ended, false) {
				t.Fatalf("stage %d completed with a slot open: %v", got.Stage, rt.intakes[got.Stage].ended)
			}
		}
	})
}
