package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/wire"
)

// stubPeer is a CDN peer whose cdn.roundinfo and cdn.pull replies are
// scripted: roundinfo lists rounds, and each cdn.pull call, whatever its
// cursor, takes the next page until the script runs out (or, with
// repeat, serves the last page again).
type stubPeer struct {
	mu     sync.Mutex
	rounds []cdnRoundEntry
	pages  []cdnPullReply
	served int
	repeat bool
}

func (p *stubPeer) script(rounds []cdnRoundEntry, pages []cdnPullReply) {
	p.mu.Lock()
	p.rounds, p.pages, p.served = rounds, pages, 0
	p.mu.Unlock()
}

// start serves the stub on an in-memory listener and returns its address.
func (p *stubPeer) start(t testing.TB) string {
	t.Helper()
	srv := NewServer()
	HandleFunc(srv, "cdn.roundinfo", func(cdnRoundInfoArgs) (any, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		return cdnRoundInfoReply{Rounds: p.rounds}, nil
	})
	HandleFunc(srv, "cdn.pull", func(cdnPullArgs) (any, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.served == len(p.pages) && !p.repeat {
			return nil, errors.New("stub: script exhausted")
		}
		p.served++
		return p.pages[min(p.served, len(p.pages))-1], nil
	})
	addr, err := srv.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// TestPullRoundRefusesStalledPage serves a page that is not Done and
// whose Next does not pass the cursor. The puller must refuse it rather
// than ask for the same page forever.
func TestPullRoundRefusesStalledPage(t *testing.T) {
	peer := stubPeer{repeat: true}
	var stalled cdnPullReply
	stalled.add(7, []byte("mailbox seven"))
	peer.script([]cdnRoundEntry{{Service: wire.Dialing, Round: 1, Checksum: make([]byte, 32)}}, []cdnPullReply{stalled})
	d := &CDNDaemon{store: cdn.NewStore(0)}
	d.SetPeers(peer.start(t))
	defer d.Close()

	done := make(chan error, 1)
	go func() {
		_, err := d.Backfill()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a stalled pull was accepted")
		}
	case <-time.After(5 * time.Second):
		peer.mu.Lock()
		served := peer.served
		peer.mu.Unlock()
		t.Fatalf("pull still looping after %d stalled pages", served)
	}
	if d.store.Published(wire.Dialing, 1) {
		t.Fatal("a stalled pull sealed its round")
	}
}

// fuzzScript decodes a stub peer's replies from fuzz input. Byte 0 is the
// number of rounds roundinfo lists (mod 4); each round takes a service
// byte, a round byte and a checksum mode (bit 0 flips a checksum byte,
// bit 1 truncates it; otherwise it is the honest checksum of what the
// pages add up to). The rest is pages: a header byte (bit 0 Done, bits
// 1-2 the mailbox count, bit 3 an unpaired key), a Next byte, and per
// mailbox an ID byte, a length byte (mod 8) and that many content bytes.
func fuzzScript(data []byte) ([]cdnRoundEntry, []cdnPullReply) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	type roundSpec struct {
		service wire.Service
		round   uint32
		mode    byte
	}
	specs := make([]roundSpec, next()%4)
	for i := range specs {
		specs[i] = roundSpec{wire.Service(next() % 3), uint32(next() % 4), next()}
	}
	var pages []cdnPullReply
	union := make(map[uint32][]byte)
	for len(data) > 0 {
		h := next()
		page := cdnPullReply{Done: h&1 != 0, Next: uint32(next())}
		for n := (h >> 1) & 3; n > 0; n-- {
			id := uint32(next())
			box := make([]byte, min(int(next()%8), len(data)))
			copy(box, data)
			data = data[len(box):]
			page.add(id, box)
			union[id] = box
		}
		if h&8 != 0 {
			page.Keys = append(page.Keys, 99)
		}
		pages = append(pages, page)
	}
	honest := cdn.RoundChecksum(union)
	rounds := make([]cdnRoundEntry, len(specs))
	for i, s := range specs {
		sum := append([]byte(nil), honest[:]...)
		if s.mode&1 != 0 {
			sum[0] ^= 1
		}
		if s.mode&2 != 0 {
			sum = sum[:16]
		}
		rounds[i] = cdnRoundEntry{Service: s.service, Round: s.round, Checksum: sum}
	}
	return rounds, pages
}

// FuzzPullRound pulls from a peer whose cdn.roundinfo and cdn.pull
// replies come from the fuzz input. The pull must return without
// panicking and seal only rounds whose content checksum is the one the
// peer advertised for them.
func FuzzPullRound(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0x05, 0, 3, 4, 'a', 'b', 'c', 'd', 9, 2, 'x', 'y'})
	f.Add([]byte{1, 1, 1, 0, 0x02, 4, 3, 4, 'a', 'b', 'c', 'd', 0x03, 0, 4, 1, 'z'})
	f.Add([]byte{1, 1, 1, 1, 0x03, 0, 1, 1, 'q'})
	f.Add([]byte{2, 0, 0, 0, 1, 2, 2, 0x02, 0, 7, 3, 'a', 'b', 'c'})
	f.Add([]byte{1, 1, 1, 0, 0x0b, 0, 1, 1, 'q'})
	f.Add([]byte{3, 1, 1, 0, 1, 1, 0, 1, 3, 0, 0x01, 0})

	var peer stubPeer
	d := &CDNDaemon{}
	d.SetPeers(peer.start(f))
	f.Cleanup(d.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		rounds, pages := fuzzScript(data)
		peer.script(rounds, pages)
		d.store = cdn.NewStore(0)
		_, _ = d.Backfill()

		for _, service := range []wire.Service{wire.AddFriend, wire.Dialing, wire.Service(2)} {
			for _, info := range d.store.Rounds(service) {
				advertised := false
				for _, r := range rounds {
					if r.Service == service && r.Round == info.Round && bytes.Equal(r.Checksum, info.Checksum[:]) {
						advertised = true
					}
				}
				if !advertised {
					t.Fatalf("sealed round %d (%s) under checksum %x, which the peer never advertised", info.Round, service, info.Checksum)
				}
			}
		}
	})
}

// FuzzCDNSealedArgs sends a CDN node's cdn.sealed handler params the
// fuzzer chooses, through the JSON decode a frame's params take on the
// way to it. The node lists one peer, which holds dialing round 1 and
// add-friend round 2. After every notice: nothing panicked; params that
// do not decode are refused and pull nothing; a notice naming a round the
// peer holds is accepted and leaves that round with the peer's content
// checksum; and no other round is ever sealed.
func FuzzCDNSealedArgs(f *testing.F) {
	for _, seed := range []string{
		`{"service":2,"round":1}`, `{"service":1,"round":2}`, `{"service":1,"round":1}`,
		`{"service":2,"round":1,"upstream":-7}`, `{"round":2,"service":1,"round":1}`,
		`{}`, `null`, `{"service":258,"round":1}`, `{"round":-1}`, `{"service":"2"}`, `[1]`, `{`,
	} {
		f.Add([]byte(seed))
	}
	peerStore := cdn.NewStore(0)
	held := []outKey{{wire.Dialing, 1}, {wire.AddFriend, 2}}
	for i, k := range held {
		boxes := map[uint32][]byte{0: []byte("first mailbox"), uint32(i + 3): bytes.Repeat([]byte{byte(i)}, 40)}
		if err := peerStore.Publish(k.service, k.round, boxes); err != nil {
			f.Fatal(err)
		}
	}
	peer := NewServer()
	RegisterCDN(peer, peerStore)
	peerAddr, err := peer.Listen("mem:")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(peer.Close)

	node := NewServer()
	d := RegisterCDN(node, nil)
	d.SetPeers(peerAddr)
	f.Cleanup(d.Close)
	f.Cleanup(node.Close)
	sealed := node.handlers["cdn.sealed"]

	f.Fuzz(func(t *testing.T, data []byte) {
		d.store = cdn.NewStore(0)
		_, err := sealed("127.0.0.1:1", json.RawMessage(data), nil)
		var a roundArgs
		if len(data) > 0 && json.Unmarshal(data, &a) != nil {
			if err == nil {
				t.Fatalf("params %q do not decode, yet the notice was accepted", data)
			}
			a = roundArgs{Round: 1 << 31} // a round no check below expects sealed
		}
		for _, k := range append(held, outKey{a.Service, a.Round}) {
			want, ok := peerStore.Checksum(k.service, k.round)
			named := k == outKey{a.Service, a.Round}
			if ok && named && err != nil {
				t.Fatalf("a notice for round %d (%s), which the peer holds, failed: %v", k.round, k.service, err)
			}
			got, has := d.store.Checksum(k.service, k.round)
			if has != (ok && named) || (has && got != want) {
				t.Fatalf("params %q: round %d (%s) sealed %v with checksum %x; the peer holds it %v with %x", data, k.round, k.service, has, got, ok, want)
			}
		}
		for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
			if n := len(d.store.Rounds(service)); n > 1 {
				t.Fatalf("params %q sealed %d %s rounds", data, n, service)
			}
		}
	})
}
