package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/wire"
)

// fakeMember is a pool member whose every call runs a scripted reply, so
// the failover contract is tested without sockets or timing.
type fakeMember struct {
	addr  string
	calls atomic.Int64
	reply func(ctx context.Context) error
}

func (m *fakeMember) Fetch(ctx context.Context, _ wire.Service, _, _ uint32) ([]byte, error) {
	m.calls.Add(1)
	return []byte(m.addr), m.reply(ctx)
}

func (m *fakeMember) FetchRange(ctx context.Context, _ wire.Service, _, _, _ uint32) (map[uint32][]byte, error) {
	m.calls.Add(1)
	return nil, m.reply(ctx)
}

func (m *fakeMember) Addr() string                { return m.addr }
func (m *fakeMember) CallCount(string) uint64     { return uint64(m.calls.Load()) }
func (m *fakeMember) TransportStats() ClientStats { return ClientStats{Calls: m.CallCount("")} }
func (m *fakeMember) Close()                      {}

func healthy(context.Context) error { return nil }

func transportDown(context.Context) error {
	return fmt.Errorf("%w: dialing fake: connection refused", ErrTransport)
}

func handlerError(context.Context) error { return errors.New("cdn: round not published") }

// downAfter fails like transportDown, but only once n callers are inside
// the member at the same time — n concurrent failures on one member.
func downAfter(n int) func(context.Context) error {
	var wg sync.WaitGroup
	wg.Add(n)
	return func(ctx context.Context) error {
		wg.Done()
		wg.Wait()
		return transportDown(ctx)
	}
}

// TestPoolFailoverContract pins the one failover mechanism of the client
// plane. The first table drives the generic pool through a fake member;
// the second runs every method of both typed instances (FrontendPool,
// CDNPool) over TCP against a dead first member, so neither instance can
// drift from the contract: reads are served by the survivor after exactly
// one retry, Submit and WatchRounds rotate but surface the failure.
func TestPoolFailoverContract(t *testing.T) {
	type op func(ctx context.Context, p *pool[*fakeMember]) error
	read := func(ctx context.Context, p *pool[*fakeMember]) error {
		_, err := p.Fetch(ctx, wire.Dialing, 1, 0)
		return err
	}
	once := func(ctx context.Context, p *pool[*fakeMember]) error {
		return p.once(ctx, func(m *fakeMember) error {
			_, err := m.Fetch(ctx, wire.Dialing, 1, 0)
			return err
		})
	}
	for _, tc := range []struct {
		name      string
		members   []func(context.Context) error
		op        op
		callers   int // concurrent callers (default 1)
		cancelled bool
		wantCalls []int64
		wantCur   int
		wantErr   bool
	}{
		{name: "read fails over and is served by the survivor",
			members: []func(context.Context) error{transportDown, healthy, healthy}, op: read,
			wantCalls: []int64{1, 1, 0}, wantCur: 1},
		{name: "read retries exactly once, even when the next member is down too",
			members: []func(context.Context) error{transportDown, transportDown, healthy}, op: read,
			wantCalls: []int64{1, 1, 0}, wantCur: 2, wantErr: true},
		{name: "Submit-style call rotates but is never retried",
			members: []func(context.Context) error{transportDown, healthy}, op: once,
			wantCalls: []int64{1, 0}, wantCur: 1, wantErr: true},
		{name: "handler error never rotates",
			members: []func(context.Context) error{handlerError, healthy}, op: read,
			wantCalls: []int64{1, 0}, wantCur: 0, wantErr: true},
		{name: "caller-cancelled context never rotates",
			members: []func(context.Context) error{transportDown, healthy}, op: read, cancelled: true,
			wantCalls: []int64{1, 0}, wantCur: 0, wantErr: true},
		{name: "one-member pool never spins",
			members: []func(context.Context) error{transportDown}, op: read,
			wantCalls: []int64{1}, wantCur: 0, wantErr: true},
		{name: "ten concurrent failures on one member rotate once",
			members: []func(context.Context) error{downAfter(10), healthy, healthy}, op: read, callers: 10,
			wantCalls: []int64{10, 10, 0}, wantCur: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			p := newPool(func(addr string) *fakeMember {
				m := &fakeMember{addr: addr, reply: tc.members[i]}
				i++
				return m
			}, []string{"m0", "m1", "m2"}[:len(tc.members)])
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			}
			callers := max(tc.callers, 1)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs[c] = tc.op(ctx, p)
				}(c)
			}
			wg.Wait()
			for _, err := range errs {
				if (err != nil) != tc.wantErr {
					t.Fatalf("call returned %v, want error: %v", err, tc.wantErr)
				}
			}
			for i, m := range p.members {
				if got := m.calls.Load(); got != tc.wantCalls[i] {
					t.Errorf("member %d served %d calls, want %d", i, got, tc.wantCalls[i])
				}
			}
			if _, cur := p.current(); cur != tc.wantCur {
				t.Errorf("pool ended on member %d, want %d", cur, tc.wantCur)
			}
		})
	}

	// Both typed instances, every method, over TCP: member 0 is an address
	// nothing listens on, member 1 a live frontend with one published
	// dialing round and a second one open.
	// (The frontend is stocked by hand: this package cannot import the
	// fleet builders in internal/sim, which import it.)
	e, store := entry.New(), cdn.NewStore(0)
	if err := store.Publish(wire.Dialing, 1, map[uint32][]byte{0: {1}}); err != nil {
		t.Fatal(err)
	}
	m, err := mixnet.New(mixnet.Config{Name: "m", ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, rk, err := m.Announce(wire.Dialing, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OpenRound(&wire.RoundSettings{
		Service: wire.Dialing, Round: 2, NumMailboxes: 1, Mixers: []wire.MixerRoundKey{rk},
	}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	RegisterFrontend(srv, e, store, Directory{})
	live, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		method  string
		retried bool
		call    func(fp *FrontendPool, cp *CDNPool) error
	}{
		{"FrontendPool.Directory", "frontend.directory", true, func(fp *FrontendPool, _ *CDNPool) error {
			_, err := fp.Directory(ctx)
			return err
		}},
		{"FrontendPool.Settings", "entry.settings", true, func(fp *FrontendPool, _ *CDNPool) error {
			_, err := fp.Settings(ctx, wire.Dialing, 2)
			return err
		}},
		{"FrontendPool.Fetch", "cdn.fetch", true, func(fp *FrontendPool, _ *CDNPool) error {
			_, err := fp.Fetch(ctx, wire.Dialing, 1, 0)
			return err
		}},
		{"FrontendPool.FetchRange", "cdn.fetchrange", true, func(fp *FrontendPool, _ *CDNPool) error {
			_, err := fp.FetchRange(ctx, wire.Dialing, 1, 2, 0)
			return err
		}},
		{"FrontendPool.WatchRounds", "entry.events", false, func(fp *FrontendPool, _ *CDNPool) error {
			_, _, err := fp.WatchRounds(ctx, 0)
			return err
		}},
		{"FrontendPool.Submit", "entry.submit", false, func(fp *FrontendPool, _ *CDNPool) error {
			return fp.Submit(ctx, wire.Dialing, 2, []byte("onion"))
		}},
		{"CDNPool.Fetch", "cdn.fetch", true, func(_ *FrontendPool, cp *CDNPool) error {
			_, err := cp.Fetch(ctx, wire.Dialing, 1, 0)
			return err
		}},
		{"CDNPool.FetchRange", "cdn.fetchrange", true, func(_ *FrontendPool, cp *CDNPool) error {
			_, err := cp.FetchRange(ctx, wire.Dialing, 1, 2, 0)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fp, cp := DialFrontendPool(dead, live), DialCDNPool(dead, live)
			defer fp.Close()
			defer cp.Close()
			err := tc.call(fp, cp)
			if tc.retried && err != nil {
				t.Fatalf("read was not served by the survivor: %v", err)
			}
			if !tc.retried && !errors.Is(err, ErrTransport) {
				t.Fatalf("returned %v, want the transport failure surfaced (never retried)", err)
			}
			// Only the pool under test was called; it must have rotated.
			if fp.Addr() == dead && cp.Addr() == dead {
				t.Fatal("pool stayed on the dead member")
			}
			wantCalls := uint64(1)
			if tc.retried {
				wantCalls = 2
			}
			if got := fp.CallCount(tc.method) + cp.CallCount(tc.method); got != wantCalls {
				t.Fatalf("%d %s calls across the pool, want %d", got, tc.method, wantCalls)
			}
		})
	}
	if got := e.BatchSize(wire.Dialing, 2); got != 0 {
		t.Fatalf("round 2 carries %d onions: a failed Submit was retried on the survivor", got)
	}
}
