package rpc

import (
	"context"
	"errors"
	"sync"

	"alpenhorn/internal/core"
	"alpenhorn/internal/wire"
)

// poolMember is what the failover pool needs from one server's client.
// Every pooled server — entry frontend or CDN node — serves the mailbox
// read plane, so the pool implements core.MailboxStore itself.
type poolMember interface {
	core.MailboxStore
	Addr() string
	CallCount(method string) uint64
	TransportStats() ClientStats
	Close()
}

// pool is the client plane's one failover mechanism, shared by
// FrontendPool and CDNPool: calls go to the current member, and a
// TRANSPORT failure — errors.Is ErrTransport, never a handler error,
// never the caller's own cancellation — rotates to the next address.
// Every member serves the same deployment state (replicated announcement
// log, replicated sealed rounds), so any member's answer serves.
type pool[M poolMember] struct {
	members []M
	mu      sync.Mutex
	cur     int
}

// newPool dials every address; the pool starts on the first.
func newPool[M poolMember](dial func(addr string) M, addrs []string) *pool[M] {
	if len(addrs) == 0 {
		panic("rpc: a failover pool needs at least one address")
	}
	p := &pool[M]{}
	for _, a := range addrs {
		p.members = append(p.members, dial(a))
	}
	return p
}

// current returns the member new calls should use and its index (the
// rotation token for reportDown).
func (p *pool[M]) current() (M, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.members[p.cur], p.cur
}

// reportDown rotates away from member idx. The index check makes the
// rotation idempotent under concurrent failures: ten calls failing on the
// same dead member advance the pool once, not ten times.
func (p *pool[M]) reportDown(idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == idx && len(p.members) > 1 {
		p.cur = (p.cur + 1) % len(p.members)
	}
}

// rotateOn reports whether err should fail the current member over.
// Handler errors mean the server is alive and answered; context errors
// mean the CALLER gave up — neither says anything about server health.
func rotateOn(ctx context.Context, err error) bool {
	return errors.Is(err, ErrTransport) && ctx.Err() == nil
}

// once runs call on the current member, rotating away from it on a
// transport failure WITHOUT retrying: for calls that are not idempotent
// (Submit) or whose caller owns the retry loop (WatchRounds).
func (p *pool[M]) once(ctx context.Context, call func(M) error) error {
	m, idx := p.current()
	err := call(m)
	if rotateOn(ctx, err) {
		p.reportDown(idx)
	}
	return err
}

// poolRead runs an idempotent call with failover: a transport failure
// rotates the pool and the call is retried exactly once on the new member,
// so a server dying mid-scan costs the client nothing visible. A
// one-member pool has nowhere to rotate and returns the failure.
func poolRead[M poolMember, T any](ctx context.Context, p *pool[M], call func(M) (T, error)) (T, error) {
	var out T
	read := func(m M) (err error) {
		out, err = call(m)
		return err
	}
	err := p.once(ctx, read)
	if rotateOn(ctx, err) && len(p.members) > 1 {
		err = p.once(ctx, read)
	}
	return out, err
}

// Fetch implements core.MailboxStore with failover.
func (p *pool[M]) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	return poolRead(ctx, p, func(m M) ([]byte, error) {
		return m.Fetch(ctx, service, round, mailbox)
	})
}

// FetchRange implements core.MailboxStore with failover.
func (p *pool[M]) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	return poolRead(ctx, p, func(m M) (map[uint32][]byte, error) {
		return m.FetchRange(ctx, service, fromRound, toRound, mailbox)
	})
}

// Addr returns the dial address of the pool's current member.
func (p *pool[M]) Addr() string {
	m, _ := p.current()
	return m.Addr()
}

// CallCount sums a method's call count across every member.
func (p *pool[M]) CallCount(method string) uint64 {
	var n uint64
	for _, m := range p.members {
		n += m.CallCount(method)
	}
	return n
}

// TransportStats sums transport accounting across every member.
func (p *pool[M]) TransportStats() ClientStats {
	var st ClientStats
	for _, m := range p.members {
		st.add(m.TransportStats())
	}
	return st
}

// Close closes every member's connections.
func (p *pool[M]) Close() {
	for _, m := range p.members {
		m.Close()
	}
}
