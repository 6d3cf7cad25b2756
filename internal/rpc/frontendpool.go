package rpc

import (
	"context"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// FrontendPool is a failover client over a deployment's entry frontends
// (the Directory.FrontendAddrs set), the entry-plane instance of the
// shared pool. It satisfies the same core interfaces as FrontendClient but
// pins no single frontend; mailbox fetches, Addr, CallCount,
// TransportStats and Close come from the pool.
//
// Failover is seamless because the frontends replicate one announcement
// log under one cursor namespace (entry.replicate): after a rotation the
// client's round loop re-parks WatchRounds on the survivor with the SAME
// cursor it held on the dead frontend and resumes mid-round — no snapshot
// reset, no re-submit.
type FrontendPool struct {
	*pool[*FrontendClient]
}

// DialFrontendPool creates a pool over the given frontend addresses,
// starting on the first.
func DialFrontendPool(addrs ...string) *FrontendPool {
	return &FrontendPool{newPool(DialFrontend, addrs)}
}

// Directory implements the directory fetch with failover. The directory
// describes the deployment, not one frontend, so any member's copy serves.
func (p *FrontendPool) Directory(ctx context.Context) (*Directory, error) {
	return poolRead(ctx, p.pool, func(f *FrontendClient) (*Directory, error) {
		return f.Directory(ctx)
	})
}

// WatchRounds implements core.EntryServer. A transport failure rotates
// the pool and surfaces the error: core's round feed already owns the
// reconnect loop (backoff, cursor preservation), so the next park lands
// on the survivor and resumes from the replicated log at the same cursor.
func (p *FrontendPool) WatchRounds(ctx context.Context, cursor uint64) (anns []entry.Announcement, next uint64, err error) {
	err = p.once(ctx, func(f *FrontendClient) (callErr error) {
		anns, next, callErr = f.WatchRounds(ctx, cursor)
		return callErr
	})
	return anns, next, err
}

// Settings implements core.EntryServer with failover: settings are
// verified against pinned keys client-side, so any replica's copy serves.
func (p *FrontendPool) Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error) {
	return poolRead(ctx, p.pool, func(f *FrontendClient) (*wire.RoundSettings, error) {
		return f.Settings(ctx, service, round)
	})
}

// Submit implements core.EntryServer. A transport failure rotates the
// pool but is NOT retried on the new member: the onion may already sit in
// the dead frontend's batch, and submitting it again through a survivor
// could put it in the round twice (the same at-most-once discipline as
// the mix stream surface). The caller sees the error and the next round's
// submission goes to the new member.
func (p *FrontendPool) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	return p.once(ctx, func(f *FrontendClient) error {
		return f.Submit(ctx, service, round, onion)
	})
}
