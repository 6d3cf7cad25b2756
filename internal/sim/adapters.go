package sim

// The core client's server interfaces are context-aware (the transport
// must be interruptible); the in-process server types are not (they never
// block on I/O). These adapters bridge the two with direct calls. No test
// or example uses them: Network.ClientConfig wires clients through the rpc
// clients a deployment runs. bench/walk.go alone still builds all three,
// and they go when it moves off them.

import (
	"context"
	"crypto/ed25519"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/core"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/wire"
)

// EntryAdapter exposes an in-process entry server through core's
// ctx-aware EntryServer interface.
//
// Deprecated: clients reach the frontends through rpc.DialFrontendPool
// (Network.ClientConfig); only bench/walk.go still builds an EntryAdapter.
type EntryAdapter struct {
	E *entry.Server
}

var _ core.EntryServer = EntryAdapter{}

// Settings implements core.EntryServer.
func (a EntryAdapter) Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.E.Settings(service, round)
}

// Submit implements core.EntryServer.
func (a EntryAdapter) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return a.E.Submit(service, round, onion)
}

// WatchRounds implements core.EntryServer on the entry server's event
// log: it parks until announcements after cursor exist or ctx ends.
func (a EntryAdapter) WatchRounds(ctx context.Context, cursor uint64) ([]entry.Announcement, uint64, error) {
	events, next, _ := a.E.WaitEvents(ctx, cursor, 0)
	if len(events) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, cursor, err
		}
		return nil, next, nil
	}
	return events, next, nil
}

// CDNAdapter exposes an in-process CDN store through core's ctx-aware
// MailboxStore interface.
//
// Deprecated: clients fetch mailboxes through rpc.DialFrontendPool
// (Network.ClientConfig); only bench/walk.go still builds a CDNAdapter.
type CDNAdapter struct {
	S *cdn.Store
}

var _ core.MailboxStore = CDNAdapter{}

// Fetch implements core.MailboxStore.
func (a CDNAdapter) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.S.Fetch(service, round, mailbox)
}

// FetchRange implements core.MailboxStore.
func (a CDNAdapter) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.S.FetchRange(service, fromRound, toRound, mailbox)
}

// PKGAdapter exposes an in-process PKG server through core's ctx-aware
// PKG interface.
//
// Deprecated: clients reach the PKGs through rpc.DialPKG
// (Network.ClientConfig); only bench/walk.go still builds a PKGAdapter.
type PKGAdapter struct {
	P *pkgserver.Server
}

var _ core.PKG = PKGAdapter{}

// Register implements core.PKG.
func (a PKGAdapter) Register(ctx context.Context, email string, signingKey ed25519.PublicKey) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return a.P.Register(email, signingKey)
}

// ConfirmRegistration implements core.PKG.
func (a PKGAdapter) ConfirmRegistration(ctx context.Context, email, token string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return a.P.ConfirmRegistration(email, token)
}

// Extract implements core.PKG.
func (a PKGAdapter) Extract(ctx context.Context, email string, round uint32, sig []byte) (*pkgserver.ExtractReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.P.Extract(email, round, sig)
}

// Deregister implements core.PKG.
func (a PKGAdapter) Deregister(ctx context.Context, email string, sig []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return a.P.Deregister(email, sig)
}
