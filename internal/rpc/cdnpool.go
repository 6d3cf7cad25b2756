package rpc

import (
	"context"

	"alpenhorn/internal/wire"
)

// CDNClient is the client read plane of one mailbox server: cdn.fetch and
// cdn.fetchrange, the surface both a CDN node (RegisterCDNFrontend) and an
// entry frontend (RegisterFrontend) serve. A client can therefore point
// its mailbox scans at the CDN tier directly instead of proxying every
// fetch through a frontend; FrontendClient embeds this type for the same
// two calls.
type CDNClient struct {
	addr string
	c    *Client
}

// DialCDN connects to one CDN node's read surface.
func DialCDN(addr string) *CDNClient {
	return &CDNClient{addr: addr, c: Dial(addr)}
}

// Addr returns the server's dial address.
func (f *CDNClient) Addr() string { return f.addr }

// Fetch implements core.MailboxStore.
func (f *CDNClient) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	var reply blobReply
	if err := f.c.CallContext(ctx, "cdn.fetch", fetchArgs{Service: service, Round: round, Mailbox: mailbox}, &reply); err != nil {
		return nil, err
	}
	return reply.one(), nil
}

// FetchRange implements core.MailboxStore: one cdn.fetchrange request for
// a span of rounds. Rounds the store no longer holds (or never published)
// are absent from the reply.
func (f *CDNClient) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	var reply keyedBlobs
	err := f.c.CallContext(ctx, "cdn.fetchrange", fetchRangeArgs{
		Service: service, FromRound: fromRound, ToRound: toRound, Mailbox: mailbox,
	}, &reply)
	if err == nil {
		err = reply.check()
	}
	if err != nil {
		return nil, err
	}
	out := make(map[uint32][]byte, len(reply.Keys))
	for i, r := range reply.Keys {
		out[r] = reply.blobs[i]
	}
	return out, nil
}

// CallCount reports a method's call count on this node's connection.
func (f *CDNClient) CallCount(method string) uint64 { return f.c.CallCount(method) }

// TransportStats reports this node's connection accounting.
func (f *CDNClient) TransportStats() ClientStats { return f.c.Stats() }

// Close closes the node connection.
func (f *CDNClient) Close() { f.c.Close() }

// CDNPool is a failover client over a deployment's CDN nodes (the
// Directory.CDNAddrs set), the fetch-plane instance of the shared pool:
// every node holds every sealed round (publish-time replication plus
// restart backfill), so a node dying mid-scan costs the client one
// retried read. It satisfies core.MailboxStore: Fetch and FetchRange, like
// Addr, CallCount, TransportStats and Close, come from the pool.
type CDNPool struct {
	*pool[*CDNClient]
}

// DialCDNPool creates a pool over the given CDN node addresses, starting
// on the first.
func DialCDNPool(addrs ...string) *CDNPool {
	return &CDNPool{newPool(DialCDN, addrs)}
}
