package rpc

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/wire"
)

// This file defines the daemon RPC surface: argument/reply structs and
// registration helpers on the server side, plus client adapters that
// satisfy core.PKG / core.EntryServer / core.MailboxStore and the
// coordinator's Mixer interface across the network.

// ---- PKG daemon API ----

// PKGInfo advertises a PKG's pinned long-term keys and the generation of
// the surface it serves.
type PKGInfo struct {
	Name       string `json:"name"`
	SigningKey []byte `json:"signing_key"`
	BLSKey     []byte `json:"bls_key"`
	// ProtocolVersion is the ProtocolVersion constant of the build that
	// serves RegisterPKG; PKGClient.Info refuses any other value.
	ProtocolVersion int `json:"protocol_version"`
}

type registerArgs struct {
	Email      string `json:"email"`
	SigningKey []byte `json:"signing_key"`
}

type confirmArgs struct {
	Email string `json:"email"`
	Token string `json:"token"`
}

type extractArgs struct {
	Email string `json:"email"`
	Round uint32 `json:"round"`
	Sig   []byte `json:"sig"`
}

type extractReply struct {
	IdentityKey []byte `json:"identity_key"`
	Attestation []byte `json:"attestation"`
}

type deregisterArgs struct {
	Email string `json:"email"`
	Sig   []byte `json:"sig"`
}

type roundArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
}

// RegisterPKG exposes a pkgserver.Server over RPC.
func RegisterPKG(s *Server, pkg *pkgserver.Server) {
	HandleFunc(s, "pkg.info", func(struct{}) (any, error) {
		return PKGInfo{
			Name:            pkg.Name,
			SigningKey:      pkg.SigningKey(),
			BLSKey:          pkg.BLSKey().Marshal(),
			ProtocolVersion: ProtocolVersion,
		}, nil
	})
	HandleFunc(s, "pkg.register", func(a registerArgs) (any, error) {
		return nil, pkg.Register(a.Email, ed25519.PublicKey(a.SigningKey))
	})
	HandleFunc(s, "pkg.confirm", func(a confirmArgs) (any, error) {
		return nil, pkg.ConfirmRegistration(a.Email, a.Token)
	})
	HandleFunc(s, "pkg.extract", func(a extractArgs) (any, error) {
		reply, err := pkg.Extract(a.Email, a.Round, a.Sig)
		if err != nil {
			return nil, err
		}
		return extractReply{
			IdentityKey: reply.IdentityKey.Marshal(),
			Attestation: reply.Attestation.Marshal(),
		}, nil
	})
	HandleFunc(s, "pkg.deregister", func(a deregisterArgs) (any, error) {
		return nil, pkg.Deregister(a.Email, a.Sig)
	})
	HandleFunc(s, "pkg.newround", func(a roundArgs) (any, error) {
		return pkg.NewRound(a.Round)
	})
	HandleFunc(s, "pkg.closeround", func(a roundArgs) (any, error) {
		pkg.CloseRound(a.Round)
		return nil, nil
	})
}

// PKGClient talks to a remote PKG daemon. It satisfies core.PKG and the
// coordinator's PKG interface.
type PKGClient struct {
	addr string
	c    *Client
}

// DialPKG connects to a PKG daemon.
func DialPKG(addr string) *PKGClient { return &PKGClient{addr: addr, c: Dial(addr)} }

// Info fetches the PKG's pinned keys. A daemon serving any other
// ProtocolVersion is refused with ErrProtocolMismatch: a PKG built before
// version 2 signs its round keys under a domain tag no client accepts, so
// every add-friend round would fail at the clients instead of here.
func (p *PKGClient) Info() (*PKGInfo, error) {
	var info PKGInfo
	if err := p.c.Call("pkg.info", struct{}{}, &info); err != nil {
		return nil, err
	}
	if info.ProtocolVersion != ProtocolVersion {
		return nil, fmt.Errorf("%w: PKG %s serves version %d, this coordinator speaks %d", ErrProtocolMismatch, p.addr, info.ProtocolVersion, ProtocolVersion)
	}
	return &info, nil
}

// Register implements core.PKG.
func (p *PKGClient) Register(ctx context.Context, email string, signingKey ed25519.PublicKey) error {
	return p.c.CallContext(ctx, "pkg.register", registerArgs{Email: email, SigningKey: signingKey}, nil)
}

// ConfirmRegistration implements core.PKG.
func (p *PKGClient) ConfirmRegistration(ctx context.Context, email, token string) error {
	return p.c.CallContext(ctx, "pkg.confirm", confirmArgs{Email: email, Token: token}, nil)
}

// Extract implements core.PKG.
func (p *PKGClient) Extract(ctx context.Context, email string, round uint32, sig []byte) (*pkgserver.ExtractReply, error) {
	var raw extractReply
	if err := p.c.CallContext(ctx, "pkg.extract", extractArgs{Email: email, Round: round, Sig: sig}, &raw); err != nil {
		return nil, err
	}
	idKey, err := ibe.UnmarshalIdentityPrivateKey(raw.IdentityKey)
	if err != nil {
		return nil, err
	}
	att, err := bls.UnmarshalSignature(raw.Attestation)
	if err != nil {
		return nil, err
	}
	return &pkgserver.ExtractReply{IdentityKey: idKey, Attestation: att}, nil
}

// Deregister implements core.PKG.
func (p *PKGClient) Deregister(ctx context.Context, email string, sig []byte) error {
	return p.c.CallContext(ctx, "pkg.deregister", deregisterArgs{Email: email, Sig: sig}, nil)
}

// NewRound asks the PKG for its signed round key (coordinator side).
func (p *PKGClient) NewRound(round uint32) (wire.PKGRoundKey, error) {
	var rk wire.PKGRoundKey
	err := p.c.Call("pkg.newround", roundArgs{Round: round}, &rk)
	return rk, err
}

// CloseRound erases the PKG's round master key (coordinator side).
func (p *PKGClient) CloseRound(round uint32) {
	_ = p.c.Call("pkg.closeround", roundArgs{Round: round}, nil)
}

// Close closes the client's connections.
func (p *PKGClient) Close() { p.c.Close() }

// ---- Mixer daemon API ----

// MixerInfo advertises a mixer's pinned key, chain position and the
// generation of the server-plane surface it serves.
type MixerInfo struct {
	Name        string  `json:"name"`
	Position    int     `json:"position"`
	SigningKey  []byte  `json:"signing_key"`
	AddFriendMu float64 `json:"add_friend_mu"`
	DialingMu   float64 `json:"dialing_mu"`
	// ProtocolVersion is the ProtocolVersion constant of the build that
	// serves RegisterMixer; DialMixer refuses any other value.
	ProtocolVersion int `json:"protocol_version"`
	// ShardIndex/ShardCount advertise the daemon's pinned place in its
	// position's shard group (-shard i/N); ShardCount 0 means unpinned
	// (a whole position to itself unless the coordinator says otherwise).
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// Spare marks a hot-spare daemon (-spare): unpinned, idle until the
	// coordinator drafts it into a benched shard's slot for a round.
	Spare bool `json:"spare,omitempty"`
}

// MixerClient talks to a remote mixer daemon (RegisterMixer, forward.go);
// it is the coordinator's Mixer.
type MixerClient struct {
	addr string
	c    *Client
	info *MixerInfo
}

// waitTimeout bounds how long WaitRound polls for a round's data-plane
// completion before giving up.
const waitTimeout = 10 * time.Minute

// DialMixer connects to a mixer daemon and caches its info. A daemon
// serving any other ProtocolVersion is refused with ErrProtocolMismatch:
// there is one data plane, so a mixed fleet cannot run a round.
func DialMixer(addr string) (*MixerClient, error) {
	m := &MixerClient{addr: addr, c: Dial(addr)}
	var info MixerInfo
	if err := m.c.Call("mix.info", struct{}{}, &info); err != nil {
		return nil, err
	}
	if info.ProtocolVersion != ProtocolVersion {
		m.c.Close()
		return nil, fmt.Errorf("%w: mixer %s serves version %d, this coordinator speaks %d", ErrProtocolMismatch, addr, info.ProtocolVersion, ProtocolVersion)
	}
	m.info = &info
	return m, nil
}

// Info returns the mixer's advertised identity.
func (m *MixerClient) Info() *MixerInfo { return m.info }

// Addr returns the daemon's dial address. The coordinator hands it to the
// daemon's predecessor as the round's forwarding target.
func (m *MixerClient) Addr() string { return m.addr }

// TransportStats reports the client's transport accounting.
func (m *MixerClient) TransportStats() ClientStats { return m.c.Stats() }

// CallCount reports how many times the coordinator invoked a method on
// this daemon.
func (m *MixerClient) CallCount(method string) uint64 { return m.c.CallCount(method) }

// NewRound asks a position's announcer for its signed round onion key.
// peers is the round's shard network: the dial addresses of every member
// the coordinator placed in the group (spares included). The daemon serves
// the round key over mix.round.exportkey to those hosts only, so a drafted
// spare or a member can pull it but a stray caller cannot.
func (m *MixerClient) NewRound(service wire.Service, round uint32, peers []string) (wire.MixerRoundKey, error) {
	var rk wire.MixerRoundKey
	err := m.c.Call("mix.newround", newRoundArgs{Service: service, Round: round, Peers: peers}, &rk)
	return rk, err
}

// OpenRound sends the daemon its whole assignment for the round
// (mix.round.open): the plan for its position and its slot in it. The
// daemon works out its role from the route, pulls the round key from the
// group's slot 0 unless it is slot 0, and starts its noise.
func (m *MixerClient) OpenRound(service wire.Service, round uint32, spec wire.RouteSpec) error {
	return m.c.Call("mix.round.open", openArgs{Service: service, Round: round, RouteSpec: spec}, nil)
}

// ProbeTimeout bounds Probe's health check against an unresponsive daemon.
const ProbeTimeout = time.Second

// Probe is a cheap liveness check (mix.info, bounded by ProbeTimeout)
// used by the scheduler to decide whether a benched daemon has recovered
// and whether a candidate is reachable before planning it into a round.
// A dead TCP connection is redialed by the transport, so a probe
// succeeding after a daemon restart is the recovery signal itself.
func (m *MixerClient) Probe() error {
	ctx, cancel := context.WithTimeout(context.Background(), ProbeTimeout)
	defer cancel()
	var info MixerInfo
	return m.c.CallContext(ctx, "mix.info", struct{}{}, &info)
}

// WaitRound blocks until the daemon's data-plane role in the round
// completes (forwarded downstream, or published to the CDN) and returns
// the daemon's error if it failed or was aborted, along with the daemon's
// self-reported duration and batch byte counts for the coordinator's
// round-health tracking. The wait is a bounded long-poll, so the daemon
// never parks a handler forever; each poll holds a connection of its own,
// so control calls (an abort, the other service's round) never queue
// behind it.
func (m *MixerClient) WaitRound(service wire.Service, round uint32) (wire.MixerRoundStats, error) {
	deadline := time.Now().Add(waitTimeout)
	for {
		var reply waitReply
		if err := m.c.Call("mix.round.wait", roundArgs{Service: service, Round: round}, &reply); err != nil {
			return wire.MixerRoundStats{}, err
		}
		if reply.Done {
			stats := wire.MixerRoundStats{
				Duration:    time.Duration(reply.DurationMs) * time.Millisecond,
				BytesIn:     reply.BytesIn,
				BytesOut:    reply.BytesOut,
				AbortReason: reply.Reason,
			}
			if reply.Error != "" {
				return stats, errors.New(reply.Error)
			}
			return stats, nil
		}
		if time.Now().After(deadline) {
			return wire.MixerRoundStats{}, fmt.Errorf("rpc: round %d (%s) did not complete within %v", round, service, waitTimeout)
		}
	}
}

// AbortRound discards the daemon's in-flight stream and route for the
// round, unblocking any waiter. The daemon propagates the abort to its
// successors and its group.
func (m *MixerClient) AbortRound(service wire.Service, round uint32, reason string) error {
	return m.c.Call("mix.round.abort", abortArgs{Service: service, Round: round, Reason: reason}, nil)
}

// CloseRound erases the daemon's round key and route.
func (m *MixerClient) CloseRound(service wire.Service, round uint32) {
	_ = m.c.Call("mix.closeround", roundArgs{Service: service, Round: round}, nil)
}

// NoiseMu returns the daemon's advertised per-mailbox noise mean.
func (m *MixerClient) NoiseMu(service wire.Service) float64 {
	if service == wire.Dialing {
		return m.info.DialingMu
	}
	return m.info.AddFriendMu
}

// ---- Entry/CDN daemon API (the client-facing frontend) ----

// ProtocolVersion is the one generation of the RPC surface: the methods
// RegisterFrontend serves to clients, the ones RegisterMixer serves to the
// coordinator and to other mixers, and the ones RegisterPKG serves to the
// coordinator. RegisterFrontend stamps it into every directory,
// RegisterMixer into mix.info and RegisterPKG into pkg.info;
// FrontendClient.Directory, DialMixer and PKGClient.Info refuse any other
// value — there is no older rung to degrade to, so a mismatch is an
// operator error that must surface, not a silently slower client or a
// round on some other data plane. Bump it when any surface changes
// incompatibly. Version 2 was the one-pairing generation (one ciphertext
// tier, one PKG domain tag). Version 3 is the blob data plane: onions,
// mailboxes and round keys cross raw in data frames (see the package
// doc), which a version-2 peer cannot parse. Version 4 swaps the IBE's
// groups: master public keys and ciphertext elements in G1, identity keys
// in G2, so every round key, identity key and sealed request changes size;
// and a dialing mailbox's Bloom filter sets different bits for a token.
// Version 5 opens a mixer's round with one mix.round.open, and
// mix.newround carries the announcer's export allowlist. Version 6 sends
// G1 points compressed (32 B): master public keys, PKG attestations, the
// multisignature and the ciphertext element, so every round key and
// sealed request shrinks. Version 7 folds mix.merge.* and mix.deal.* into
// mix.stream.* stages: every data-plane call names its stage and upstream
// slot. Version 8 folds entry.replicate.feed into entry.replicate.close:
// a frontend's close carries the feed's params and deals its sub-batch.
// Version 9 sends mix.round.open the plan for the daemon's position — the
// group, the lead's slot and the daemon's slot — in place of the roles
// derived from it (key source, merge address, build shards, shard count).
// Version 10 takes the framing off the plan: mix.round.open carries no
// chunk size, entry.replicate.close no chunk size or mailbox count, and a
// mix.stream call no mailbox count, since every sender cuts its own
// chunks and every daemon holds the count from its route.
const ProtocolVersion = 10

// ErrProtocolMismatch is returned (wrapped, naming both versions) by
// FrontendClient.Directory, DialMixer and PKGClient.Info when the peer
// serves a different ProtocolVersion; a peer that predates the field
// reports version 0.
var ErrProtocolMismatch = errors.New("rpc: protocol version mismatch")

// Directory describes a full deployment to connecting clients: addresses
// and pinned keys for every server. Served by the entry daemon.
type Directory struct {
	PKGAddrs   []string `json:"pkg_addrs"`
	PKGKeys    [][]byte `json:"pkg_keys"`
	PKGBLSKeys [][]byte `json:"pkg_bls_keys"`
	MixerKeys  [][]byte `json:"mixer_keys"`
	NumMixers  int      `json:"num_mixers"`
	// ProtocolVersion is the generation of the client-facing surface the
	// frontend serves (see the ProtocolVersion constant). RegisterFrontend
	// sets it; callers leave it zero.
	ProtocolVersion int `json:"protocol_version"`
	// FrontendAddrs lists every entry frontend in the deployment
	// (client-facing addresses, coordinator's own frontend first). All
	// frontends replay the coordinator's announcement log in the same
	// order — one shared cursor namespace — so a client may pool them
	// (DialFrontendPool) and fail over mid-round without a snapshot
	// reset. Empty on single-frontend deployments.
	FrontendAddrs []string `json:"frontend_addrs,omitempty"`
	// CDNAddrs lists the deployment's CDN nodes (client-facing read
	// addresses). Every node holds every sealed round — its peers pull
	// each round the ingest node seals — so a client may pool them
	// (DialCDNPool) and fail mailbox fetches over to a replica mid-round.
	// Empty when mailboxes are served through the frontends themselves.
	CDNAddrs []string `json:"cdn_addrs,omitempty"`
}

// submitArgs carries the onion as its one blob.
type submitArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	blobs
}

type fetchArgs struct {
	Service wire.Service `json:"service"`
	Round   uint32       `json:"round"`
	Mailbox uint32       `json:"mailbox"`
}

// eventsArgs is the entry.events long-poll request: announcements after
// Cursor, waiting up to WaitMs for news (bounded by maxEventsWait).
type eventsArgs struct {
	Cursor uint64 `json:"cursor"`
	WaitMs int    `json:"wait_ms,omitempty"`
}

// wireEvent is one round announcement on the wire. A round-open event
// carries the round's canonical settings encoding so the client never
// fetches them separately. Settings are self-authenticating — every mixer
// and PKG contribution is signed under keys the client pins — so riding
// them over the untrusted push channel changes nothing about their trust
// story: the client signature-checks them before use exactly as it would
// a fetched copy.
type wireEvent struct {
	Cursor   uint64       `json:"cursor"`
	Service  wire.Service `json:"service"`
	Round    uint32       `json:"round"`
	Kind     int          `json:"kind"`
	Settings []byte       `json:"settings,omitempty"`
}

type eventsReply struct {
	Events []wireEvent `json:"events,omitempty"`
	Next   uint64      `json:"next"`
	// Gap reports that announcements between the caller's cursor and this
	// reply were evicted; the reply is then coalesced to the newest event
	// per (service, kind), which — round progress being monotonic — is
	// everything still actionable.
	Gap bool `json:"gap,omitempty"`
}

// announcements decodes a reply from an untrusted frontend. A settings
// blob that fails to decode is dropped and the client falls back to
// entry.settings for that round: settings are verified either way, so a
// bad copy costs one RPC, never correctness.
func (r *eventsReply) announcements() []entry.Announcement {
	anns := make([]entry.Announcement, len(r.Events))
	for i, ev := range r.Events {
		anns[i] = entry.Announcement{
			Cursor:  ev.Cursor,
			Service: ev.Service,
			Round:   ev.Round,
			Kind:    entry.EventKind(ev.Kind),
		}
		if len(ev.Settings) > 0 {
			if rs, err := wire.UnmarshalRoundSettings(ev.Settings); err == nil {
				anns[i].Settings = rs
			}
		}
	}
	return anns
}

type fetchRangeArgs struct {
	Service   wire.Service `json:"service"`
	FromRound uint32       `json:"from_round"`
	ToRound   uint32       `json:"to_round"`
	Mailbox   uint32       `json:"mailbox"`
}

// keyedBlobs pairs blob i with Keys[i]: a mailbox ID in a batch of mailbox
// fragments (cdn.publish, the cdn.pull reply), a round in a
// cdn.fetchrange reply.
type keyedBlobs struct {
	Keys []uint32 `json:"keys,omitempty"`
	blobs
}

func (k *keyedBlobs) add(key uint32, b []byte) {
	k.Keys = append(k.Keys, key)
	k.blobs = append(k.blobs, b)
}

// check refuses a batch whose keys and blobs do not pair up.
func (k keyedBlobs) check() error {
	if len(k.Keys) != len(k.blobs) {
		return fmt.Errorf("rpc: %d keys for %d blobs", len(k.Keys), len(k.blobs))
	}
	return nil
}

// blobReply is a reply that is all blob section: cdn.fetch's mailbox.
type blobReply struct{ blobs }

const (
	// maxEventsWait bounds how long one entry.events call may park
	// server-side. Long parks are the point of the long-poll — an idle
	// client costs the frontend one request per maxEventsWait — and
	// Server.Closing unparks them all at shutdown.
	maxEventsWait = 30 * time.Second
	// eventsClientWait is the park clients request per entry.events call.
	eventsClientWait = 25 * time.Second
	// eventsBatchMax caps events per reply.
	eventsBatchMax = 512
)

// MailboxSource is the read side of the mailbox store a frontend serves
// to clients. A coordinator-colocated frontend hands its local *cdn.Store
// straight in; a pure frontend (-frontend-only) hands in a client that
// proxies fetches to the deployment's real CDN, so every frontend answers
// cdn.fetch/fetchrange identically and a failed-over client never changes
// its fetch path.
type MailboxSource interface {
	Fetch(service wire.Service, round uint32, mailbox uint32) ([]byte, error)
	FetchRange(service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error)
}

// RegisterCDNFrontend installs the mailbox read plane — cdn.fetch and
// cdn.fetchrange (one request for a span of rounds) — that entry
// frontends and CDN nodes both serve, so clients (via CDNPool) can fetch
// mailboxes from CDN nodes directly.
func RegisterCDNFrontend(s *Server, store MailboxSource) {
	HandleFunc(s, "cdn.fetch", func(a fetchArgs) (any, error) {
		box, err := store.Fetch(a.Service, a.Round, a.Mailbox)
		if err != nil {
			return nil, err
		}
		return blobReply{blobs{box}}, nil
	})
	HandleFunc(s, "cdn.fetchrange", func(a fetchRangeArgs) (any, error) {
		boxes, err := store.FetchRange(a.Service, a.FromRound, a.ToRound, a.Mailbox)
		if err != nil {
			return nil, err
		}
		var reply keyedBlobs
		for r, box := range boxes {
			reply.add(r, box)
		}
		return reply, nil
	})
}

// RegisterFrontend exposes the entry server, the mailbox read plane and
// the deployment directory over RPC — the whole client-facing surface,
// stamped ProtocolVersion: frontend.directory, entry.events (a resumable
// long-poll over the entry server's cursor-stamped announcement log, the
// same framing family as mix.round.wait, with round settings riding
// inside open events), entry.settings (for consumers whose open event has
// left the retained window, such as scans after a restart), entry.submit,
// cdn.fetch and cdn.fetchrange.
//
// cdn.publish is deliberately NOT served here — the transport carries no
// authentication, so the write surface must live on a separate
// server-plane listener (RegisterCDN) that deployments keep away from
// clients; otherwise any client could publish a round's mailboxes first
// and censor the real ones.
func RegisterFrontend(s *Server, e *entry.Server, store MailboxSource, dir Directory) {
	dir.ProtocolVersion = ProtocolVersion
	HandleFunc(s, "frontend.directory", func(struct{}) (any, error) {
		return dir, nil
	})
	HandleFunc(s, "entry.settings", func(a roundArgs) (any, error) {
		settings, err := e.Settings(a.Service, a.Round)
		if err != nil {
			return nil, err
		}
		return settings.Marshal(), nil
	})
	HandleFunc(s, "entry.submit", func(a submitArgs) (any, error) {
		return nil, e.Submit(a.Service, a.Round, a.one())
	})
	HandleFunc(s, "entry.events", func(a eventsArgs) (any, error) {
		wait := time.Duration(a.WaitMs) * time.Millisecond
		if wait <= 0 || wait > maxEventsWait {
			wait = maxEventsWait
		}
		// A shutting-down server unparks every waiter immediately.
		ctx, cancel := context.WithTimeout(s.ctx, wait)
		defer cancel()
		anns, next, gap := e.WaitEvents(ctx, a.Cursor, eventsBatchMax)
		reply := eventsReply{Next: next, Gap: gap}
		for _, ann := range anns {
			ev := wireEvent{
				Cursor:  ann.Cursor,
				Service: ann.Service,
				Round:   ann.Round,
				Kind:    int(ann.Kind),
			}
			if ann.Kind == entry.RoundOpen && ann.Settings != nil {
				ev.Settings = ann.Settings.Marshal()
			}
			reply.Events = append(reply.Events, ev)
		}
		return reply, nil
	})
	RegisterCDNFrontend(s, store)
}

// RegisterCoordinatorStatus exposes a read-only coordinator scheduling
// snapshot as coordinator.status: the per-daemon scoreboard (EWMA
// duration and throughput, failure counts by abort reason, bench/spare
// state) plus recent round health. The source callback is invoked per
// request so the reply is always current; it typically returns a struct
// built from coordinator.Scoreboard() and coordinator.Status(). The
// surface is strictly observational — there is no mutating counterpart —
// so serving it on the client-facing frontend listener is safe.
func RegisterCoordinatorStatus(s *Server, source func() any) {
	HandleFunc(s, "coordinator.status", func(struct{}) (any, error) {
		return source(), nil
	})
}

// CoordinatorStatus fetches the frontend's coordinator.status snapshot
// as raw JSON (the payload shape belongs to the coordinator, not the
// transport). Frontends that predate the surface return an
// unknown-method error.
func (f *FrontendClient) CoordinatorStatus(ctx context.Context) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := f.c.CallContext(ctx, "coordinator.status", struct{}{}, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// UnmarshalBLSKey decodes a BLS public key from a directory entry; it
// exists so daemon binaries need not import internal/bls directly.
func UnmarshalBLSKey(data []byte) (*bls.PublicKey, error) {
	return bls.UnmarshalPublicKey(data)
}

// FrontendClient talks to one entry frontend; it satisfies
// core.EntryServer and — through the embedded CDNClient, whose client it
// shares for every call, the entry.events long-poll included —
// core.MailboxStore.
type FrontendClient struct {
	*CDNClient
}

// DialFrontend connects to the entry daemon.
func DialFrontend(addr string) *FrontendClient {
	return &FrontendClient{DialCDN(addr)}
}

// Directory fetches the deployment directory. A frontend serving any
// other ProtocolVersion is refused with ErrProtocolMismatch.
func (f *FrontendClient) Directory(ctx context.Context) (*Directory, error) {
	var dir Directory
	if err := f.c.CallContext(ctx, "frontend.directory", struct{}{}, &dir); err != nil {
		return nil, err
	}
	if dir.ProtocolVersion != ProtocolVersion {
		return nil, fmt.Errorf("%w: frontend %s serves version %d, this client speaks %d", ErrProtocolMismatch, f.addr, dir.ProtocolVersion, ProtocolVersion)
	}
	return &dir, nil
}

// WatchRounds implements core.EntryServer over the entry.events
// long-poll: it parks on the frontend until announcements after cursor
// exist.
func (f *FrontendClient) WatchRounds(ctx context.Context, cursor uint64) ([]entry.Announcement, uint64, error) {
	for {
		var reply eventsReply
		err := f.c.CallContext(ctx, "entry.events", eventsArgs{
			Cursor: cursor, WaitMs: int(eventsClientWait / time.Millisecond),
		}, &reply)
		if err != nil {
			return nil, cursor, err
		}
		if len(reply.Events) == 0 {
			// The server's park expired with no news; park again.
			if err := ctx.Err(); err != nil {
				return nil, cursor, err
			}
			continue
		}
		return reply.announcements(), reply.Next, nil
	}
}

// Settings implements core.EntryServer.
func (f *FrontendClient) Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error) {
	var raw []byte
	if err := f.c.CallContext(ctx, "entry.settings", roundArgs{Service: service, Round: round}, &raw); err != nil {
		return nil, err
	}
	return wire.UnmarshalRoundSettings(raw)
}

// Submit implements core.EntryServer. The entry server's admission
// signals cross the wire as strings, so the typed sentinels are mapped
// back here for the client's errors.Is checks.
func (f *FrontendClient) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	err := f.c.CallContext(ctx, "entry.submit", submitArgs{Service: service, Round: round, blobs: blobs{onion}}, nil)
	if err != nil && strings.Contains(err.Error(), entry.ErrRoundFull.Error()) {
		return fmt.Errorf("rpc: %w", entry.ErrRoundFull)
	}
	return err
}
