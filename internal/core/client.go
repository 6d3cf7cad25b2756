// Package core implements the Alpenhorn client: the paper's primary
// contribution. It maintains the user's long-term signing key and address
// book of keywheels, runs the add-friend protocol (§4, Algorithm 1) and the
// dialing protocol (§5), and submits cover traffic in every round so that
// an observer cannot tell when the user is actually communicating.
//
// The client is transport-agnostic: it talks to servers through the PKG,
// EntryServer, and MailboxStore interfaces, which are satisfied directly by
// the in-process server types (internal/pkgserver, internal/entry,
// internal/cdn) and by the TCP adapters in the cmd/ daemons.
//
// Most applications hand the client to Run, which follows the frontend's
// round announcements and drives every phase itself — see run.go. The
// phases remain public so that tests, benchmarks, and simulations can drive
// rounds deterministically:
//
//	SubmitAddFriendRound(ctx, r)  — extract round keys, send request or cover
//	ScanAddFriendRound(ctx, r)    — download mailbox, decrypt, process, erase keys
//	SubmitDialRound(ctx, r)       — send dial token or cover
//	ScanDialRound(ctx, r)         — download Bloom filter, detect calls, advance wheels
//
// Every server-touching method takes a leading context.Context, honored
// through the transport: a dead frontend fails the call instead of
// wedging the client.
package core

import (
	"context"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/wire"
)

// PKG is the client's view of one private-key generator.
type PKG interface {
	Register(ctx context.Context, email string, signingKey ed25519.PublicKey) error
	ConfirmRegistration(ctx context.Context, email, token string) error
	Extract(ctx context.Context, email string, round uint32, sig []byte) (*pkgserver.ExtractReply, error)
	Deregister(ctx context.Context, email string, sig []byte) error
}

// EntryServer is the client's view of the entry server.
type EntryServer interface {
	Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error)
	Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error
	// WatchRounds is the round-progress surface Run follows. It blocks
	// until announcements after cursor exist (or ctx ends) and returns
	// them with the cursor to resume from. Announcements carry monotonic
	// cursors, so a reconnecting client resumes where it left off and a
	// coalesced reply after a gap still carries the newest state.
	WatchRounds(ctx context.Context, cursor uint64) ([]entry.Announcement, uint64, error)
}

// MailboxStore is the client's view of the CDN.
type MailboxStore interface {
	Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error)
	// FetchRange fetches one mailbox across every published round in
	// [fromRound, toRound] in a single request, keyed by round;
	// unavailable rounds are absent.
	FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error)
}

// Handler receives asynchronous events from the client. Implementations
// must not call back into the client from inside a handler method (the
// client invokes handlers with internal processing complete, but reentrant
// calls from a handler goroutine are still the application's job to
// serialize).
type Handler interface {
	// NewFriend is invoked when a friend request arrives from an unknown
	// sender. Returning true accepts: the client will send a request
	// back, completing the handshake (§3).
	NewFriend(email string, key ed25519.PublicKey) bool

	// ConfirmedFriend is invoked when a friendship completes and the
	// shared keywheel exists (either side).
	ConfirmedFriend(email string)

	// IncomingCall is invoked when a dial token from a friend appears in
	// the user's mailbox.
	IncomingCall(call Call)

	// OutgoingCall is invoked when a queued Call was actually sent and
	// its session key exists.
	OutgoingCall(call Call)

	// Error reports non-fatal asynchronous errors (e.g. a mailbox that
	// could not be fetched, an invalid friend request).
	Error(err error)
}

// Call describes an established (incoming or outgoing) call: both sides
// hold the same SessionKey, which the application feeds to its messaging
// protocol (e.g. internal/vuvuzela).
type Call struct {
	Friend     string
	Intent     uint32
	Round      uint32
	SessionKey [keywheel.SecretSize]byte
}

// Friend is an address book entry.
type Friend struct {
	Email string
	// SigningKey is the friend's long-term key, learned out-of-band or
	// trust-on-first-use (§3.2).
	SigningKey ed25519.PublicKey
	// Confirmed is true once both sides have exchanged friend requests
	// and the keywheel exists.
	Confirmed bool

	wheel *keywheel.Wheel
}

// pendingFriend tracks an AddFriend handshake in progress.
type pendingFriend struct {
	email string
	// expectedKey is the optional out-of-band key for MITM defense.
	expectedKey ed25519.PublicKey
	// queued is true until the request goes out in some round.
	queued bool
	// dhPriv and myDialRound are set when our request is sent.
	dhPriv      *ecdh.PrivateKey
	myDialRound uint32
	// If this handshake answers an incoming request, their half:
	isResponse     bool
	theirKey       ed25519.PublicKey
	theirDH        []byte
	theirDialRound uint32
}

type queuedCall struct {
	friend string
	intent uint32
}

// Config configures a client.
type Config struct {
	// Email is the user's Alpenhorn username.
	Email string

	PKGs      []PKG
	Entry     EntryServer
	Mailboxes MailboxStore

	// Pinned long-term server keys (distributed with the software,
	// §3.3).
	MixerKeys  []ed25519.PublicKey
	PKGKeys    []ed25519.PublicKey
	PKGBLSKeys []*bls.PublicKey

	// NumIntents is how many intent values the application uses (§5.3).
	NumIntents uint32

	Handler Handler

	// Rand defaults to crypto/rand.
	Rand io.Reader

	// Persister, if set, receives the serialized client state after
	// every mutation (see persist.go).
	Persister Persister
}

// Client is an Alpenhorn client. All exported methods are safe for
// concurrent use.
type Client struct {
	cfg Config

	signingPub  ed25519.PublicKey
	signingPriv ed25519.PrivateKey

	// pkgAggKey is the sum of the pinned PKG attestation keys, built once:
	// the key every PKG multisignature — our own round's and every incoming
	// friend request's — is verified against.
	pkgAggKey *bls.PublicKey
	// verifyBLS is bls.Verify; a field so tests can count verifications.
	verifyBLS func(*bls.PublicKey, []byte, *bls.Signature) bool

	mu        sync.Mutex
	friends   map[string]*Friend
	pending   map[string]*pendingFriend
	calls     []queuedCall
	dialRound uint32 // latest dialing round processed

	// dialBacklog holds published dialing rounds awaiting a scan, in
	// round order, bounded by DefaultMaxDialBacklog. It persists with the
	// client state (along with lastQueued, the backlog cursor), so a
	// client restarted mid-round resumes its scans instead of rebuilding
	// from the frontend's status.
	dialBacklog []uint32
	lastQueued  uint32

	// Per-round extraction results, erased after the round's scan.
	roundKeys map[uint32]*roundSecrets

	// running is held by the one active Run call (run.go).
	running atomic.Bool
	// scanRetryBudget is Run's §5.1 give-up budget, DefaultScanRetryBudget
	// outside tests.
	scanRetryBudget time.Duration

	// settingsCache holds VERIFIED round settings, keyed by (service,
	// round), bounded FIFO. It is filled from round-open announcements
	// (they carry the round's settings) and from fetches, so a client
	// following the event stream issues no entry.settings call at all in
	// steady state — submit and scan both hit the cache.
	settingsMu    sync.Mutex
	settingsCache map[settingsKey]*cachedSettings
	settingsOrder []settingsKey
}

// cachedSettings is one round's verified settings plus what the client
// derives from them once per round.
type cachedSettings struct {
	rs *wire.RoundSettings
	// masterKey is the round's aggregated IBE master key, precomputed;
	// built by the round's first real friend request (roundMasterKey) and
	// dropped with the settings.
	masterKey *ibe.MasterPublicKey
}

// settingsKey identifies one round's settings in the client cache.
type settingsKey struct {
	service wire.Service
	round   uint32
}

// settingsCacheSize bounds the cache: submit-to-scan spans plus the
// bounded dialing backlog fit comfortably; anything older re-fetches.
const settingsCacheSize = 64

type roundSecrets struct {
	identityKey *ibe.IdentityPrivateKey
	pkgSigs     *bls.Signature
}

// NewClient creates a client with a fresh long-term signing key.
func NewClient(cfg Config) (*Client, error) {
	if cfg.Email == "" || len(cfg.Email) > wire.MaxEmailLen {
		return nil, errors.New("core: invalid email")
	}
	if len(cfg.PKGs) == 0 || cfg.Entry == nil || cfg.Mailboxes == nil {
		return nil, errors.New("core: config missing servers")
	}
	if len(cfg.PKGKeys) != len(cfg.PKGs) || len(cfg.PKGBLSKeys) != len(cfg.PKGs) {
		return nil, errors.New("core: pinned PKG key count mismatch")
	}
	if cfg.Handler == nil {
		return nil, errors.New("core: config needs a handler")
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	if cfg.NumIntents == 0 {
		cfg.NumIntents = 1
	}
	pub, priv, err := ed25519.GenerateKey(cfg.Rand)
	if err != nil {
		return nil, err
	}
	return &Client{
		cfg:             cfg,
		signingPub:      pub,
		signingPriv:     priv,
		pkgAggKey:       bls.AggregatePublicKeys(cfg.PKGBLSKeys...),
		verifyBLS:       bls.Verify,
		friends:         make(map[string]*Friend),
		pending:         make(map[string]*pendingFriend),
		roundKeys:       make(map[uint32]*roundSecrets),
		scanRetryBudget: DefaultScanRetryBudget,
	}, nil
}

// Email returns the client's username.
func (c *Client) Email() string { return c.cfg.Email }

// SigningKey returns the user's long-term public key, for out-of-band
// distribution (the paper's MySigningKey API).
func (c *Client) SigningKey() ed25519.PublicKey { return c.signingPub }

// Register registers the user's email and signing key with every PKG. Each
// PKG emails a confirmation token; complete the registration by calling
// ConfirmRegistration with each token (applications typically automate
// reading the inbox).
func (c *Client) Register(ctx context.Context) error {
	for i, pkg := range c.cfg.PKGs {
		if err := pkg.Register(ctx, c.cfg.Email, c.signingPub); err != nil {
			return fmt.Errorf("core: registering with PKG %d: %w", i, err)
		}
	}
	return nil
}

// ConfirmRegistration completes registration at one PKG with the token it
// emailed.
func (c *Client) ConfirmRegistration(ctx context.Context, pkgIndex int, token string) error {
	if pkgIndex < 0 || pkgIndex >= len(c.cfg.PKGs) {
		return errors.New("core: PKG index out of range")
	}
	return c.cfg.PKGs[pkgIndex].ConfirmRegistration(ctx, c.cfg.Email, token)
}

// Deregister revokes the account at every PKG (recovery from client
// compromise, §9). The account enters the 30-day lockout period.
func (c *Client) Deregister(ctx context.Context) error {
	sig := ed25519.Sign(c.signingPriv, pkgserver.DeregisterMessage(c.cfg.Email))
	var firstErr error
	for i, pkg := range c.cfg.PKGs {
		if err := pkg.Deregister(ctx, c.cfg.Email, sig); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: deregistering at PKG %d: %w", i, err)
		}
	}
	return firstErr
}

// AddFriend queues a friend request to the given email address. If
// theirKey is non-nil it is treated as out-of-band knowledge of the
// friend's long-term key and used to reject impostors even if all servers
// are compromised (§3.2). The request goes out in the next add-friend
// round.
func (c *Client) AddFriend(email string, theirKey ed25519.PublicKey) error {
	if email == c.cfg.Email {
		return errors.New("core: cannot add yourself")
	}
	if email == "" || len(email) > wire.MaxEmailLen {
		return errors.New("core: invalid friend email")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.friends[email]; ok && f.Confirmed {
		return fmt.Errorf("core: %s is already a friend", email)
	}
	if _, ok := c.pending[email]; ok {
		return fmt.Errorf("core: friend request to %s already pending", email)
	}
	c.pending[email] = &pendingFriend{
		email:       email,
		expectedKey: theirKey,
		queued:      true,
	}
	c.persistLocked()
	return nil
}

// RemoveFriend erases a friend's keywheel and address book entry. After
// this, Alpenhorn's forward secrecy prevents even a full compromise from
// determining that the two users were friends (§3.2).
func (c *Client) RemoveFriend(email string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.friends[email]; ok && f.wheel != nil {
		f.wheel.Erase()
	}
	delete(c.friends, email)
	delete(c.pending, email)
	c.persistLocked()
}

// Call queues a call to a confirmed friend with the given intent. The
// token goes out in the next dialing round; the session key is delivered
// through Handler.OutgoingCall once sent.
func (c *Client) Call(friend string, intent uint32) error {
	if intent >= c.cfg.NumIntents {
		return fmt.Errorf("core: intent %d out of range (NumIntents=%d)", intent, c.cfg.NumIntents)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.friends[friend]
	if !ok || !f.Confirmed {
		return fmt.Errorf("core: %s is not a confirmed friend", friend)
	}
	c.calls = append(c.calls, queuedCall{friend: friend, intent: intent})
	c.persistLocked()
	return nil
}

// Friends returns a snapshot of the address book.
func (c *Client) Friends() []Friend {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Friend, 0, len(c.friends))
	for _, f := range c.friends {
		out = append(out, Friend{
			Email:      f.Email,
			SigningKey: f.SigningKey,
			Confirmed:  f.Confirmed,
		})
	}
	return out
}

// IsFriend reports whether email is a confirmed friend.
func (c *Client) IsFriend(email string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.friends[email]
	return ok && f.Confirmed
}

// verifySettings checks a round's settings against the pinned server keys.
func (c *Client) verifySettings(rs *wire.RoundSettings, needPKGs bool) error {
	pkgKeys := c.cfg.PKGKeys
	if !needPKGs {
		pkgKeys = nil
	}
	return rs.Verify(c.cfg.MixerKeys, pkgKeys)
}

// cacheSettings stores already-verified settings, evicting FIFO past the
// bound. Callers MUST have verified rs first (with PKG keys when the
// service is add-friend): the cache serves submit and scan directly.
func (c *Client) cacheSettings(rs *wire.RoundSettings) {
	key := settingsKey{rs.Service, rs.Round}
	c.settingsMu.Lock()
	defer c.settingsMu.Unlock()
	if c.settingsCache == nil {
		c.settingsCache = make(map[settingsKey]*cachedSettings)
	}
	if _, ok := c.settingsCache[key]; ok {
		return
	}
	c.settingsCache[key] = &cachedSettings{rs: rs}
	c.settingsOrder = append(c.settingsOrder, key)
	if len(c.settingsOrder) > settingsCacheSize {
		evict := c.settingsOrder[0]
		c.settingsOrder = c.settingsOrder[1:]
		delete(c.settingsCache, evict)
	}
}

// noteAnnouncedSettings verifies and caches settings that rode a
// round-open announcement. The push channel is untrusted either way, so a
// copy that is inconsistent or fails signature verification is simply
// dropped — the submit path then fetches and verifies its own copy, so a
// bad push costs one extra RPC, never correctness.
func (c *Client) noteAnnouncedSettings(ann entry.Announcement) {
	rs := ann.Settings
	if rs == nil || rs.Service != ann.Service || rs.Round != ann.Round {
		return
	}
	if c.verifySettings(rs, ann.Service == wire.AddFriend) != nil {
		return
	}
	c.cacheSettings(rs)
}

// roundSettings returns the round's verified settings: from the cache
// when an announcement already delivered them, otherwise fetched from the
// entry server, verified against the pinned keys, and cached (a scan
// never re-fetches what its submit already pulled).
func (c *Client) roundSettings(ctx context.Context, service wire.Service, round uint32, needPKGs bool) (*wire.RoundSettings, error) {
	c.settingsMu.Lock()
	cached, ok := c.settingsCache[settingsKey{service, round}]
	c.settingsMu.Unlock()
	if ok {
		return cached.rs, nil
	}
	rs, err := c.cfg.Entry.Settings(ctx, service, round)
	if err != nil {
		return nil, fmt.Errorf("core: fetching settings: %w", err)
	}
	if err := c.verifySettings(rs, needPKGs); err != nil {
		return nil, fmt.Errorf("core: round %d settings: %w", round, err)
	}
	c.cacheSettings(rs)
	return rs, nil
}

// roundMasterKey returns the aggregated master public key of an add-friend
// round. It is kept beside the round's cached settings, built once per
// round and evicted with them, so repeated encryptions in a round decode
// and sum the PKGs' keys once.
func (c *Client) roundMasterKey(settings *wire.RoundSettings) (*ibe.MasterPublicKey, error) {
	c.settingsMu.Lock()
	defer c.settingsMu.Unlock()
	cached := c.settingsCache[settingsKey{settings.Service, settings.Round}]
	if cached != nil && cached.masterKey != nil {
		return cached.masterKey, nil
	}
	keys := make([]*ibe.MasterPublicKey, len(settings.PKGs))
	for i, pk := range settings.PKGs {
		mk, err := ibe.UnmarshalMasterPublicKey(pk.MasterKey)
		if err != nil {
			return nil, fmt.Errorf("core: PKG %d round key: %w", i, err)
		}
		keys[i] = mk
	}
	agg := ibe.AggregateMasterKeys(keys...)
	if cached != nil {
		cached.masterKey = agg
	}
	return agg, nil
}

// reportErr forwards a non-fatal error to the handler.
func (c *Client) reportErr(err error) {
	if err != nil {
		c.cfg.Handler.Error(err)
	}
}
