package core

import (
	"bytes"
	"context"
	"crypto/ecdh"
	"crypto/ed25519"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/wire"
)

// This file implements the client side of the add-friend protocol
// (Algorithm 1 in the paper).

// scanChunkSize is how many mailbox entries one scan worker feeds to
// ibe.DecryptBatch at a time: large enough to amortize the batch's shared
// field inversion, small enough that a 24k-entry mailbox still spreads
// evenly over a handful of cores.
const scanChunkSize = 32

// SubmitAddFriendRound performs the submission half of an add-friend round:
// it verifies the round settings, extracts this round's identity key shares
// and PKG attestations (step 1), builds either a real friend request
// (steps 2a, 3) or cover traffic (step 2b), and submits the onion.
//
// The client calls this exactly once per round, whether or not the user is
// adding anyone — the fixed-size cover request is what hides add-friend
// activity.
func (c *Client) SubmitAddFriendRound(ctx context.Context, round uint32) error {
	settings, err := c.roundSettings(ctx, wire.AddFriend, round, true)
	if err != nil {
		return err
	}

	// Step 1: acquire identity key shares and attestations from every
	// PKG, verifying the aggregated BLS attestation before keeping them.
	if err := c.extractRoundKeys(ctx, round); err != nil {
		return fmt.Errorf("core: extracting round keys: %w", err)
	}

	payload, commit, err := c.buildAddFriendPayload(round, settings)
	if err != nil {
		return err
	}

	// Step 3: onion-wrap for the mix chain and submit.
	onion, err := c.wrapOnion(settings, payload)
	if err != nil {
		return err
	}
	if err := c.cfg.Entry.Submit(ctx, wire.AddFriend, round, onion); err != nil {
		// The request never reached the entry server: leave it queued
		// for the next round. Admission control (a full round) is a
		// deferral, not a failure — report it and carry on; anything
		// else (e.g. the round closed first) is the caller's error.
		if errors.Is(err, entry.ErrRoundFull) {
			c.reportErr(fmt.Errorf("core: add-friend round %d deferred us: %w", round, err))
			return nil
		}
		return err
	}
	// Only now that the request is on the wire, mark it sent.
	if commit != nil {
		commit()
	}
	return nil
}

// extractRoundKeys performs Algorithm 1 step 1 against every PKG and
// caches the aggregated results for the round's scan phase.
//
// The PKGs are asked concurrently (one round trip instead of one per PKG),
// and their attestation shares are verified IN AGGREGATE: one pairing check
// of the summed shares against the summed pinned keys instead of one per
// PKG. Only if that fails are the shares checked one by one, to name the
// PKG at fault. This accepts exactly the multisignatures the share-by-share
// rule let through to a recipient: only the aggregate is ever used
// afterwards (it is what the friend request carries), and handleFriendRequest
// on the receiving side runs this same check against this same key.
func (c *Client) extractRoundKeys(ctx context.Context, round uint32) error {
	c.mu.Lock()
	if _, done := c.roundKeys[round]; done {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()

	sig := ed25519.Sign(c.signingPriv, pkgserver.ExtractMessage(c.cfg.Email, round))
	replies := make([]*pkgserver.ExtractReply, len(c.cfg.PKGs))
	errs := make([]error, len(c.cfg.PKGs))
	var wg sync.WaitGroup
	for i, pkg := range c.cfg.PKGs {
		wg.Add(1)
		go func(i int, pkg PKG) {
			defer wg.Done()
			replies[i], errs[i] = pkg.Extract(ctx, c.cfg.Email, round, sig)
		}(i, pkg)
	}
	wg.Wait()

	idKeys := make([]*ibe.IdentityPrivateKey, len(replies))
	sigs := make([]*bls.Signature, len(replies))
	for i, reply := range replies {
		if errs[i] != nil {
			return fmt.Errorf("PKG %d: %w", i, errs[i])
		}
		idKeys[i] = reply.IdentityKey
		sigs[i] = reply.Attestation
	}

	attMsg := wire.AttestationMessage(c.cfg.Email, c.signingPub, round)
	pkgSigs := bls.AggregateSignatures(sigs...)
	if !c.verifyBLS(c.pkgAggKey, attMsg, pkgSigs) {
		for i, share := range sigs {
			if !c.verifyBLS(c.cfg.PKGBLSKeys[i], attMsg, share) {
				return fmt.Errorf("PKG %d returned invalid attestation", i)
			}
		}
		return errors.New("PKG attestations do not aggregate to a valid multisignature")
	}

	c.mu.Lock()
	c.roundKeys[round] = &roundSecrets{
		identityKey: ibe.AggregatePrivateKeys(idKeys...),
		pkgSigs:     pkgSigs,
	}
	c.mu.Unlock()
	return nil
}

// buildAddFriendPayload creates the innermost mix payload: a real IBE-
// encrypted friend request if one is queued (step 2a), else cover traffic
// (step 2b).
//
// For a real request it also returns a commit callback that marks the
// request sent (and, for a response, completes the friendship). The caller
// runs it only after the entry server accepts the onion — a request
// consumed before a failed submission would be silently lost while the
// pending entry waits forever for a reply that cannot come.
func (c *Client) buildAddFriendPayload(round uint32, settings *wire.RoundSettings) ([]byte, func(), error) {
	c.mu.Lock()
	var target *pendingFriend
	for _, p := range c.pending {
		if p.queued {
			target = p
			break
		}
	}
	var secrets = c.roundKeys[round]
	dialRound := c.dialRound + c.cfg.DialRoundDelta
	c.mu.Unlock()

	if target == nil {
		// Step 2b: fake request — all-zero body to the cover mailbox.
		payload := &wire.MixPayload{
			Mailbox: wire.CoverMailbox,
			Body:    make([]byte, wire.EncryptedFriendRequestSize),
		}
		return payload.Marshal(), nil, nil
	}

	// Step 2a: real request.
	dhPriv, err := ecdh.X25519().GenerateKey(c.cfg.Rand)
	if err != nil {
		return nil, nil, err
	}
	req := &wire.FriendRequest{
		SenderEmail:  c.cfg.Email,
		SenderKey:    c.signingPub,
		PKGSigs:      secrets.pkgSigs.Marshal(),
		DialingKey:   dhPriv.PublicKey().Bytes(),
		DialingRound: dialRound,
	}
	req.SenderSig = ed25519.Sign(c.signingPriv, req.SigningMessage())
	plaintext, err := req.Marshal()
	if err != nil {
		return nil, nil, err
	}

	// Encrypt to the friend's identity under the round's aggregated master
	// key, on the sealed-ciphertext tier the round's settings select.
	agg, err := c.roundMasterKey(settings)
	if err != nil {
		return nil, nil, err
	}
	var ctxt []byte
	if settings.PairingV2() {
		c2, err := ibe.EncryptV2(c.cfg.Rand, agg, target.email, plaintext)
		if err != nil {
			return nil, nil, err
		}
		ctxt = []byte(c2)
	} else {
		ctxt, err = ibe.Encrypt(c.cfg.Rand, agg, target.email, plaintext)
		if err != nil {
			return nil, nil, err
		}
	}

	commit := func() {
		c.mu.Lock()
		target.queued = false
		target.dhPriv = dhPriv
		target.myDialRound = dialRound
		// If this request answers an incoming one, we already have the
		// friend's DH key: the keywheel exists as soon as our reply is
		// on the wire (they will compute the same secret on receipt).
		var confirmed string
		if target.isResponse {
			c.completeFriendshipLocked(target, target.theirKey, target.theirDH, target.theirDialRound)
			confirmed = target.email
		}
		c.persistLocked()
		c.mu.Unlock()
		if confirmed != "" {
			c.cfg.Handler.ConfirmedFriend(confirmed)
		}
	}

	payload := &wire.MixPayload{
		Mailbox: wire.MailboxID(target.email, settings.NumMailboxes),
		Body:    ctxt,
	}
	return payload.Marshal(), commit, nil
}

// discardStaleRoundKeys erases cached add-friend round secrets for every
// round below keep. The Run loop calls it once it submits round `keep`:
// earlier rounds can no longer be scanned (a scan requires the round to
// be this client's latest submission), so holding their identity keys
// would violate §4.4's erasure discipline — the ability to decrypt a
// round's mailbox must not outlive the round.
func (c *Client) discardStaleRoundKeys(keep uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for round, rs := range c.roundKeys {
		if round < keep {
			rs.identityKey.Erase()
			delete(c.roundKeys, round)
		}
	}
}

// wrapOnion wraps a payload for the round's mix chain (Algorithm 1 step 3).
func (c *Client) wrapOnion(settings *wire.RoundSettings, payload []byte) ([]byte, error) {
	hops := make([]*onionbox.PublicKey, len(settings.Mixers))
	for i, m := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(m.OnionKey)
		if err != nil {
			return nil, fmt.Errorf("core: mixer %d round key: %w", i, err)
		}
		hops[i] = pk
	}
	return onionbox.WrapOnion(c.cfg.Rand, hops, payload)
}

// ScanAddFriendRound performs the receive half of an add-friend round
// (Algorithm 1 steps 4-5): download this user's mailbox, attempt to decrypt
// every request with the round's aggregated identity key, authenticate and
// process the ones addressed to us, then erase the round's identity key
// (forward secrecy, §4.4).
func (c *Client) ScanAddFriendRound(ctx context.Context, round uint32) error {
	settings, err := c.roundSettings(ctx, wire.AddFriend, round, true)
	if err != nil {
		return err
	}

	c.mu.Lock()
	secrets := c.roundKeys[round]
	c.mu.Unlock()
	if secrets == nil {
		return fmt.Errorf("core: no identity key for round %d (submit phase skipped?)", round)
	}
	defer func() {
		// Erase the round's identity key whether or not the scan
		// succeeded: the mailbox is retained by the CDN, but our
		// ability to decrypt it must not outlive the round.
		secrets.identityKey.Erase()
		c.mu.Lock()
		delete(c.roundKeys, round)
		c.mu.Unlock()
	}()

	box, err := c.cfg.Mailboxes.Fetch(ctx, wire.AddFriend, round, wire.MailboxID(c.cfg.Email, settings.NumMailboxes))
	if err != nil {
		return fmt.Errorf("core: fetching mailbox: %w", err)
	}
	if len(box)%wire.EncryptedFriendRequestSize != 0 {
		return fmt.Errorf("core: mailbox size %d not a multiple of request size", len(box))
	}

	// Step 4: trial-decrypt every request in the mailbox. Decryptions
	// are independent pairing computations, so they fan out across
	// cores (the paper's client scans on 4 cores, §8.2); the successful
	// plaintexts are then processed in mailbox order for determinism.
	// Every trial decryption pairs against the same identity key, so the
	// key's Miller-loop ladder is precomputed once (before the workers
	// start — the precomputation is not concurrency-safe) and shared
	// read-only by the pool. Each worker pulls a CHUNK of the mailbox and
	// runs it through ibe.DecryptBatch, which amortizes the shared-
	// inversion pairing pipeline across the chunk; results land at their
	// mailbox index, preserving processing order. The round's signed
	// settings select the pairing tier — a v2 round scans through the
	// optimal-ate DecryptBatchV2 (~1.8x the batched v1 marginal cost).
	scanBatch := ibe.DecryptBatch
	if settings.PairingV2() {
		secrets.identityKey.PrecomputeV2()
		scanBatch = ibe.DecryptBatchV2
	} else {
		secrets.identityKey.Precompute()
	}
	n := len(box) / wire.EncryptedFriendRequestSize
	plaintexts := make([][]byte, n)
	chunks := (n + scanChunkSize - 1) / scanChunkSize
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	var wg sync.WaitGroup
	next := make(chan int, chunks)
	for chunk := 0; chunk < chunks; chunk++ {
		next <- chunk
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctxts := make([][]byte, 0, scanChunkSize)
			for chunk := range next {
				lo := chunk * scanChunkSize
				hi := lo + scanChunkSize
				if hi > n {
					hi = n
				}
				ctxts = ctxts[:0]
				for i := lo; i < hi; i++ {
					off := i * wire.EncryptedFriendRequestSize
					ctxts = append(ctxts, box[off:off+wire.EncryptedFriendRequestSize])
				}
				pts, oks := scanBatch(secrets.identityKey, ctxts)
				for j, ok := range oks {
					if ok {
						plaintexts[lo+j] = pts[j]
					}
				}
			}
		}()
	}
	wg.Wait()

	for _, plaintext := range plaintexts {
		if plaintext == nil {
			continue // someone else's request, or noise
		}
		req, err := wire.UnmarshalFriendRequest(plaintext)
		if err != nil {
			c.reportErr(fmt.Errorf("core: malformed friend request: %w", err))
			continue
		}
		c.handleFriendRequest(round, req)
	}
	return nil
}

// handleFriendRequest authenticates and processes one decrypted friend
// request (Algorithm 1 steps 4-5).
func (c *Client) handleFriendRequest(round uint32, req *wire.FriendRequest) {
	// ok1: the PKG multisignature proves SenderKey belongs to
	// SenderEmail as long as one PKG is honest.
	attMsg := wire.AttestationMessage(req.SenderEmail, req.SenderKey, round)
	sig, err := bls.UnmarshalSignature(req.PKGSigs)
	if err != nil || !c.verifyBLS(c.pkgAggKey, attMsg, sig) {
		c.reportErr(fmt.Errorf("core: friend request from %q: invalid PKG multisignature", req.SenderEmail))
		return
	}
	// ok2: the sender's own signature binds the DH key and dialing round.
	if !ed25519.Verify(req.SenderKey, req.SigningMessage(), req.SenderSig) {
		c.reportErr(fmt.Errorf("core: friend request from %q: invalid sender signature", req.SenderEmail))
		return
	}

	c.mu.Lock()
	p, outgoing := c.pending[req.SenderEmail]

	if outgoing && !p.queued && p.dhPriv != nil && !p.isResponse {
		// This is the confirmation of a request we initiated.
		// Out-of-band key check (§3.2, worst-case security).
		if p.expectedKey != nil && !bytes.Equal(p.expectedKey, req.SenderKey) {
			delete(c.pending, req.SenderEmail)
			c.persistLocked()
			c.mu.Unlock()
			c.reportErr(fmt.Errorf("core: %s responded with key that does not match out-of-band key (possible MITM)", req.SenderEmail))
			return
		}
		c.completeFriendshipLocked(p, req.SenderKey, req.DialingKey, req.DialingRound)
		c.persistLocked()
		c.mu.Unlock()
		c.cfg.Handler.ConfirmedFriend(req.SenderEmail)
		return
	}

	if outgoing && p.queued && !p.isResponse {
		// Simultaneous add: both users sent requests in the same (or
		// overlapping) rounds. Convert our still-queued request into
		// a response carrying their half.
		p.isResponse = true
		p.theirKey = req.SenderKey
		p.theirDH = req.DialingKey
		p.theirDialRound = req.DialingRound
		if p.expectedKey != nil && !bytes.Equal(p.expectedKey, req.SenderKey) {
			delete(c.pending, req.SenderEmail)
			c.persistLocked()
			c.mu.Unlock()
			c.reportErr(fmt.Errorf("core: %s's key does not match out-of-band key (possible MITM)", req.SenderEmail))
			return
		}
		c.persistLocked()
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	// A brand-new incoming request: ask the application (§3's NewFriend
	// callback). TOFU: the key we see now is the key we will remember.
	if !c.cfg.Handler.NewFriend(req.SenderEmail, req.SenderKey) {
		return
	}
	c.mu.Lock()
	c.pending[req.SenderEmail] = &pendingFriend{
		email:          req.SenderEmail,
		queued:         true,
		isResponse:     true,
		theirKey:       req.SenderKey,
		theirDH:        req.DialingKey,
		theirDialRound: req.DialingRound,
	}
	c.persistLocked()
	c.mu.Unlock()
}

// completeFriendshipLocked computes the shared secret (Algorithm 1 step 5),
// creates the keywheel, and installs the friend. Caller holds c.mu.
func (c *Client) completeFriendshipLocked(p *pendingFriend, theirKey ed25519.PublicKey, theirDH []byte, theirDialRound uint32) {
	theirPub, err := ecdh.X25519().NewPublicKey(theirDH)
	if err != nil {
		c.reportErr(fmt.Errorf("core: %s sent invalid DH key: %v", p.email, err))
		delete(c.pending, p.email)
		return
	}
	shared, err := p.dhPriv.ECDH(theirPub)
	if err != nil {
		c.reportErr(fmt.Errorf("core: DH with %s failed: %v", p.email, err))
		delete(c.pending, p.email)
		return
	}
	var secret [keywheel.SecretSize]byte
	copy(secret[:], shared)

	// Both sides know both proposed dialing rounds; the keywheel starts
	// at the later one so neither side needs erased history.
	startRound := p.myDialRound
	if theirDialRound > startRound {
		startRound = theirDialRound
	}

	c.friends[p.email] = &Friend{
		Email:      p.email,
		SigningKey: theirKey,
		Confirmed:  true,
		wheel:      keywheel.New(startRound, &secret),
	}
	for i := range secret {
		secret[i] = 0
	}
	delete(c.pending, p.email)
}
