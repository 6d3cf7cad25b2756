// Package alpenhorn is a from-scratch reproduction of Alpenhorn, the system
// described in "Alpenhorn: Bootstrapping Secure Communication without
// Leaking Metadata" (Lazar & Zeldovich, OSDI 2016).
//
// Alpenhorn lets two users who know only each other's email addresses
// establish a fresh shared session key while hiding the METADATA of the
// exchange: an adversary observing all traffic — and controlling all but
// one server — cannot tell whom (or whether) a user is befriending or
// calling, and compromising a machine later reveals nothing about past
// communication (forward secrecy for metadata).
//
// The package exposes the EVENT-DRIVEN client API from Figure 1 of the
// paper: the application queues intents and receives callbacks, and the
// library participates in every round on its behalf:
//
//	client, _ := alpenhorn.NewClient(cfg)   // cfg names the servers + Handler
//	client.Register(ctx)                    // email-verified registration
//	go client.Run(ctx)                      // the managed round loop
//	client.AddFriend("bob@example.org", nil)
//	client.Call("bob@example.org", 0)       // intent 0
//
// Run owns everything between the application and the deployment's round
// schedule: it follows the frontend's round announcements (the
// entry.events stream), submits every round — a real request when one is
// queued, indistinguishable cover traffic otherwise — scans every
// published mailbox through a bounded, crash-persistent backlog with
// ranged fetches, retries failed scans on the §5.1 time budget before
// advancing the keywheels past them, and reconnects with backoff when the
// frontend dies. ConnectAddFriend and ConnectDialing
// expose the same loop per service, each returning a handle with
// Err/Close. Friendship confirmations and incoming calls are delivered
// through the application's Handler (the NewFriend / IncomingCall
// callbacks of the paper).
//
// Every server-touching method takes a context.Context, honored through
// the transport: cancelling it interrupts in-flight network calls, so a
// dead frontend can never wedge a client.
//
// Three protocols underpin the API:
//
//   - The add-friend protocol (§4) encrypts friend requests with
//     Anytrust-IBE — Boneh-Franklin identity-based encryption where the
//     master keys of n independent PKG servers are summed — so the sender
//     never looks up the recipient's key (no lookup, no metadata), and the
//     request stays private if any one PKG is honest.
//   - The dialing protocol (§5) turns each friendship's shared secret into
//     a keywheel that both sides evolve in lockstep; calls are 256-bit
//     dial tokens delivered through Bloom-filter-encoded mailboxes.
//   - Both protocols submit fixed-size requests through a Vuvuzela-style
//     verifiable-settings mixnet with Laplace noise (§6), in every round,
//     whether or not the user is doing anything.
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package alpenhorn

import (
	"alpenhorn/internal/core"
)

// Client is an Alpenhorn client: a long-term signing key plus an address
// book of keywheels. See the package documentation for the lifecycle.
type Client = core.Client

// Config wires a Client to its servers and application callbacks.
type Config = core.Config

// Handler receives friend requests, confirmations, and calls.
type Handler = core.Handler

// Call is an established incoming or outgoing call; both sides hold the
// same SessionKey.
type Call = core.Call

// Friend is an address book entry.
type Friend = core.Friend

// Persister stores serialized client state.
type Persister = core.Persister

// ServiceHandle is one service's running round loop, returned by
// Client.ConnectAddFriend / Client.ConnectDialing.
type ServiceHandle = core.ServiceHandle

// Server interfaces: implementations may be in-process (internal/sim) or
// network clients (cmd daemons). All methods take a leading context.
type (
	// PKG is the client's view of one private-key generator server.
	PKG = core.PKG
	// EntryServer is the client's view of the entry server.
	EntryServer = core.EntryServer
	// MailboxStore is the client's view of the mailbox CDN; FetchRange
	// lets a catching-up client cover a span of rounds in one request.
	MailboxStore = core.MailboxStore
	// RoundWatcher is the round-event surface (resumable by cursor) that
	// Run follows; Config.Entry must implement it.
	RoundWatcher = core.RoundWatcher
)

// NewClient creates a client with a fresh long-term signing key.
// Call Register (then ConfirmRegistration with the emailed tokens) before
// running rounds.
func NewClient(cfg Config) (*Client, error) {
	return core.NewClient(cfg)
}

// LoadClient restores a client from state produced by Client.MarshalState.
func LoadClient(cfg Config, state []byte) (*Client, error) {
	return core.LoadClient(cfg, state)
}
