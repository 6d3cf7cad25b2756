// Package model is the analytic cost model used to regenerate the paper's
// evaluation figures at scales (1M-10M users) that exceed a single test
// machine.
//
// The model implements the sizing rules stated in §6 and §8 of the paper:
//
//   - Each mixnet server adds an average of µ noise requests to every
//     mailbox (µ=4000 for add-friend, µ=25000 for dialing).
//   - The number of mailboxes K is chosen so that each mailbox holds a
//     roughly equal amount of noise and real requests.
//   - Add-friend mailboxes hold fixed-size encrypted friend requests;
//     dialing mailboxes are Bloom filters at 48 bits per token.
//
// Message sizes come from the REAL implementation (wire package constants),
// not from the paper, so the model reflects this codebase; EXPERIMENTS.md
// tabulates ours vs the paper's. The latency model runs on per-item costs
// (CostCalibration); this package's tests check the paper's figures
// against it on PaperCalibration. Nothing outside tests uses the model,
// so the whole package is test code.
package model

import (
	"math"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/wire"
)

// Params describes a deployment for the analytic model.
type Params struct {
	// Users is the number of online users.
	Users float64
	// ActiveFraction is the fraction of users making a real request per
	// round (the paper evaluates 5%).
	ActiveFraction float64
	// Servers is the number of mixnet servers (= PKGs in the paper's
	// setup).
	Servers float64
	// AddFriendMu and DialingMu are per-server per-mailbox mean noise.
	AddFriendMu float64
	DialingMu   float64
}

// PaperParams returns the paper's evaluation configuration (§8.1) for a
// given user count and server count.
func PaperParams(users, servers float64) Params {
	return Params{
		Users:          users,
		ActiveFraction: 0.05,
		Servers:        servers,
		AddFriendMu:    4000,
		DialingMu:      25000,
	}
}

// RealRequests returns the number of real (non-cover) requests per round.
func (p Params) RealRequests() float64 {
	return p.Users * p.ActiveFraction
}

// noisePerMailbox returns the total expected noise in one mailbox for a
// protocol (µ summed over all servers).
func (p Params) noisePerMailbox(mu float64) float64 {
	return mu * p.Servers
}

// NumMailboxes returns K for one protocol following the paper's balance
// rule: real requests per mailbox ≈ noise per mailbox (§6), with K ≥ 1.
func (p Params) NumMailboxes(mu float64) float64 {
	k := math.Round(p.RealRequests() / p.noisePerMailbox(mu))
	if k < 1 {
		k = 1
	}
	return k
}

// AddFriendMailbox describes one add-friend mailbox.
type AddFriendMailbox struct {
	NumMailboxes  float64
	RealRequests  float64 // per mailbox
	NoiseRequests float64 // per mailbox
	Bytes         float64 // mailbox size a client downloads
}

// AddFriendMailboxModel computes the expected add-friend mailbox for the
// deployment.
func (p Params) AddFriendMailboxModel() AddFriendMailbox {
	k := p.NumMailboxes(p.AddFriendMu)
	real := p.RealRequests() / k
	noisy := p.noisePerMailbox(p.AddFriendMu)
	return AddFriendMailbox{
		NumMailboxes:  k,
		RealRequests:  real,
		NoiseRequests: noisy,
		Bytes:         (real + noisy) * float64(wire.EncryptedFriendRequestSize),
	}
}

// DialingMailbox describes one dialing mailbox (a Bloom filter).
type DialingMailbox struct {
	NumMailboxes float64
	RealTokens   float64 // per mailbox
	NoiseTokens  float64 // per mailbox
	Bytes        float64 // Bloom filter size a client downloads
}

// DialingMailboxModel computes the expected dialing mailbox.
func (p Params) DialingMailboxModel() DialingMailbox {
	k := p.NumMailboxes(p.DialingMu)
	real := p.RealRequests() / k
	noisy := p.noisePerMailbox(p.DialingMu)
	tokens := real + noisy
	return DialingMailbox{
		NumMailboxes: k,
		RealTokens:   real,
		NoiseTokens:  noisy,
		Bytes:        tokens * float64(bloom.DefaultBitsPerElement) / 8,
	}
}

// ClientUploadBytes returns the client's per-round upload: one fixed-size
// onion.
func (p Params) ClientUploadBytes(service wire.Service) float64 {
	return float64(wire.OnionSize(service, int(p.Servers)))
}

// AddFriendBandwidth returns the client bandwidth in bytes/sec for the
// add-friend protocol at a given round duration (Figure 6: download
// dominates; upload is one onion per round).
func (p Params) AddFriendBandwidth(roundDuration float64) float64 {
	mb := p.AddFriendMailboxModel()
	return (mb.Bytes + p.ClientUploadBytes(wire.AddFriend)) / roundDuration
}

// DialingBandwidth returns the client bandwidth in bytes/sec for the
// dialing protocol at a given round duration (Figure 7).
func (p Params) DialingBandwidth(roundDuration float64) float64 {
	mb := p.DialingMailboxModel()
	return (mb.Bytes + p.ClientUploadBytes(wire.Dialing)) / roundDuration
}

// CostCalibration holds measured per-item costs from the real
// implementation, used to extrapolate round latencies (Figures 8-10).
// Fill it from measured per-item costs (see EXPERIMENTS.md, "Calibration",
// for which benchmark times each one).
type CostCalibration struct {
	// MixSecondsPerMessage is the per-message cost of one mix server's
	// pass over the batch (X25519 open + shuffle share).
	MixSecondsPerMessage float64
	// NoiseSecondsPerMessage is the per-noise-message generation cost.
	NoiseSecondsPerMessage float64
	// IBEDecryptSeconds is one trial decryption during a mailbox scan,
	// in the scan configuration clients run: the identity key's ate line
	// table is built once per mailbox and every entry goes through
	// ibe.DecryptAppend — a G1 decode, one replay of the table, the
	// decomposed final exponentiation and an AES-GCM tag check. On the
	// Montgomery-limb backend it is ~0.35 ms on a 2-CPU Xeon (about 2,800
	// per second per core; ~135 ms on big.Int, which once made this term
	// dominate the whole Figure 8 "ours" curve).
	IBEDecryptSeconds float64
	// TokenScanSeconds is one keywheel token derivation + Bloom probe.
	TokenScanSeconds float64
	// InterServerRTT is the per-hop server-to-server latency.
	InterServerRTT float64
	// DownloadBytesPerSecond is the client's download throughput.
	DownloadBytesPerSecond float64
	// ScanCores is the client's core count for mailbox scans (the paper
	// uses 4).
	ScanCores float64
}

// PaperCalibration returns per-item costs back-derived from the paper's
// own reported numbers (800 IBE decryptions/sec/core, 1M hashes/sec, 10
// Gbps links, 152 s rounds at 10M users on 3 servers). Using these shows
// that the MODEL reproduces the paper's curves; using measured costs from
// this codebase shows what our substrate achieves.
func PaperCalibration() CostCalibration {
	return CostCalibration{
		MixSecondsPerMessage:   3.0e-6,
		NoiseSecondsPerMessage: 6.0e-6,
		IBEDecryptSeconds:      1.0 / 800,
		TokenScanSeconds:       1.0e-6,
		InterServerRTT:         0.080,
		DownloadBytesPerSecond: 50e6,
		ScanCores:              4,
	}
}

// AddFriendLatency models the end-to-end latency of an AddFriend request
// (Figure 8): batch mixing through every server, noise generation, mailbox
// download, and the client's trial-decryption scan.
func (p Params) AddFriendLatency(c CostCalibration) float64 {
	mb := p.AddFriendMailboxModel()
	batch := p.Users // every online user submits (cover or real)
	totalNoise := mb.NoiseRequests * mb.NumMailboxes

	mixTime := p.Servers * (batch*c.MixSecondsPerMessage + totalNoise/p.Servers*c.NoiseSecondsPerMessage)
	transfer := p.Servers * c.InterServerRTT
	download := mb.Bytes / c.DownloadBytesPerSecond
	scan := (mb.RealRequests + mb.NoiseRequests) * c.IBEDecryptSeconds / c.ScanCores
	return mixTime + transfer + download + scan
}

// DialingLatency models the end-to-end latency of a Call request
// (Figure 9).
func (p Params) DialingLatency(c CostCalibration, friends, intents float64) float64 {
	mb := p.DialingMailboxModel()
	batch := p.Users
	totalNoise := mb.NoiseTokens * mb.NumMailboxes

	mixTime := p.Servers * (batch*c.MixSecondsPerMessage + totalNoise/p.Servers*c.NoiseSecondsPerMessage)
	transfer := p.Servers * c.InterServerRTT
	download := mb.Bytes / c.DownloadBytesPerSecond
	scan := friends * intents * c.TokenScanSeconds
	return mixTime + transfer + download + scan
}
