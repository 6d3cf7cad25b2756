package core

import (
	"sync/atomic"
	"time"

	"alpenhorn/internal/bls"
)

// CountBLSVerifications makes the client count every BLS verification it
// runs (its own round's attestations and incoming requests' multisignatures)
// into n.
func (c *Client) CountBLSVerifications(n *atomic.Int32) {
	verify := c.verifyBLS
	c.verifyBLS = func(pub *bls.PublicKey, msg []byte, sig *bls.Signature) bool {
		n.Add(1)
		return verify(pub, msg, sig)
	}
}

// SetScanRetryBudget shortens Run's §5.1 give-up budget.
func (c *Client) SetScanRetryBudget(d time.Duration) { c.scanRetryBudget = d }
