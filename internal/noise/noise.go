// Package noise implements the differential-privacy noise machinery that
// Alpenhorn inherits from Vuvuzela (§6 of the paper).
//
// Each mixnet server adds a random number of fake requests to every mailbox,
// drawn from a (truncated, rounded) Laplace distribution. With the paper's
// parameters — mean µ=4000, scale b=406 for add-friend; µ=25000, b=2183 for
// dialing — each protocol achieves (ε = ln 2, δ = 1e-4)-differential privacy
// for 900 add-friend requests and 26,000 calls per user.
//
// Setting b = 0 yields exactly µ noise messages per mailbox, which is the
// deterministic mode the paper's evaluation uses to reduce variance (§8.1).
package noise

import (
	"encoding/binary"
	"io"
	"math"
)

// Laplace describes a noise distribution with mean Mu and scale B.
type Laplace struct {
	Mu float64
	B  float64
}

// Paper parameters (§8.1).
var (
	// AddFriendNoise is the per-server, per-mailbox noise distribution
	// for the add-friend protocol.
	AddFriendNoise = Laplace{Mu: 4000, B: 406}
	// DialingNoise is the per-server, per-mailbox noise distribution for
	// the dialing protocol.
	DialingNoise = Laplace{Mu: 25000, B: 2183}
)

// uniform01 draws a uniform float64 in (0, 1) from the reader.
func uniform01(r io.Reader) (float64, error) {
	var buf [8]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		// 53 random bits → uniform in [0, 1).
		u := float64(binary.BigEndian.Uint64(buf[:])>>11) / (1 << 53)
		if u > 0 && u < 1 {
			return u, nil
		}
	}
}

// Sample draws a noise count: max(0, round(Laplace(µ, b))). With B == 0 the
// result is deterministic: round(µ).
func (l Laplace) Sample(r io.Reader) (int, error) {
	if l.B == 0 {
		return int(math.Round(l.Mu)), nil
	}
	u, err := uniform01(r)
	if err != nil {
		return 0, err
	}
	// Inverse CDF: shift u to (−0.5, 0.5).
	u -= 0.5
	var x float64
	if u < 0 {
		x = l.Mu + l.B*math.Log(1+2*u)
	} else {
		x = l.Mu - l.B*math.Log(1-2*u)
	}
	n := int(math.Round(x))
	if n < 0 {
		n = 0
	}
	return n, nil
}

// Epsilon returns the per-observation differential-privacy ε that scale b
// provides for a sensitivity-s query: ε = s/b.
func Epsilon(sensitivity, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return sensitivity / b
}

// EventsForBudget returns how many protocol actions (calls or friend
// requests) a user can perform while staying within total privacy budget
// epsTotal, if each action costs epsPerEvent.
func EventsForBudget(epsTotal, epsPerEvent float64) int {
	if epsPerEvent <= 0 {
		return math.MaxInt32
	}
	return int(epsTotal / epsPerEvent)
}
