package bn254

import "math/big"

// The lane pairing: PairMarshalled on eight ciphertext elements at once,
// for one precomputed G2 point. A mailbox scan pairs every entry against
// the same identity key, so every entry replays the same line table and
// raises its Miller value to the same public exponent; only U differs.
// The field operations are therefore one fixed sequence for every entry,
// and eight entries can walk it in lock-step, one per 64-bit lane of the
// AVX-512 IFMA kernels in lane_amd64.s. No lane has control flow of its
// own: the one branch in the walk is over the public exponents and NAF
// digits. laneAsm selects the path once from the CPU; elsewhere
// PairMarshalledBatch pairs each entry on the scalar path.

// laneCount elements make one lane element.
const laneCount = 8

// laneFe is eight elements of Fp, one per lane, in Montgomery form with
// R = 2²⁶⁰ (not the scalar field's 2²⁵⁶) as five 52-bit limbs: limb k of
// lane j is l[k][j], and lane j stands for Σ l[k][j]·2^(52k)·2⁻²⁶⁰ mod P.
// Every kernel leaves its limbs below 2⁵² and its value below 2P; a lane
// is not reduced further until get.
type laneFe [5][laneCount]uint64

// lane2, lane6 and lane12 are the tower over laneFe, laid out as fe2,
// fe6 and fe12 are.
type (
	lane2  struct{ c0, c1 laneFe }
	lane6  struct{ c0, c1, c2 lane2 }
	lane12 struct{ c0, c1 lane6 }
)

const laneMask52 = 1<<52 - 1

// laneConsts are the kernels' constants, by index: 2⁵² − 1; −P⁻¹ mod 2⁵²;
// P's five 52-bit limbs; 2P's; and ⌊2³⁰⁵/P⌋, the quotient estimator of
// the kernels' small reduction. Derived here from the decimal P, not
// written down.
var laneConsts = laneDeriveConsts()

func laneDeriveConsts() (c [13]uint64) {
	limbs := func(x *big.Int) (l [5]uint64) {
		m := new(big.Int).SetUint64(laneMask52)
		t := new(big.Int).Set(x)
		for k := range l {
			l[k] = new(big.Int).And(t, m).Uint64()
			t.Rsh(t, 52)
		}
		if t.Sign() != 0 {
			panic("bn254: lane constant exceeds five limbs")
		}
		return
	}
	c[0] = laneMask52
	c[1] = feNP & laneMask52 // −P⁻¹ mod 2⁶⁴ reduced mod 2⁵²
	if c[1]*feP0&laneMask52 != laneMask52 {
		panic("bn254: lane −P⁻¹ mod 2⁵² is wrong")
	}
	p := limbs(P)
	p2 := limbs(new(big.Int).Lsh(P, 1))
	copy(c[2:7], p[:])
	copy(c[7:12], p2[:])
	mu := new(big.Int).Lsh(big.NewInt(1), 305)
	mu.Div(mu, P)
	if mu.BitLen() > 52 {
		panic("bn254: lane reduction estimator exceeds 52 bits")
	}
	c[12] = mu.Uint64()
	return
}

// laneToR = 2²⁶⁰ mod P and laneFromR = 2²⁵² mod P, as plain integers: a
// scalar Montgomery product by the one moves an element from R = 2²⁵⁶ to
// the lanes' R = 2²⁶⁰, by the other back.
var laneToR, laneFromR = laneDeriveR()

func laneDeriveR() (to, from fe) {
	for i, e := range [2]uint{260, 252} {
		v := new(big.Int).Lsh(big.NewInt(1), e)
		v.Mod(v, P)
		feRawFromBig([2]*fe{&to, &from}[i], v)
	}
	return
}

// laneLimbs converts v into the lanes' Montgomery form, as limbs.
func laneLimbs(v *fe) [5]uint64 {
	var t fe
	feMul(&t, v, &laneToR)
	return [5]uint64{
		t[0] & laneMask52,
		(t[0]>>52 | t[1]<<12) & laneMask52,
		(t[1]>>40 | t[2]<<24) & laneMask52,
		(t[2]>>28 | t[3]<<36) & laneMask52,
		t[3] >> 16,
	}
}

// set puts v into lane j.
func (f *laneFe) set(j int, v *fe) {
	for k, l := range laneLimbs(v) {
		f[k][j] = l
	}
}

// get returns lane j, fully reduced. The lane's value is below 2P <
// 2²⁵⁵, so its limbs repack into four 64-bit words, and feMul takes a
// first operand of any four words.
func (f *laneFe) get(j int) (v fe) {
	t := fe{
		f[0][j] | f[1][j]<<52,
		f[1][j]>>12 | f[2][j]<<40,
		f[2][j]>>24 | f[3][j]<<28,
		f[3][j]>>36 | f[4][j]<<16,
	}
	feMul(&v, &t, &laneFromR)
	return
}

// broadcast puts v into every lane.
func (f *laneFe) broadcast(v *fe) {
	for j := 0; j < laneCount; j++ {
		f.set(j, v)
	}
}

func (e *lane2) get(j int) fe2 { return fe2{e.c0.get(j), e.c1.get(j)} }

func (e *lane2) broadcast(v *fe2) {
	e.c0.broadcast(&v.c0)
	e.c1.broadcast(&v.c1)
}

// get sets v to lane j.
func (e *lane12) get(j int, v *fe12) {
	v.c0.c0, v.c0.c1, v.c0.c2 = e.c0.c0.get(j), e.c0.c1.get(j), e.c0.c2.get(j)
	v.c1.c0, v.c1.c1, v.c1.c2 = e.c1.c0.get(j), e.c1.c1.get(j), e.c1.c2.get(j)
}
