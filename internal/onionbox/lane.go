package onionbox

// The lane ladder: RFC 7748's ladder on eight points at once, for one
// scalar. openBatch ladders every box of a chunk with the same round key,
// so the boxes of a chunk can walk one ladder in lock-step, eight to a
// group: every lane takes the same swap at every step, and no lane has
// control flow of its own. The ladder runs in one assembly kernel,
// laneLadderKernel (onionbox_amd64.s), on AVX-512 IFMA, which laneAsm
// selects once from the CPU; elsewhere openBatch never calls it.

// laneCount points walk one lane ladder.
const laneCount = 8

// laneBreakEven is the fewest boxes openBatch ladders in lanes: a group
// costs the same however many of its lanes hold a box, so a remainder of
// fewer boxes than this takes the scalar ladder. On the 2-vCPU
// development box (three alternated runs, EXPERIMENTS.md) a group cost
// 73–126 µs and a scalar ladder 54–61 µs: one box alone is cheaper on
// the scalar ladder, and two already cost less in lanes (73–102 µs
// against 112–147).
const laneBreakEven = 2

// laneFe is eight elements of GF(2^255 − 19), one per lane, in radix 2^51:
// limb k of lane j is l[k][j], and lane j stands for Σ l[k][j]·2^(51k).
// One limb of all eight lanes is one 512-bit register. Between the
// kernel's operations every limb is below 2^52, the width IFMA multiplies.
type laneFe [5][laneCount]uint64

const mask51 = 1<<51 - 1

// set puts v into lane j as five 51-bit limbs. v must be below 2^255, as
// setBytes leaves it.
func (f *laneFe) set(j int, v *fe) {
	f[0][j] = v.l[0] & mask51
	f[1][j] = (v.l[0]>>51 | v.l[1]<<13) & mask51
	f[2][j] = (v.l[1]>>38 | v.l[2]<<26) & mask51
	f[3][j] = (v.l[2]>>25 | v.l[3]<<39) & mask51
	f[4][j] = v.l[3] >> 12
}

// get returns lane j as an fe. One carry pass, the top limb's carry
// folded in as 19 times itself first, leaves limbs 0 to 3 below 2^51 and
// limb 4 below 2^52, which fit fe's 256 bits; it holds for any limbs
// below 2^63.
func (f *laneFe) get(j int) fe {
	l0, l1, l2, l3, l4 := f[0][j], f[1][j], f[2][j], f[3][j], f[4][j]
	l0 += 19 * (l4 >> 51)
	l4 &= mask51
	l1 += l0 >> 51
	l0 &= mask51
	l2 += l1 >> 51
	l1 &= mask51
	l3 += l2 >> 51
	l2 &= mask51
	l4 += l3 >> 51
	l3 &= mask51
	return fe{[4]uint64{l0 | l1<<51, l1>>13 | l2<<38, l2>>26 | l3<<25, l3>>39 | l4<<12}}
}

// laneLadderState is the lane ladder's memory: its four points, the
// eight base points, the step's temporaries and the kernel's operation
// counts. All of it but u is a function of the scalar.
type laneLadderState struct {
	x2, z2, x3, z3, u laneFe
	tmp               [9]laneFe
	// muls and squares are the lane multiplications and squarings the
	// last kernel call did, which TestOperationCount reads.
	muls, squares uint64
}

var laneOne = laneFe{{1, 1, 1, 1, 1, 1, 1, 1}}

// laneFill is the public u an empty lane ladders, and the result is
// discarded: the base point's.
var laneFill = fe{[4]uint64{9}}

// laneLadder sets (st.x2 : st.z2), lane by lane, to the projective
// u-coordinate of k·P for the clamped scalar k of seed and the point P
// whose u-coordinate is that lane of st.u: ladder on eight points. Each
// of its 255 steps is the same instruction sequence whatever k and the
// points are; bit t of k is read at position t, and the swap mask it
// makes is the same in every lane. st.tmp, st.x3 and st.z3 hold what the
// scalar left; the caller zeroes st when it is done with it.
func laneLadder(st *laneLadderState, seed *[32]byte) {
	k := *seed
	k[0] &= 248
	k[31] = k[31]&127 | 64
	st.x2 = laneOne
	st.z2 = laneFe{}
	st.x3 = st.u
	st.z3 = laneOne
	laneLadderKernel(st, &k)
	countLanes(st.muls, st.squares)
	k = [32]byte{}
}

// openLanes ladders up to laneCount boxes with priv's scalar, one lane
// each, and sets num[j]/den[j] to box j's shared u as ladder would. A
// lane with no box, or a box shorter than Overhead, ladders laneFill; a
// short box gets 0/1, as openBatch gives it.
func openLanes(st *laneLadderState, seed *[32]byte, boxes [][]byte, num, den []fe) {
	var eph [32]byte
	for j := 0; j < laneCount; j++ {
		u := laneFill
		if j < len(boxes) && len(boxes[j]) >= Overhead {
			copy(eph[:], boxes[j])
			u.setBytes(&eph)
		}
		st.u.set(j, &u)
	}
	laneLadder(st, seed)
	for j, box := range boxes {
		if len(box) < Overhead {
			num[j], den[j] = fe{}, feOne
			continue
		}
		num[j], den[j] = st.x2.get(j), st.z2.get(j)
	}
}

// The lane comb: combTable.scalarMult on eight scalars at once, for one
// fixed point. sealInPlace walks every box of a chunk on the same two
// tables — the shared base point's and the Sealer's recipient's — so the
// boxes of a chunk can walk them in lock-step, eight to a group. Unlike
// the lane ladder's, the lanes' scalars differ: each lane looks up its
// own digit in every window, every entry loaded and broadcast for every
// group and merged into a lane under a mask, so that the addresses are
// the window's and the entry's, never a digit's. The walk runs in one
// kernel, laneCombKernel (onionbox_amd64.s), which laneAsm selects as it
// does the lane ladder.

// laneCombBreakEven is the fewest boxes sealInPlace walks in lanes: a
// group costs the same however many of its lanes hold a box, so a
// remainder of fewer boxes than this takes the scalar comb. On the
// 2-vCPU development box (three runs, EXPERIMENTS.md) a group's two walks
// cost 31–36 µs and one box's two scalar walks 28–36 µs: one box alone is
// no cheaper in lanes, and two already cost about half as much (32–38 µs
// against 56–69).
const laneCombBreakEven = 2

// laneCombTable is a combTable in radix 2^51: entry j of window i is
// (y+x, y−x, 2dxy) of (j+1)·256^i·P, five limbs each, every limb below
// 2^51. Every lane reads the same table.
type laneCombTable [32][8][3][5]uint64

// newLaneCombTable converts t, entry by entry.
func newLaneCombTable(t *combTable) *laneCombTable {
	lt := new(laneCombTable)
	for i := range t {
		for j := range t[i] {
			n := &t[i][j]
			for c, v := range [3]*fe{&n.yPlusX, &n.yMinusX, &n.t2d} {
				var b [32]byte
				var r fe
				var f laneFe
				v.bytes(&b)
				r.setBytes(&b)
				f.set(0, &r)
				for k := range f {
					lt[i][j][c][k] = f[k][0]
				}
			}
		}
	}
	return lt
}

// laneCombState is the lane comb's memory: the eight lanes' digits, digit
// major, the point they walk, the niels element a window's lookup gives,
// the temporaries of an addition or doubling, and the kernel's operation
// counts. All of it but the counts is a function of the scalars.
type laneCombState struct {
	digits     [64][laneCount]int8
	x, y, z, t laneFe
	n          [3]laneFe // y+x, y−x, 2dxy
	tmp        [8]laneFe
	// muls and squares are the lane multiplications and squarings the
	// last kernel call did, which TestOperationCount reads.
	muls, squares uint64
}

// laneComb sets st's point, lane by lane, to k·P for the scalar k whose
// recoding is that lane of st.digits and the point P of t: the lane
// comb. Every lane runs the same instruction sequence and reads the same
// addresses whatever its digits. The caller zeroes st when it is done
// with it.
func laneComb(st *laneCombState, t *laneCombTable) {
	st.x, st.y, st.z, st.t = laneFe{}, laneOne, laneOne, laneFe{}
	laneCombKernel(st, t)
	countLanes(st.muls, st.squares)
}

// sealLanes walks the ephemeral scalars of up to laneCount boxes, one
// lane each, on the base table and on the recipient's key table, and
// sets num[2j]/den[2j] and num[2j+1]/den[2j+1] to box j's ephemeral
// public key and shared secret as fractions (Z+Y)/(Z−Y), as the scalar
// comb does. A lane with no box walks digit 0 everywhere, and its result
// is discarded.
func sealLanes(st *laneCombState, base, key *laneCombTable, seeds []byte, boxes int, num, den []fe) {
	var digits [64]int8
	for j := 0; j < laneCount; j++ {
		digits = [64]int8{}
		if j < boxes {
			recode(&digits, seeds[32*j:])
		}
		for i, d := range digits {
			st.digits[i][j] = d
		}
	}
	digits = [64]int8{}
	var z, y fe
	for w, t := range [2]*laneCombTable{base, key} {
		laneComb(st, t)
		for j := 0; j < boxes; j++ {
			z, y = st.z.get(j), st.y.get(j)
			num[2*j+w].add(&z, &y)
			den[2*j+w].sub(&z, &y)
		}
	}
	z, y = fe{}, fe{}
}
