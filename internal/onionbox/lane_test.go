package onionbox

// Tests of the lane ladder and the lane comb (lane.go, laneLadderKernel,
// laneCombKernel): the radix-2^51 conversions, lane isolation, and the
// helpers the /lanes subtests of ladder_test.go and comb_test.go run on.

import (
	"bytes"
	"crypto/ecdh"
	"fmt"
	"math/big"
	mathrand "math/rand"
	"testing"
)

// skipWithoutLanes skips a /lanes subtest, and says why, where the lane
// ladder cannot run.
func skipWithoutLanes(tb testing.TB) {
	tb.Helper()
	if !laneAsmSupported {
		tb.Skip("the lane ladder cannot run here: the CPU lacks AVX-512 F, IFMA or VL, or the OS does not save ZMM state")
	}
}

// withLanes runs f with the peel on the lane ladder and the field on the
// kernels where the CPU has them, then restores both switches. They are
// package state: a test that calls this must not run in parallel.
func withLanes(f func()) {
	savedField, savedLane := fieldAsm, laneAsm
	defer func() { fieldAsm, laneAsm = savedField, savedLane }()
	fieldAsm, laneAsm = fieldAsmSupported, true
	f()
}

// runLanes runs f as the /lanes subtest, withLanes.
func runLanes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("lanes", func(t *testing.T) {
		skipWithoutLanes(t)
		withLanes(func() { f(t) })
	})
}

// runLanesB is runLanes for benchmarks.
func runLanesB(b *testing.B, f func(b *testing.B)) {
	b.Run("lanes", func(b *testing.B) {
		skipWithoutLanes(b)
		withLanes(func() { f(b) })
	})
}

// laneX25519 is X25519(k, u) for eight u at once, the peel's lane way:
// the lane ladder and one inversion for all eight.
func laneX25519(k []byte, us *[laneCount][32]byte) [laneCount][32]byte {
	var seed [32]byte
	copy(seed[:], k)
	var st laneLadderState
	for j := range us {
		var u fe
		u.setBytes(&us[j])
		st.u.set(j, &u)
	}
	laneLadder(&st, &seed)
	var num, den, prefix [laneCount]fe
	for j := range num {
		num[j], den[j] = st.x2.get(j), st.z2.get(j)
	}
	var out [laneCount][32]byte
	montgomeryU(out[:], num[:], den[:], prefix[:])
	return out
}

// checkLanesMatchECDH ladders u in lane pos beside seven random points
// and holds lane pos — every lane if all — to crypto/ecdh.
func checkLanesMatchECDH(t *testing.T, u, k []byte, pos int, rng *mathrand.Rand, all bool) {
	t.Helper()
	var us [laneCount][32]byte
	for j := range us {
		rng.Read(us[j][:])
	}
	copy(us[pos][:], u)
	got := laneX25519(k, &us)
	for j := range us {
		if all || j == pos {
			checkMatchesECDH(t, fmt.Sprintf("lane ladder (lane %d)", j), us[j][:], k, got[j])
		}
	}
}

// TestLaneFeConversion: set and get carry a value below 2^255 into five
// limbs and back unchanged, at limb edges and at random; and get turns
// any limbs below 2^63 — the kernel leaves them below 2^52 — into an fe
// that stands for Σ l_k·2^(51k) mod p.
func TestLaneFeConversion(t *testing.T) {
	two := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	var vals []*big.Int
	for _, e := range []uint{0, 51, 64, 102, 128, 153, 192, 204, 254} {
		vals = append(vals, two(e), new(big.Int).Sub(two(e+1), big.NewInt(1)))
	}
	vals = append(vals, new(big.Int).Sub(curveP, big.NewInt(1)), curveP, new(big.Int).Add(curveP, big.NewInt(18)))
	rng := mathrand.New(mathrand.NewSource(11))
	for i := 0; i < 200; i++ {
		vals = append(vals, new(big.Int).Rand(rng, two(255)))
	}
	for i, v := range vals {
		var f laneFe
		x := feRaw(v)
		f.set(i%laneCount, &x)
		for k := range f {
			if f[k][i%laneCount] > mask51 {
				t.Fatalf("set(%x): limb %d is %#x, above 2^51", v, k, f[k][i%laneCount])
			}
		}
		if got := f.get(i % laneCount); got != x {
			t.Fatalf("set then get of %x: %x, want %x", v, got.l, x.l)
		}
	}

	edges := []uint64{0, 1, 19, mask51 - 1, mask51, mask51 + 1, 1<<52 - 1, 1 << 52, 1<<63 - 1}
	limbs := func() (l [5]uint64) {
		for k := range l {
			l[k] = edges[rng.Intn(len(edges))]
		}
		return l
	}
	cases := [][5]uint64{}
	for _, e := range edges {
		cases = append(cases, [5]uint64{e, e, e, e, e})
	}
	for i := 0; i < 2000; i++ {
		cases = append(cases, limbs())
	}
	for i, l := range cases {
		var f laneFe
		want := new(big.Int)
		for k := 4; k >= 0; k-- {
			f[k][i%laneCount] = l[k]
			want.Lsh(want, 51).Add(want, new(big.Int).SetUint64(l[k]))
		}
		got := f.get(i % laneCount)
		var b [32]byte
		got.bytes(&b)
		want.Mod(want, curveP)
		var wb [32]byte
		want.FillBytes(wb[:])
		for j := 0; j < 16; j++ {
			wb[j], wb[31-j] = wb[31-j], wb[j]
		}
		if b != wb {
			t.Fatalf("get(%#x): %x, want %x", l, b, wb)
		}
	}
}

// TestLaneIsolation: what one lane holds — a point of low order, a u at
// or above p, a u with the top bit set, a box too short to open, or no
// box at all — changes no other lane's result, and that lane gets what
// the scalar ladder gives it.
func TestLaneIsolation(t *testing.T) {
	runLanes(t, func(t *testing.T) {
		pub, priv, err := GenerateKey(mathrand.New(mathrand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		rng := mathrand.New(mathrand.NewSource(13))
		good := make([][]byte, laneCount)
		for j := range good {
			if good[j], err = Seal(rng, pub, []byte("lane")); err != nil {
				t.Fatal(err)
			}
		}
		bad := map[string][]byte{"short": good[0][:Overhead-1]}
		for i, s := range []string{
			"0000000000000000000000000000000000000000000000000000000000000000",
			"0100000000000000000000000000000000000000000000000000000000000000",
			"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
			"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // p − 1
			"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // p
			"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // p + 1
			"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // 2^255 − 1
			"daffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", // top bit set
		} {
			box := bytes.Clone(good[1])
			copy(box, unhex(t, s))
			bad[fmt.Sprintf("u %d (%.8s…)", i, s)] = box
		}
		var st laneLadderState
		var want [laneCount]fe
		var wantDen [laneCount]fe
		openLanes(&st, &priv.seed, good, want[:], wantDen[:])
		for pos := 0; pos < laneCount; pos++ {
			for name, box := range bad {
				boxes := append([][]byte{}, good...)
				boxes[pos] = box
				var num, den [laneCount]fe
				openLanes(&st, &priv.seed, boxes, num[:], den[:])
				for j := range boxes {
					if j == pos {
						continue
					}
					if num[j] != want[j] || den[j] != wantDen[j] {
						t.Fatalf("%s in lane %d changed lane %d", name, pos, j)
					}
				}
				var got [1][32]byte
				montgomeryU(got[:], num[pos:pos+1], den[pos:pos+1], make([]fe, 1))
				if len(box) < Overhead {
					if got[0] != [32]byte{} {
						t.Fatalf("a short box in lane %d gives %x, want zero", pos, got[0])
					}
					continue
				}
				if w := ladderX25519(priv.seed[:], box[:32]); got[0] != w {
					t.Fatalf("%s in lane %d: %x, the scalar ladder %x", name, pos, got[0], w)
				}
			}
		}
		// A group of fewer boxes than lanes: the empty lanes are filled
		// and discarded.
		for n := 1; n < laneCount; n++ {
			var num, den [laneCount]fe
			openLanes(&st, &priv.seed, good[:n], num[:n], den[:n])
			for j := 0; j < n; j++ {
				if num[j] != want[j] || den[j] != wantDen[j] {
					t.Fatalf("a group of %d boxes changed lane %d", n, j)
				}
			}
			for j := n; j < laneCount; j++ {
				if num[j] != (fe{}) || den[j] != (fe{}) {
					t.Fatalf("a group of %d boxes wrote lane %d", n, j)
				}
			}
		}
	})
}

// setLaneDigits writes the recoding of seeds[j] into lane j of st.
func setLaneDigits(st *laneCombState, seeds *[laneCount][32]byte) {
	for j := range seeds {
		var digits [64]int8
		recode(&digits, seeds[j][:])
		for i, d := range digits {
			st.digits[i][j] = d
		}
	}
}

// laneCombX25519 is X25519(k, u) for eight scalars at once, a Sealer's
// lane way: the lane comb on the lane copy of u's table and one inversion
// for all eight.
func laneCombX25519(ks *[laneCount][32]byte, lt *laneCombTable) (out [laneCount][32]byte) {
	var st laneCombState
	setLaneDigits(&st, ks)
	laneComb(&st, lt)
	var num, den, prefix [laneCount]fe
	for j := range num {
		z, y := st.z.get(j), st.y.get(j)
		num[j].add(&z, &y)
		den[j].sub(&z, &y)
	}
	montgomeryU(out[:], num[:], den[:], prefix[:])
	return out
}

// checkLaneCombMatchesECDH walks k in each lane in turn, beside seven of
// eight random scalars, on u's table, and holds that lane — every lane if
// all — to crypto/ecdh. A u that gets no table is skipped, as
// checkCombMatchesECDH skips it.
func checkLaneCombMatchesECDH(t *testing.T, u, k []byte, rng *mathrand.Rand, all bool) {
	t.Helper()
	x, y, ok := edwardsFromU(u)
	if !ok {
		return
	}
	var tab combTable
	tab.fill(x, y)
	lt := newLaneCombTable(&tab)
	var random [laneCount][32]byte
	var want [laneCount][]byte // crypto/ecdh's X25519 of each random scalar; nil where it refuses
	pub, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		t.Fatal(err)
	}
	for j := range random {
		rng.Read(random[j][:])
		priv, err := ecdh.X25519().NewPrivateKey(random[j][:])
		if err != nil {
			t.Fatal(err)
		}
		want[j], _ = priv.ECDH(pub)
	}
	for pos := 0; pos < laneCount; pos++ {
		ks := random
		copy(ks[pos][:], k)
		got := laneCombX25519(&ks, lt)
		checkMatchesECDH(t, fmt.Sprintf("lane comb (lane %d)", pos), u, k, got[pos])
		for j := range ks {
			if !all || j == pos {
				continue
			}
			if (want[j] == nil && got[j] != [32]byte{}) || (want[j] != nil && !bytes.Equal(got[j][:], want[j])) {
				t.Fatalf("u=%x k=%x: lane comb (lane %d, beside lane %d) %x, ecdh %x", u, ks[j], j, pos, got[j], want[j])
			}
		}
	}
}

// TestCombLaneIsolation: a scalar in one lane — zero, all ones, a single
// bit, one whose recoding is ±8 in nearly every window, so that every
// lookup takes the last entry, or a random one — gets, coordinate for
// coordinate, the
// scalar comb's point in that lane, and leaves the other seven lanes'
// limbs as they were, on the base table and on a key's.
func TestCombLaneIsolation(t *testing.T) {
	runLanes(t, func(t *testing.T) {
		eights := append([]byte{0x78}, bytes.Repeat([]byte{0x77}, 31)...)
		var digits [64]int8
		recode(&digits, eights)
		n8 := 0
		for _, d := range digits {
			if d == 8 || d == -8 {
				n8++
			}
		}
		if n8 < 60 {
			t.Fatalf("the ±8 scalar recodes to %d digits of ±8; it should hit nearly every window", n8)
		}
		oneBit := make([]byte, 32)
		oneBit[20] = 0x04
		rng := mathrand.New(mathrand.NewSource(14))
		random := make([]byte, 32)
		rng.Read(random)
		special := map[string][]byte{
			"zero":       make([]byte, 32),
			"all-ones":   bytes.Repeat([]byte{0xff}, 32),
			"single-bit": oneBit,
			"±8":         eights,
			"random":     random,
		}

		pub, _, err := GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		key := NewSealer(pub, sealerBreakEven)
		tables := []struct {
			name string
			tab  *combTable
			lt   *laneCombTable
		}{{"base", baseTable(), baseLaneTable()}, {"key", key.table, key.lanes}}
		var others [laneCount][32]byte
		for j := range others {
			rng.Read(others[j][:])
		}
		for _, tt := range tables {
			var st laneCombState
			setLaneDigits(&st, &others)
			laneComb(&st, tt.lt)
			want := st
			for sname, k := range special {
				for pos := 0; pos < laneCount; pos++ {
					ks := others
					copy(ks[pos][:], k)
					setLaneDigits(&st, &ks)
					laneComb(&st, tt.lt)
					coords := [4][2]*laneFe{{&st.x, &want.x}, {&st.y, &want.y}, {&st.z, &want.z}, {&st.t, &want.t}}
					for j := 0; j < laneCount; j++ {
						for _, c := range coords {
							for l := range c[0] {
								if j != pos && c[0][l][j] != c[1][l][j] {
									t.Fatalf("%s table: %s scalar in lane %d changed lane %d", tt.name, sname, pos, j)
								}
							}
						}
					}
					var d [64]int8
					var p point
					recode(&d, k)
					tt.tab.scalarMult(&p, &d)
					for i, c := range [4]*fe{&p.x, &p.y, &p.z, &p.t} {
						var got, want [32]byte
						g := coords[i][0].get(pos)
						g.bytes(&got)
						c.bytes(&want)
						if got != want {
							t.Fatalf("%s table: %s scalar in lane %d: coordinate %d is %x, the scalar comb's %x", tt.name, sname, pos, i, got, want)
						}
					}
				}
			}
		}
	})
}
