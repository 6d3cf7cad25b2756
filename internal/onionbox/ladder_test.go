package onionbox

// Tests of the field's two paths — the assembly kernels fieldAsm selects
// (onionbox_amd64.s) and their Go twins — and of the peel's ladder and
// batched open, against math/big and crypto/ecdh. The peel has a third
// path, the lane ladder (lane.go), which runs as /lanes subtests; the
// field paths' subtests run with it off.

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	mathrand "math/rand"
	"sync"
	"testing"
)

// fieldPaths are the field paths this machine can take: "asm", the
// kernels, where the CPU has them, then "portable", the Go twins.
func fieldPaths() []struct {
	name string
	asm  bool
} {
	paths := []struct {
		name string
		asm  bool
	}{{"asm", true}, {"portable", false}}
	if !fieldAsmSupported {
		paths = paths[1:]
	}
	return paths
}

// forEachFieldPath runs f as a subtest once per field path, with the
// lane ladder off, and restores the switches afterwards. Each subtest
// builds the base point's table afresh, on its own path. fieldAsm,
// laneAsm and the table are package state: a test that calls this must
// not run in parallel.
func forEachFieldPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	savedField, savedLane := fieldAsm, laneAsm
	defer func() { fieldAsm, laneAsm = savedField, savedLane }()
	laneAsm = false
	for _, path := range fieldPaths() {
		fieldAsm = path.asm
		baseOnce, baseTab = sync.Once{}, nil
		t.Run(path.name, f)
	}
}

// onBothPaths runs f once per field path, with the lane ladder off, for
// a fuzz target's one input.
func onBothPaths(f func()) {
	savedField, savedLane := fieldAsm, laneAsm
	defer func() { fieldAsm, laneAsm = savedField, savedLane }()
	laneAsm = false
	for _, path := range fieldPaths() {
		fieldAsm = path.asm
		f()
	}
}

// feRaw is the element whose limbs spell v < 2^256, reduced or not.
func feRaw(v *big.Int) fe {
	var b [32]byte
	v.FillBytes(b[:])
	var f fe
	for i := range f.l {
		for j := 0; j < 8; j++ {
			f.l[i] |= uint64(b[31-8*i-j]) << (8 * j)
		}
	}
	return f
}

// rawEdges are unreduced limb patterns, the values the folds of 2^256 ≡ 38
// and the final reduction go wrong on.
func rawEdges() []*big.Int {
	two := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	sub := func(a *big.Int, k int64) *big.Int { return new(big.Int).Sub(a, big.NewInt(k)) }
	add := func(a *big.Int, k int64) *big.Int { return new(big.Int).Add(a, big.NewInt(k)) }
	return []*big.Int{
		sub(two(256), 1), sub(two(256), 19), sub(two(256), 38), sub(two(256), 39),
		two(255), sub(two(255), 1), curveP, add(curveP, 1), add(curveP, 18),
		new(big.Int).Lsh(curveP, 1), sub(new(big.Int).Lsh(curveP, 1), 1),
		sub(two(192), 1), two(192), sub(two(128), 1), two(64),
		// ⌈2^256/37⌉: times 2^256 − 1 its low half plus 38 times its high
		// half lands within 38 of 2^257, so the product's last fold carries.
		new(big.Int).Div(add(two(256), 36), big.NewInt(37)),
	}
}

// TestFieldKernelsMatchGoTwins holds feMul and feSquare to their Go twins
// limb for limb — not only mod p — on unreduced edges and random limbs,
// with the result aliasing each operand the way the formulas call them.
func TestFieldKernelsMatchGoTwins(t *testing.T) {
	if !fieldAsmSupported {
		t.Skip("this CPU lacks BMI2 or ADX: there are no kernels to compare")
	}
	saved := fieldAsm
	fieldAsm = true
	defer func() { fieldAsm = saved }()

	var elems []fe
	for _, v := range rawEdges() {
		elems = append(elems, feRaw(v))
	}
	rng := mathrand.New(mathrand.NewSource(4))
	for i := 0; i < 400; i++ {
		var f fe
		for j := range f.l {
			f.l[j] = rng.Uint64()
		}
		// Every fourth one with all-ones or all-zero limbs among random.
		if i%4 == 0 {
			f.l[rng.Intn(4)] = ^uint64(0)
			f.l[rng.Intn(4)] = 0
		}
		elems = append(elems, f)
	}

	// The edge above does reach the last carry, so the test can see it.
	ones, k37 := rawEdges()[0], rawEdges()[len(rawEdges())-1]
	prod := new(big.Int).Mul(ones, k37)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	r := new(big.Int).And(prod, mask)
	r.Add(r, new(big.Int).Mul(big.NewInt(38), new(big.Int).Rsh(prod, 256)))
	top := new(big.Int).Rsh(r, 256)
	r.And(r, mask).Add(r, top.Mul(top, big.NewInt(38)))
	if r.BitLen() <= 256 {
		t.Fatal("the ⌈2^256/37⌉ edge no longer reaches the final carry")
	}

	for i := range elems {
		for j := range elems {
			a, b := elems[i], elems[j]
			var got, want fe
			feMul(&got, &a, &b)
			feMulGeneric(&want, &a, &b)
			if got != want {
				t.Fatalf("feMul(%x, %x): kernel %x, Go twin %x", a.l, b.l, got.l, want.l)
			}
			x := a
			feMul(&x, &x, &b)
			if x != want {
				t.Fatalf("feMul aliasing its first operand: %x, want %x", x.l, want.l)
			}
			x = b
			feMul(&x, &a, &x)
			if x != want {
				t.Fatalf("feMul aliasing its second operand: %x, want %x", x.l, want.l)
			}
		}
		a := elems[i]
		var got, want fe
		feSquare(&got, &a)
		feSquareGeneric(&want, &a)
		if got != want {
			t.Fatalf("feSquare(%x): kernel %x, Go twin %x", a.l, got.l, want.l)
		}
		feSquare(&a, &a)
		if a != want {
			t.Fatalf("feSquare in place: %x, want %x", a.l, want.l)
		}
	}
}

// ladderX25519 is X25519(k, u) on the peel's ladder and the shared
// inversion, for one scalar.
func ladderX25519(k, u []byte) [32]byte {
	var seed, ub [32]byte
	copy(seed[:], k)
	copy(ub[:], u)
	var x1 fe
	x1.setBytes(&ub)
	num, den, prefix := make([]fe, 1), make([]fe, 1), make([]fe, 1)
	ladder(&num[0], &den[0], &seed, &x1)
	us := make([][32]byte, 1)
	montgomeryU(us, num, den, prefix)
	return us[0]
}

// checkLadderMatchesECDH is the differential property: the same bytes as
// crypto/ecdh, and all zero exactly where crypto/ecdh refuses the point.
func checkLadderMatchesECDH(t *testing.T, u, k []byte) {
	t.Helper()
	checkMatchesECDH(t, "ladder", u, k, ladderX25519(k, u))
}

// checkMatchesECDH holds got, X25519(k, u) as one of the peel's ladders
// computed it, to crypto/ecdh.
func checkMatchesECDH(t *testing.T, ladder string, u, k []byte, got [32]byte) {
	t.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(k)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := priv.ECDH(pub)
	if err != nil {
		if got != [32]byte{} {
			t.Fatalf("ecdh refuses u=%x k=%x (%v), the %s gives %x", u, k, err, ladder, got)
		}
		return
	}
	if !bytes.Equal(got[:], want) {
		t.Fatalf("u=%x k=%x: %s %x, ecdh %x", u, k, ladder, got, want)
	}
}

func TestLadderMatchesECDH(t *testing.T) {
	forEachFieldPath(t, func(t *testing.T) {
		for _, s := range combSeeds(t) {
			checkLadderMatchesECDH(t, s[0], s[1])
		}
		rng := mathrand.New(mathrand.NewSource(5))
		for i := 0; i < 300; i++ {
			u, k := make([]byte, 32), make([]byte, 32)
			rng.Read(u)
			rng.Read(k)
			checkLadderMatchesECDH(t, u, k)
		}
		// RFC 7748 §5.2's iteration: k and u start at 9, then u ← k and
		// k ← X25519(k, u), pinned after 1 and 1,000 steps.
		k, u := make([]byte, 32), make([]byte, 32)
		k[0], u[0] = 9, 9
		for i := 1; i <= 1000; i++ {
			out := ladderX25519(k, u)
			copy(u, k)
			copy(k, out[:])
			switch i {
			case 1:
				if got := hex.EncodeToString(k); got != "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079" {
					t.Fatalf("after one iteration: %s", got)
				}
			case 1000:
				if got := hex.EncodeToString(k); got != "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51" {
					t.Fatalf("after 1,000 iterations: %s", got)
				}
			}
		}
	})
	// The lane ladder: each pair in one lane, in turn, beside seven
	// random points, every lane held to crypto/ecdh.
	runLanes(t, func(t *testing.T) {
		rng := mathrand.New(mathrand.NewSource(5))
		pairs := combSeeds(t)
		for i := 0; i < 300; i++ {
			u, k := make([]byte, 32), make([]byte, 32)
			rng.Read(u)
			rng.Read(k)
			pairs = append(pairs, [2][]byte{u, k})
		}
		for i, s := range pairs {
			checkLanesMatchECDH(t, s[0], s[1], i%laneCount, rng, true)
		}
	})
}

// FuzzLadderMatchesECDH holds the ladder to crypto/ecdh on every u — the
// seeds include u ≥ p, the top bit set, and every published point of
// small order — and every scalar, on both field paths, and the lane
// ladder too (/lanes), with the input in each of its eight lanes beside
// seven random points.
func FuzzLadderMatchesECDH(f *testing.F) {
	for _, s := range combSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, u, k []byte) {
		if len(u) != 32 || len(k) != 32 {
			t.Skip()
		}
		onBothPaths(func() { checkLadderMatchesECDH(t, u, k) })
		runLanes(t, func(t *testing.T) {
			rng := mathrand.New(mathrand.NewSource(int64(binary.LittleEndian.Uint64(u) ^ binary.LittleEndian.Uint64(k))))
			for pos := 0; pos < laneCount; pos++ {
				checkLanesMatchECDH(t, u, k, pos, rng, false)
			}
		})
	})
}

// chunkBoxes is a chunk of n boxes sealed to pub, mixing good boxes (an
// empty message among them), tampered ones, short ones and ones whose
// ephemeral key is a point of low order, in an order drawn from rng.
func chunkBoxes(t *testing.T, rng *mathrand.Rand, pub *PublicKey, n int) [][]byte {
	lowOrder := []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"0100000000000000000000000000000000000000000000000000000000000000",
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"daffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
	}
	boxes := make([][]byte, n)
	for i := range boxes {
		msg := make([]byte, rng.Intn(3)*40)
		rng.Read(msg)
		box, err := Seal(rng, pub, msg)
		if err != nil {
			t.Fatal(err)
		}
		switch kind := rng.Intn(8); {
		case kind == 0:
			box[rng.Intn(len(box))] ^= 1 << rng.Intn(8) // key, body or tag
		case kind == 1:
			box = box[:rng.Intn(Overhead)]
		case kind == 2:
			copy(box, unhex(t, lowOrder[rng.Intn(len(lowOrder))]))
		}
		boxes[i] = box
	}
	return boxes
}

// TestOpenBatchMatchesStdlib: a batched open of a chunk gives, box by
// box, exactly what the standard library's route gives — the same boxes
// open, to the same messages — writes nothing before dst's length, and
// OpenBatch returns the opened messages in order, on chunks that end
// inside, at and past openChunk. On the lane ladder (/lanes) it runs
// every batch of 0 to 131 boxes: every lane remainder, on either side of
// laneBreakEven, in a first, second and third chunk.
func TestOpenBatchMatchesStdlib(t *testing.T) {
	pub, priv, err := GenerateKey(mathrand.New(mathrand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	forEachFieldPath(t, func(t *testing.T) {
		rng := mathrand.New(mathrand.NewSource(7))
		for _, n := range []int{0, 1, 5, openChunk - 1, openChunk, openChunk + 1, 2*openChunk + 3} {
			boxes := chunkBoxes(t, rng, pub, n)
			checkOpenBatchWant(t, priv, boxes, stdlibOpens(priv, boxes))
		}
	})
	runLanes(t, func(t *testing.T) {
		boxes := chunkBoxes(t, mathrand.New(mathrand.NewSource(7)), pub, 2*openChunk+3)
		want := stdlibOpens(priv, boxes)
		for n := 0; n <= len(boxes); n++ {
			checkOpenBatchWant(t, priv, boxes[:n], want[:n])
		}
	})
}

// stdlibOpens is stdlibOpen on each box: the message, or nil where the
// box does not open.
func stdlibOpens(priv *PrivateKey, boxes [][]byte) [][]byte {
	want := make([][]byte, len(boxes))
	for i, box := range boxes {
		if msg, ok := stdlibOpen(priv, box); ok {
			want[i] = append([]byte{}, msg...)
		}
	}
	return want
}

// checkOpenBatchWant holds openBatch and OpenBatch on boxes to want,
// what the standard library's route opens them to.
func checkOpenBatchWant(t *testing.T, priv *PrivateKey, boxes, want [][]byte) {
	t.Helper()
	n := len(boxes)
	head := []byte("head")
	ends := make([]int, n)
	buf := openBatch(bytes.Clone(head), priv, boxes, ends)
	if !bytes.Equal(buf[:len(head)], head) {
		t.Fatalf("n=%d: dst's prefix became %q", n, buf[:len(head)])
	}
	var opened [][]byte
	start := len(head)
	for i, msg := range want {
		ok := msg != nil
		if ok != (ends[i] >= 0) {
			t.Fatalf("n=%d: box %d opened %v in the batch, %v by the standard library", n, i, ends[i] >= 0, ok)
		}
		if !ok {
			continue
		}
		if !bytes.Equal(buf[start:ends[i]], msg) {
			t.Fatalf("n=%d: box %d opened to %x, the standard library's %x", n, i, buf[start:ends[i]], msg)
		}
		start = ends[i]
		opened = append(opened, msg)
	}
	if n > 8 && (len(opened) == 0 || len(opened) == n) {
		t.Fatalf("n=%d: %d boxes opened; the chunk should mix good and bad", n, len(opened))
	}
	got := OpenBatch(priv, boxes)
	if len(got) != len(opened) {
		t.Fatalf("n=%d: OpenBatch opened %d boxes, the standard library %d", n, len(got), len(opened))
	}
	for i := range got {
		if !bytes.Equal(got[i], opened[i]) || cap(got[i]) != len(got[i]) {
			t.Fatalf("n=%d: OpenBatch message %d is %x (cap %d), want %x", n, i, got[i], cap(got[i]), opened[i])
		}
	}
}

// BenchmarkX25519 times one variable-base X25519 the peel's way, the
// ladder and an inversion of its own, beside crypto/ecdh's. /lanes is one
// lane's share of the lane ladder and of the inversion its eight lanes
// share.
func BenchmarkX25519(b *testing.B) {
	k, u := bytes.Repeat([]byte{0x5a}, 32), make([]byte, 32)
	u[0] = 9
	forEachFieldPathB(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ladderX25519(k, u)
		}
	})
	runLanesB(b, func(b *testing.B) {
		var us [laneCount][32]byte
		for j := range us {
			copy(us[j][:], u)
		}
		for i := 0; i < b.N; i += laneCount {
			laneX25519(k, &us)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		priv, _ := ecdh.X25519().NewPrivateKey(k)
		pub, _ := ecdh.X25519().NewPublicKey(u)
		for i := 0; i < b.N; i++ {
			sink, _ = priv.ECDH(pub)
		}
	})
}

// BenchmarkOpenBatch reports one box's cost in a 64-box chunk, a mixer's
// Round.Chunk, of 128-byte boxes: one ladder a box, one inversion a chunk.
func BenchmarkOpenBatch(b *testing.B) {
	pub, priv, _ := GenerateKey(rand.Reader)
	boxes := make([][]byte, openChunk)
	for i := range boxes {
		boxes[i], _ = Seal(rand.Reader, pub, make([]byte, 128-Overhead))
	}
	open := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(boxes) {
			OpenBatch(priv, boxes)
		}
	}
	forEachFieldPathB(b, open)
	runLanesB(b, open)
}

// forEachFieldPathB is forEachFieldPath for benchmarks: /asm and
// /portable subbenchmarks.
func forEachFieldPathB(b *testing.B, f func(b *testing.B)) {
	savedField, savedLane := fieldAsm, laneAsm
	defer func() { fieldAsm, laneAsm = savedField, savedLane }()
	laneAsm = false
	for _, path := range fieldPaths() {
		fieldAsm = path.asm
		b.Run(path.name, f)
	}
}

func BenchmarkFieldMul(b *testing.B) {
	forEachFieldPathB(b, func(b *testing.B) {
		x, y := *bigFe(big.NewInt(12345)), *bigFe(big.NewInt(67890))
		for i := 0; i < b.N; i++ {
			x.mul(&x, &y)
		}
	})
}

func BenchmarkFieldSquare(b *testing.B) {
	forEachFieldPathB(b, func(b *testing.B) {
		x := *bigFe(big.NewInt(12345))
		for i := 0; i < b.N; i++ {
			x.square(&x)
		}
	})
}
