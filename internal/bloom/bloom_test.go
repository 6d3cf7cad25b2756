package bloom

import (
	"crypto/rand"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func randToken(t testing.TB) []byte {
	t.Helper()
	tok := make([]byte, 32)
	if _, err := rand.Read(tok); err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestNoFalseNegatives(t *testing.T) {
	// §5.2: "No false negatives means that Alpenhorn never misses an
	// incoming call."
	f := New(1000, DefaultBitsPerElement)
	var tokens [][]byte
	for i := 0; i < 1000; i++ {
		tok := randToken(t)
		tokens = append(tokens, tok)
		f.Add(tok)
	}
	for i, tok := range tokens {
		if !f.Test(tok) {
			t.Fatalf("token %d missing: false negative", i)
		}
	}
}

func TestFalsePositivesAreRare(t *testing.T) {
	f := New(5000, DefaultBitsPerElement)
	for i := 0; i < 5000; i++ {
		f.Add(randToken(t))
	}
	// At 48 bits/element the design false-positive rate is 1e-10; with
	// 100k probes we expect zero hits (probability of any ≈ 1e-5).
	falsePositives := 0
	probe := make([]byte, 32)
	for i := 0; i < 100000; i++ {
		binary.BigEndian.PutUint64(probe, uint64(i)|1<<40)
		if f.Test(probe) {
			falsePositives++
		}
	}
	if falsePositives > 0 {
		t.Fatalf("%d false positives in 100k probes at 48 bits/element", falsePositives)
	}
	if fpr := f.FalsePositiveRate(); fpr > 1e-9 {
		t.Fatalf("estimated FPR %.2e exceeds design target", fpr)
	}
}

// TestSmallFiltersKeepTheDesignRate probes filters of one to four tokens,
// the mailboxes of a round with few callers. Double hashing gave these a
// false-positive rate of 1e-3 (one token) to 2e-6 (four); at the design
// rate of 1e-10 none of the 300k probes per size hits.
func TestSmallFiltersKeepTheDesignRate(t *testing.T) {
	probe := make([]byte, 32)
	for _, n := range []int{1, 2, 4} {
		hits := 0
		for rep := 0; rep < 30; rep++ {
			elems := make([][]byte, n)
			for i := range elems {
				elems[i] = randToken(t)
			}
			f := NewFromElements(elems, DefaultBitsPerElement)
			for i := 0; i < 10000; i++ {
				binary.BigEndian.PutUint64(probe, uint64(i)|1<<40)
				if f.Test(probe) {
					hits++
				}
			}
		}
		if hits > 0 {
			t.Errorf("%d-token filters: %d false positives in 300k probes", n, hits)
		}
	}
}

func TestSizeMatchesPaper(t *testing.T) {
	// §8.2: 125,000 tokens at 48 bits each → ~0.75 MB filter.
	f := New(125000, DefaultBitsPerElement)
	size := f.SizeBytes()
	want := 125000 * 48 / 8 // 750,000 bytes
	if size != want {
		t.Fatalf("filter size %d, want %d", size, want)
	}
	// The paper's comparison: 48 bits/element vs 256-bit raw tokens is a
	// 256/48 ≈ 5.3x bandwidth saving.
	raw := 125000 * 32
	ratio := float64(raw) / float64(size)
	if ratio < 5.0 || ratio > 5.7 {
		t.Fatalf("saving ratio %.2f, want ~5.3 (filter=%d raw=%d)", ratio, size, raw)
	}
}

func TestOptimalHashes(t *testing.T) {
	if k := OptimalHashes(48); k != 33 {
		t.Fatalf("k for 48 bits/elem = %d, want 33", k)
	}
	if k := OptimalHashes(1); k != 1 {
		t.Fatalf("k for 1 bit/elem = %d, want 1", k)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(100, DefaultBitsPerElement)
	var tokens [][]byte
	for i := 0; i < 100; i++ {
		tok := randToken(t)
		tokens = append(tokens, tok)
		f.Add(tok)
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range tokens {
		if !g.Test(tok) {
			t.Fatal("round-tripped filter lost an element")
		}
	}
	if g.Entries() != f.Entries() {
		t.Fatal("entry count not preserved")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Unmarshal(make([]byte, 19)); err == nil {
		t.Fatal("short header accepted")
	}
	f := New(10, 48)
	enc := f.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated bit array accepted")
	}
	bad := make([]byte, 20)
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("zero parameters accepted")
	}
}

func TestEmptyFilter(t *testing.T) {
	f := New(0, DefaultBitsPerElement)
	if f.Test(randToken(t)) {
		t.Fatal("empty filter claims membership")
	}
	if f.FalsePositiveRate() != 0 {
		t.Fatal("empty filter has nonzero FPR estimate")
	}
}

func TestMembershipProperty(t *testing.T) {
	f := New(500, DefaultBitsPerElement)
	prop := func(elem []byte) bool {
		f.Add(elem)
		return f.Test(elem)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
