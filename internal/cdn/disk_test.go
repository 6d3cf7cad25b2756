package cdn

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"alpenhorn/internal/wire"
)

// testRound builds a deterministic multi-mailbox round.
func testRound(seed byte, boxes int) map[uint32][]byte {
	out := make(map[uint32][]byte, boxes)
	for i := 0; i < boxes; i++ {
		data := make([]byte, 16+i*7)
		for j := range data {
			data[j] = seed + byte(i) ^ byte(j)
		}
		out[uint32(i)] = data
	}
	out[uint32(boxes)] = []byte{} // empty mailboxes survive sealing too
	return out
}

// TestDiskSealAllocations: sealing a 10 kB round allocates well under
// 64 kB — the writer a segment streams through is sized to the segment,
// not a fixed 1 MiB per round.
func TestDiskSealAllocations(t *testing.T) {
	backend, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	mailboxes := make(map[uint32][]byte, 4)
	for i := uint32(0); i < 4; i++ {
		mailboxes[i] = bytes.Repeat([]byte{byte(i)}, 2500)
	}
	round := uint32(0)
	seal := func() {
		round++
		if err := backend.Seal(wire.AddFriend, round, mailboxes, RoundChecksum(mailboxes)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(10, seal)
	runtime.ReadMemStats(&after)
	perSeal := (after.TotalAlloc - before.TotalAlloc) / uint64(round)
	if perSeal >= 64<<10 {
		t.Fatalf("sealing a 10 kB round allocates %d B in %.0f allocations", perSeal, allocs)
	}
	t.Logf("sealing a 10 kB round allocates %d B in %.0f allocations", perSeal, allocs)
}

// BenchmarkSealWithHistory seals a round of two 2 kB mailboxes into a
// backend that already holds held rounds. The oldest round is deleted
// after each seal, off the clock, so every seal finds the same number
// held.
func BenchmarkSealWithHistory(b *testing.B) {
	mailboxes := map[uint32][]byte{0: bytes.Repeat([]byte{1}, 2048), 1: bytes.Repeat([]byte{2}, 2048)}
	sum := RoundChecksum(mailboxes)
	for _, held := range []uint32{0, 100} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			backend, err := NewDiskBackend(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer backend.Close()
			round := uint32(0)
			seal := func() {
				round++
				if err := backend.Seal(wire.Dialing, round, mailboxes, sum); err != nil {
					b.Fatal(err)
				}
			}
			for round < held {
				seal()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seal()
				b.StopTimer()
				if err := backend.Delete(wire.Dialing, round-held); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// TestDiskStoreCrashRestart publishes rounds to a disk store, abandons it
// without Close (the SIGKILL stand-in: segments are already fsync'd),
// reopens the directory, and requires every mailbox back byte-identical
// — including via FetchRange — with checksums preserved.
func TestDiskStoreCrashRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rounds := map[uint32]map[uint32][]byte{}
	for r := uint32(1); r <= 3; r++ {
		rounds[r] = testRound(byte(r), 5)
		if err := s.Publish(wire.Dialing, r, rounds[r]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Publish(wire.AddFriend, 7, testRound(9, 3)); err != nil {
		t.Fatal(err)
	}
	sums := make(map[uint32][32]byte)
	for r := range rounds {
		sums[r], _ = s.Checksum(wire.Dialing, r)
	}
	// No Close: the "crash". A leftover temp file from a hypothetical
	// mid-seal crash must also be cleaned up at reopen.
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"seg-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for r, want := range rounds {
		for id, box := range want {
			got, err := re.Fetch(wire.Dialing, r, id)
			if err != nil {
				t.Fatalf("round %d mailbox %d: %v", r, id, err)
			}
			if !bytes.Equal(got, box) {
				t.Fatalf("round %d mailbox %d differs after reopen", r, id)
			}
		}
		if sum, ok := re.Checksum(wire.Dialing, r); !ok || sum != sums[r] {
			t.Fatalf("round %d checksum changed across reopen", r)
		}
	}
	ranged, err := re.FetchRange(wire.Dialing, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 3; r++ {
		if !bytes.Equal(ranged[r], rounds[r][2]) {
			t.Fatalf("FetchRange round %d differs after reopen", r)
		}
	}
	if _, err := re.Fetch(wire.AddFriend, 7, 0); err != nil {
		t.Fatalf("other service lost across reopen: %v", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, tmpPrefix+"*")); len(entries) != 0 {
		t.Fatalf("temp files survived reopen: %v", entries)
	}
}

// TestDiskStoreRetentionOnReopen publishes more rounds than the reopened
// store's retention allows: reopen must evict the oldest — including
// their segment files — and keep the newest.
func TestDiskStoreRetentionOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 5; r++ {
		if err := s.Publish(wire.Dialing, r, testRound(byte(r), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDiskStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for r := uint32(1); r <= 3; r++ {
		if re.Published(wire.Dialing, r) {
			t.Fatalf("round %d survived retention", r)
		}
		name := segName(wire.Dialing, r, RoundChecksum(testRound(byte(r), 2)))
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("round %d segment file survived retention", r)
		}
	}
	for r := uint32(4); r <= 5; r++ {
		if !re.Published(wire.Dialing, r) {
			t.Fatalf("round %d evicted within retention", r)
		}
	}
}

// TestDiskBackendRejectsCorruption corrupts one round's segment on disk;
// reopen must reject that round cleanly (absent, listed in rejected) and
// leave the healthy round untouched.
func TestDiskBackendRejectsCorruption(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func(path string) error
	}{
		{"flip-data-byte", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0xff
			return os.WriteFile(path, data, 0o644)
		}},
		{"truncate", func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()/2)
		}},
		{"truncate-to-header", func(path string) error {
			return os.Truncate(path, segHeaderSize)
		}},
		{"bad-magic", func(path string) error {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt([]byte("NOTACDN!"), 0)
			return err
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenDiskStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			victim := testRound(1, 4)
			if err := s.Publish(wire.Dialing, 1, victim); err != nil {
				t.Fatal(err)
			}
			healthy := testRound(2, 4)
			if err := s.Publish(wire.Dialing, 2, healthy); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			name := segName(wire.Dialing, 1, RoundChecksum(victim))
			if err := tc.mangle(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}

			backend, err := NewDiskBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := backend.rejected; len(got) != 1 || got[0] != name {
				t.Fatalf("rejected = %v, want the corrupted segment", got)
			}
			re, err := NewStoreWithBackend(backend, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Published(wire.Dialing, 1) {
				t.Fatal("corrupted round served")
			}
			for id, box := range healthy {
				got, err := re.Fetch(wire.Dialing, 2, id)
				if err != nil || !bytes.Equal(got, box) {
					t.Fatalf("healthy round mailbox %d: %q, %v", id, got, err)
				}
			}
		})
	}
}

// TestDiskBackendRejectsForgedSegment: a segment that verifies on its
// own but holds another round 1 (an attacker or a botched restore), moved
// into place under the genuine segment's name, is refused at reopen: the
// name carries the genuine round's checksum, which the forgery's header
// contradicts.
func TestDiskBackendRejectsForgedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	genuine := testRound(1, 3)
	if err := s.Publish(wire.Dialing, 1, genuine); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	forgedDir := t.TempDir()
	fb, err := NewDiskBackend(forgedDir)
	if err != nil {
		t.Fatal(err)
	}
	forged := testRound(99, 3)
	sum := RoundChecksum(forged)
	if err := fb.Seal(wire.Dialing, 1, forged, sum); err != nil {
		t.Fatal(err)
	}
	fb.Close()
	name := segName(wire.Dialing, 1, RoundChecksum(genuine))
	if err := os.Rename(filepath.Join(forgedDir, segName(wire.Dialing, 1, sum)), filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}

	backend, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	if got := backend.rejected; len(got) != 1 || got[0] != name {
		t.Fatalf("rejected = %v, want the forged segment %s", got, name)
	}
	if rounds := backend.Rounds(); len(rounds) != 0 {
		t.Fatalf("forged round served: %v", rounds)
	}
}

// FuzzDiskBackendReopen corrupts arbitrary bytes (or truncates) a sealed
// segment, may move it under a name that is not its own, and reopens the
// directory: the backend must never panic, must either reject the segment
// or serve the round's original bytes exactly (mutations that touch only
// ignored regions — e.g. nothing — keep it valid), must reject a renamed
// segment whatever its bytes, and must always keep the untouched healthy
// round intact.
func FuzzDiskBackendReopen(f *testing.F) {
	f.Add(uint32(0), byte(0xff), false, byte(0))
	f.Add(uint32(8), byte(0x01), false, byte(0))
	f.Add(uint32(17), byte(0x80), false, byte(0))
	f.Add(uint32(60), byte(0xaa), true, byte(0))
	f.Add(uint32(1<<20), byte(0x55), true, byte(0))
	for rename := byte(1); rename <= 6; rename++ {
		f.Add(uint32(1), byte(0), false, rename)
	}

	victim := testRound(3, 4)
	healthy := testRound(4, 4)
	victimSum := fmt.Sprintf("%x", RoundChecksum(victim))
	// renames[i] is the name rename mode i+1 moves the victim to.
	renames := []func(pos uint32, mask byte) string{
		// another round's name, the victim's checksum
		func(pos uint32, _ byte) string {
			if pos == 1 {
				pos = 2
			}
			return segName(wire.Dialing, pos, RoundChecksum(victim))
		},
		// another round's checksum
		func(uint32, byte) string { return segName(wire.Dialing, 1, RoundChecksum(healthy)) },
		// a short checksum
		func(pos uint32, _ byte) string {
			return fmt.Sprintf("%s-%010d-%s.seg", wire.Dialing, 1, victimSum[:pos%64])
		},
		// a checksum with a character that is not lowercase hex
		func(pos uint32, mask byte) string {
			i := pos % 64
			return fmt.Sprintf("%s-%010d-%s%c%s.seg", wire.Dialing, 1, victimSum[:i], 'g'+mask%20, victimSum[i+1:])
		},
		// an unknown service
		func(_ uint32, mask byte) string {
			return fmt.Sprintf("%s-%010d-%s.seg", wire.Service(3+mask%253), 1, victimSum)
		},
		// a round past uint32 that wraps to the victim's
		func(uint32, byte) string { return fmt.Sprintf("%s-%d-%s.seg", wire.Dialing, 1<<32+1, victimSum) },
	}

	f.Fuzz(func(t *testing.T, pos uint32, mask byte, truncate bool, rename byte) {
		dir := t.TempDir()
		s, err := OpenDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(wire.Dialing, 1, victim); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(wire.AddFriend, 2, healthy); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		name := segName(wire.Dialing, 1, RoundChecksum(victim))
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		if truncate {
			n := int(pos) % (len(data) + 1)
			changed = n < len(data)
			data = data[:n]
		} else if len(data) > 0 {
			i := int(pos) % len(data)
			changed = mask != 0
			data[i] ^= mask
		}
		mode := int(rename) % (len(renames) + 1)
		if mode > 0 {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			name = renames[mode-1](pos, mask)
			path = filepath.Join(dir, name)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		backend, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		if mode > 0 {
			if got := backend.rejected; len(got) != 1 || got[0] != name {
				t.Fatalf("rejected = %v, want the renamed segment %s", got, name)
			}
			if rounds := backend.Rounds(); len(rounds) != 1 {
				t.Fatalf("held %d rounds, want only the healthy one", len(rounds))
			}
		}
		re, err := NewStoreWithBackend(backend, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()

		if re.Published(wire.Dialing, 1) {
			if changed || mode > 0 {
				t.Fatal("mutated segment accepted")
			}
			for id, box := range victim {
				got, err := re.Fetch(wire.Dialing, 1, id)
				if err != nil || !bytes.Equal(got, box) {
					t.Fatalf("mailbox %d: %q, %v", id, got, err)
				}
			}
		} else if !changed && mode == 0 {
			t.Fatal("untouched segment rejected")
		}
		for id, box := range healthy {
			got, err := re.Fetch(wire.AddFriend, 2, id)
			if err != nil || !bytes.Equal(got, box) {
				t.Fatalf("healthy mailbox %d: %q, %v", id, got, err)
			}
		}
	})
}

// TestDiskStoreRoundAlreadyPublished pins the duplicate-publish error on
// the disk path (same contract as the memory store).
func TestDiskStoreRoundAlreadyPublished(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Publish(wire.Dialing, 1, testRound(1, 2)); err != nil {
		t.Fatal(err)
	}
	err = s.Publish(wire.Dialing, 1, testRound(2, 2))
	want := fmt.Sprintf("cdn: round %d (%s) already published", 1, wire.Dialing)
	if err == nil || err.Error() != want {
		t.Fatalf("duplicate publish: %v", err)
	}
}
