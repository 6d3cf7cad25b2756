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

// TestDiskStoreCrashRestart publishes rounds to a disk store, abandons it
// without Close (the SIGKILL stand-in: segments and manifest are already
// fsync'd), reopens the directory, and requires every mailbox back
// byte-identical — including via FetchRange — with checksums preserved.
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
		if _, err := os.Stat(filepath.Join(dir, segName(wire.Dialing, r))); !os.IsNotExist(err) {
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
// reopen must reject that round cleanly (absent, listed in Rejected) and
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
			if err := tc.mangle(filepath.Join(dir, segName(wire.Dialing, 1))); err != nil {
				t.Fatal(err)
			}

			backend, err := NewDiskBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := backend.Rejected(); len(got) != 1 || got[0] != segName(wire.Dialing, 1) {
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

// TestDiskBackendManifestDisagreement: a segment that verifies internally
// but contradicts the fsync'd manifest is treated as corrupt.
func TestDiskBackendManifestDisagreement(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(wire.Dialing, 1, testRound(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Replace the segment with a DIFFERENT valid round 1 (an attacker or
	// a botched restore): self-checksum passes, manifest does not.
	if err := os.Remove(filepath.Join(dir, segName(wire.Dialing, 1))); err != nil {
		t.Fatal(err)
	}
	fb, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	forgedBoxes := testRound(99, 3)
	if err := fb.Seal(wire.Dialing, 1, forgedBoxes, RoundChecksum(forgedBoxes)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(fb.Dir(), segName(wire.Dialing, 1)), filepath.Join(dir, segName(wire.Dialing, 1))); err != nil {
		t.Fatal(err)
	}

	backend, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := backend.Rejected(); len(got) != 1 {
		t.Fatalf("rejected = %v, want the forged segment", got)
	}
	backend.Close()
}

// FuzzDiskBackendReopen corrupts arbitrary bytes (or truncates) a sealed
// segment and reopens the directory: the backend must never panic, must
// either reject the segment or serve the round's original bytes exactly
// (mutations that touch only ignored regions — e.g. nothing — keep it
// valid), and must always keep the untouched healthy round intact.
func FuzzDiskBackendReopen(f *testing.F) {
	f.Add(uint32(0), byte(0xff), false)
	f.Add(uint32(8), byte(0x01), false)
	f.Add(uint32(17), byte(0x80), false)
	f.Add(uint32(60), byte(0xaa), true)
	f.Add(uint32(1<<20), byte(0x55), true)

	f.Fuzz(func(t *testing.T, pos uint32, mask byte, truncate bool) {
		dir := t.TempDir()
		s, err := OpenDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		victim := testRound(3, 4)
		if err := s.Publish(wire.Dialing, 1, victim); err != nil {
			t.Fatal(err)
		}
		healthy := testRound(4, 4)
		if err := s.Publish(wire.AddFriend, 2, healthy); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, segName(wire.Dialing, 1))
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
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		backend, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		re, err := NewStoreWithBackend(backend, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()

		if re.Published(wire.Dialing, 1) {
			if changed {
				t.Fatal("mutated segment accepted")
			}
			for id, box := range victim {
				got, err := re.Fetch(wire.Dialing, 1, id)
				if err != nil || !bytes.Equal(got, box) {
					t.Fatalf("mailbox %d: %q, %v", id, got, err)
				}
			}
		} else if !changed {
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
