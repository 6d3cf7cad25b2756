package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStateSaveReplaces pins the state file's save: each save replaces
// the whole file by rename, owner-only, and leaves no temp file behind.
func TestStateSaveReplaces(t *testing.T) {
	dir := t.TempDir()
	p := statePersister{path: filepath.Join(dir, "alice.state")}
	for _, state := range [][]byte{bytes.Repeat([]byte("long state "), 100), []byte("short")} {
		if err := p.Save(state); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(p.path)
		if err != nil || !bytes.Equal(got, state) {
			t.Fatalf("state file holds %q, %v; want %q", got, err, state)
		}
	}
	fi, err := os.Stat(p.path)
	if err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("state file mode %v, %v; want 0600", fi.Mode().Perm(), err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d files in the state directory, want 1", len(entries))
	}
}
