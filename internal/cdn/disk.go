package cdn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"alpenhorn/internal/wire"
)

// DiskBackend persists each sealed round as one immutable segment file.
//
// Segment layout (all integers little-endian):
//
//	magic     [8]byte  "ALPNCDN1"
//	service   uint8
//	round     uint32
//	count     uint32                      number of mailboxes
//	roundSum  [32]byte                    RoundChecksum of the contents
//	index     count × (id uint32, length uint32)
//	data      mailbox bytes, concatenated in index order
//	fileSum   [32]byte                    SHA-256 of everything above
//
// A segment is written to a temp file, fsync'd, then renamed into place
// (and the directory fsync'd), so a crash mid-seal leaves at most a temp
// file that reopen discards — never a half-visible round. The trailing
// file checksum makes each segment self-verifying: reopen re-hashes every
// segment and rejects corrupt or truncated ones cleanly, leaving the
// affected round absent (for replication backfill to repair) and healthy
// rounds untouched.
//
// The MANIFEST file records the sealed rounds and their content checksums,
// rewritten whole (temp+fsync+rename) after every seal and delete. Reopen
// treats it as a cross-check, not the source of truth: segments are
// self-checksummed, so a segment sealed just before a crash that never
// made it into the manifest is still recovered, while a manifest entry
// whose checksum disagrees with the segment's verified contents marks the
// round corrupt.
type DiskBackend struct {
	dir  string
	segs map[roundKey]*segment

	// rejected lists segment files that failed verification at reopen,
	// for tests and operator logs.
	rejected []string
}

// maxSealBuffer caps the writer Seal streams a segment through. A segment
// smaller than the cap is buffered whole, so it reaches the file in one
// write; a larger one in writes of this size.
const maxSealBuffer = 1 << 20

const (
	segMagic      = "ALPNCDN1"
	segHeaderSize = 8 + 1 + 4 + 4 + 32
	segEntrySize  = 8
	manifestName  = "MANIFEST"
	tmpPrefix     = ".tmp-"
)

type span struct {
	off    int64 // absolute offset of the mailbox bytes in the file
	length uint32
}

type segment struct {
	f     *os.File
	path  string
	index map[uint32]span
	sum   [32]byte // content checksum (RoundChecksum)
}

type manifestEntry struct {
	Service  uint8  `json:"service"`
	Round    uint32 `json:"round"`
	File     string `json:"file"`
	Checksum string `json:"checksum"`
}

type manifest struct {
	Rounds []manifestEntry `json:"rounds"`
}

// NewDiskBackend opens (or creates) a segment directory. Every segment
// found is fully verified against its trailing checksum; corrupt or
// truncated segments are rejected (see Rejected) without affecting other
// rounds. Leftover temp files from a crashed seal are removed.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cdn: creating %s: %w", dir, err)
	}
	d := &DiskBackend{dir: dir, segs: make(map[roundKey]*segment)}

	// The manifest is a cross-check: entries keyed by file name. A
	// missing or unparsable manifest falls back to trusting the
	// self-checksummed segments alone.
	manifestSums := make(map[string]string)
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(data, &m) == nil {
			for _, e := range m.Rounds {
				manifestSums[e.File] = e.Checksum
			}
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cdn: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		path := filepath.Join(dir, name)
		seg, service, round, err := openSegment(path)
		if err != nil {
			d.rejected = append(d.rejected, name)
			continue
		}
		if want, ok := manifestSums[name]; ok && want != hex.EncodeToString(seg.sum[:]) {
			// Segment verifies internally but disagrees with the
			// fsync'd manifest: treat as corrupt.
			seg.f.Close()
			d.rejected = append(d.rejected, name)
			continue
		}
		k := roundKey{service, round}
		if old, ok := d.segs[k]; ok {
			old.f.Close()
		}
		d.segs[k] = seg
	}
	return d, nil
}

// Rejected returns the names of segment files that failed verification
// when the backend was opened.
func (d *DiskBackend) Rejected() []string { return append([]string(nil), d.rejected...) }

// Dir returns the backend's segment directory.
func (d *DiskBackend) Dir() string { return d.dir }

func segName(service wire.Service, round uint32) string {
	return fmt.Sprintf("%s-%010d.seg", service, round)
}

func (d *DiskBackend) Seal(service wire.Service, round uint32, mailboxes map[uint32][]byte, checksum [32]byte) error {
	ids := make([]uint32, 0, len(mailboxes))
	for id := range mailboxes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	tmp, err := os.CreateTemp(d.dir, tmpPrefix+"seg-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())

	size := segHeaderSize + segEntrySize*len(ids)
	for _, mb := range mailboxes {
		size += len(mb)
	}
	h := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(tmp, h), min(size, maxSealBuffer))

	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	hdr[8] = uint8(service)
	binary.LittleEndian.PutUint32(hdr[9:13], round)
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(len(ids)))
	copy(hdr[17:49], checksum[:])
	w.Write(hdr[:])

	index := make(map[uint32]span, len(ids))
	off := int64(segHeaderSize + segEntrySize*len(ids))
	var ent [segEntrySize]byte
	for _, id := range ids {
		n := uint32(len(mailboxes[id]))
		binary.LittleEndian.PutUint32(ent[:4], id)
		binary.LittleEndian.PutUint32(ent[4:], n)
		w.Write(ent[:])
		index[id] = span{off: off, length: n}
		off += int64(n)
	}
	for _, id := range ids {
		w.Write(mailboxes[id])
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(h.Sum(nil)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}

	path := filepath.Join(d.dir, segName(service, round))
	if err := os.Rename(tmp.Name(), path); err != nil {
		tmp.Close()
		return err
	}
	if err := syncDir(d.dir); err != nil {
		tmp.Close()
		return err
	}
	// Reopen read-only at the final path; the temp handle is still
	// positioned for writing and about to be closed.
	tmp.Close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	d.segs[roundKey{service, round}] = &segment{f: f, path: path, index: index, sum: checksum}
	return d.writeManifest()
}

func (d *DiskBackend) Mailbox(service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	seg, ok := d.segs[roundKey{service, round}]
	if !ok {
		return nil, errors.New("disk backend: round not sealed")
	}
	sp, ok := seg.index[mailbox]
	if !ok {
		return nil, nil
	}
	out := make([]byte, sp.length)
	if _, err := seg.f.ReadAt(out, sp.off); err != nil {
		return nil, fmt.Errorf("disk backend: reading %s: %w", filepath.Base(seg.path), err)
	}
	return out, nil
}

func (d *DiskBackend) Sizes(service wire.Service, round uint32) (map[uint32]int, error) {
	seg, ok := d.segs[roundKey{service, round}]
	if !ok {
		return nil, errors.New("disk backend: round not sealed")
	}
	sizes := make(map[uint32]int, len(seg.index))
	for id, sp := range seg.index {
		sizes[id] = int(sp.length)
	}
	return sizes, nil
}

func (d *DiskBackend) Delete(service wire.Service, round uint32) error {
	k := roundKey{service, round}
	seg, ok := d.segs[k]
	if !ok {
		return nil
	}
	delete(d.segs, k)
	seg.f.Close()
	if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return d.writeManifest()
}

func (d *DiskBackend) Rounds() []RoundInfo {
	out := make([]RoundInfo, 0, len(d.segs))
	for k, seg := range d.segs {
		out = append(out, RoundInfo{Service: k.service, Round: k.round, Checksum: seg.sum})
	}
	return out
}

func (d *DiskBackend) Close() error {
	var first error
	for _, seg := range d.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.segs = make(map[roundKey]*segment)
	return first
}

// writeManifest rewrites the manifest atomically (temp+fsync+rename).
func (d *DiskBackend) writeManifest() error {
	var m manifest
	for k, seg := range d.segs {
		m.Rounds = append(m.Rounds, manifestEntry{
			Service:  uint8(k.service),
			Round:    k.round,
			File:     filepath.Base(seg.path),
			Checksum: hex.EncodeToString(seg.sum[:]),
		})
	}
	sort.Slice(m.Rounds, func(i, j int) bool {
		if m.Rounds[i].Service != m.Rounds[j].Service {
			return m.Rounds[i].Service < m.Rounds[j].Service
		}
		return m.Rounds[i].Round < m.Rounds[j].Round
	})
	data, err := json.MarshalIndent(&m, "", "\t")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, tmpPrefix+"manifest-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	tmp.Close()
	if err := os.Rename(tmp.Name(), filepath.Join(d.dir, manifestName)); err != nil {
		return err
	}
	return syncDir(d.dir)
}

// openSegment verifies a segment's trailing file checksum by re-hashing
// the whole file, then parses its header and index. Any mismatch,
// truncation, or inconsistency rejects the segment.
func openSegment(path string) (*segment, wire.Service, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()

	fi, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	size := fi.Size()
	if size < segHeaderSize+32 {
		return nil, 0, 0, errors.New("cdn: segment truncated")
	}

	// Verify the trailing checksum over everything before it.
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(f, 0, size-32)); err != nil {
		return nil, 0, 0, err
	}
	var want [32]byte
	if _, err := f.ReadAt(want[:], size-32); err != nil {
		return nil, 0, 0, err
	}
	var got [32]byte
	h.Sum(got[:0])
	if got != want {
		return nil, 0, 0, errors.New("cdn: segment checksum mismatch")
	}

	var hdr [segHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, 0, 0, err
	}
	if string(hdr[:8]) != segMagic {
		return nil, 0, 0, errors.New("cdn: bad segment magic")
	}
	service := wire.Service(hdr[8])
	round := binary.LittleEndian.Uint32(hdr[9:13])
	count := binary.LittleEndian.Uint32(hdr[13:17])
	seg := &segment{f: f, path: path}
	copy(seg.sum[:], hdr[17:49])

	indexBytes := int64(count) * segEntrySize
	dataStart := int64(segHeaderSize) + indexBytes
	if dataStart+32 > size {
		return nil, 0, 0, errors.New("cdn: segment index truncated")
	}
	raw := make([]byte, indexBytes)
	if _, err := f.ReadAt(raw, segHeaderSize); err != nil {
		return nil, 0, 0, err
	}
	seg.index = make(map[uint32]span, count)
	off := dataStart
	for i := int64(0); i < int64(count); i++ {
		id := binary.LittleEndian.Uint32(raw[i*segEntrySize:])
		n := binary.LittleEndian.Uint32(raw[i*segEntrySize+4:])
		if _, dup := seg.index[id]; dup {
			return nil, 0, 0, errors.New("cdn: duplicate mailbox in segment")
		}
		seg.index[id] = span{off: off, length: n}
		off += int64(n)
	}
	if off+32 != size {
		return nil, 0, 0, errors.New("cdn: segment data length mismatch")
	}
	ok = true
	return seg, service, round, nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	// Some platforms cannot fsync directories; the rename itself is
	// still atomic there, so ignore that failure.
	if err := f.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
