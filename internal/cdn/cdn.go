// Package cdn implements the content-distribution tier that serves
// Alpenhorn mailboxes to clients (§7: "our prototype relies on a content
// distribution network, such as Akamai").
//
// Semantically a CDN is a read-only, immutable, versioned blob store: the
// last mixnet position publishes each round's mailboxes once, and any
// number of clients fetch them. Mailbox contents are public — every client
// fetches a mailbox whether or not anything in it is theirs — so this tier
// scales and hardens with ordinary storage-systems machinery without
// touching the privacy analysis.
//
// A Store splits into two layers:
//
//   - The Store itself owns round bookkeeping: the published-round index,
//     immutability (a round cannot be republished), per-service retention,
//     canonical round checksums (see RoundChecksum), and the fetch
//     accounting the benchmark harness reads.
//
//   - A Backend persists sealed rounds. MemoryBackend keeps everything in
//     a map (the original semantics, still the default). DiskBackend
//     writes one checksummed segment file per round, crash-safe via
//     temp+fsync+rename, with an fsync'd manifest — rounds survive a
//     process kill byte-identically, and a corrupt segment is rejected
//     cleanly at reopen so replication backfill can repair it. A seal
//     streams through a writer sized to its segment, capped at 1 MiB, so
//     a small round pays for a small buffer.
//
// Publication has two paths, both in internal/rpc: the store is exposed
// as a cdn.publish surface (RegisterCDN) where every shard of the last
// mixer group streams its own mailbox-ID slice of a round, and
// cdn.replicate fans sealed rounds from the ingest node out to replica
// nodes (see rpc.CDNDaemon).
package cdn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"alpenhorn/internal/wire"
)

type roundKey struct {
	service wire.Service
	round   uint32
}

// RoundInfo identifies one sealed round held by a backend, with the
// canonical content checksum it was sealed under.
type RoundInfo struct {
	Service  wire.Service
	Round    uint32
	Checksum [32]byte
}

// Backend persists sealed rounds for a Store. A backend is driven entirely
// under the owning Store's lock and needs no internal locking of its own.
// Mailbox and Sizes are only called for rounds a previous Seal (or reopen)
// reported present.
type Backend interface {
	// Seal persists a round. Ownership of the map and every slice in it
	// transfers to the backend. Seal is called at most once per round.
	Seal(service wire.Service, round uint32, mailboxes map[uint32][]byte, checksum [32]byte) error

	// Mailbox returns one mailbox's contents, or (nil, nil) when the round
	// holds no such mailbox. The returned bytes are owned by the caller.
	Mailbox(service wire.Service, round uint32, mailbox uint32) ([]byte, error)

	// Sizes returns the byte size of every mailbox in a round, keyed by
	// mailbox ID.
	Sizes(service wire.Service, round uint32) (map[uint32]int, error)

	// Delete drops a round (retention eviction).
	Delete(service wire.Service, round uint32) error

	// Rounds enumerates the rounds the backend already holds, used to seed
	// a Store's index when reopening a durable backend.
	Rounds() []RoundInfo

	// Close releases backend resources (file handles).
	Close() error
}

// RoundChecksum is the canonical content checksum of a round: SHA-256 over
// the mailbox count followed by each (id, length, bytes) triple in
// ascending mailbox-ID order. Replication (cdn.replicate, cdn.roundinfo)
// compares these checksums to decide whether two nodes hold the same
// bytes, and DiskBackend stores the checksum in each segment header.
func RoundChecksum(mailboxes map[uint32][]byte) [32]byte {
	ids := make([]uint32, 0, len(mailboxes))
	for id := range mailboxes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(ids)))
	h.Write(buf[:])
	for _, id := range ids {
		data := mailboxes[id]
		binary.LittleEndian.PutUint32(buf[:4], id)
		binary.LittleEndian.PutUint32(buf[4:], uint32(len(data)))
		h.Write(buf[:])
		h.Write(data)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// Store is a mailbox CDN node's store: a published-round index over a
// pluggable Backend. The zero value is not usable; call NewStore or
// NewStoreWithBackend.
type Store struct {
	mu      sync.RWMutex
	backend Backend
	sums    map[roundKey][32]byte

	// retention limits how many rounds per service are kept; older
	// rounds are evicted. Mailbox contents are public, so retention is
	// an availability knob, not a privacy one (§5.1: clients can fetch
	// old mailboxes "for a relatively long time").
	retention int
	order     map[wire.Service][]uint32

	bytesServed atomic.Uint64
	fetches     atomic.Uint64
}

// NewStore creates a memory-backed store retaining the given number of
// rounds per service (0 means unlimited).
func NewStore(retention int) *Store {
	s, _ := NewStoreWithBackend(NewMemoryBackend(), retention)
	return s
}

// NewStoreWithBackend creates a store over an existing backend. Rounds the
// backend already holds (a reopened DiskBackend) seed the index in
// ascending round order per service; if they exceed retention, the oldest
// are evicted immediately.
func NewStoreWithBackend(backend Backend, retention int) (*Store, error) {
	s := &Store{
		backend:   backend,
		sums:      make(map[roundKey][32]byte),
		retention: retention,
		order:     make(map[wire.Service][]uint32),
	}
	recovered := backend.Rounds()
	sort.Slice(recovered, func(i, j int) bool {
		if recovered[i].Service != recovered[j].Service {
			return recovered[i].Service < recovered[j].Service
		}
		return recovered[i].Round < recovered[j].Round
	})
	for _, ri := range recovered {
		s.sums[roundKey{ri.Service, ri.Round}] = ri.Checksum
		s.order[ri.Service] = append(s.order[ri.Service], ri.Round)
	}
	for service := range s.order {
		if err := s.evictLocked(service); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OpenDiskStore opens (or creates) a disk-backed store rooted at dir.
// Corrupt segments found at reopen are rejected cleanly — the affected
// round is simply absent, healthy rounds are unaffected — so a replica can
// backfill it from a peer.
func OpenDiskStore(dir string, retention int) (*Store, error) {
	backend, err := NewDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	s, err := NewStoreWithBackend(backend, retention)
	if err != nil {
		backend.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the underlying backend's resources. Fetching from a
// closed disk-backed store fails; reopen the directory instead.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backend.Close()
}

// Publish stores all mailboxes for a round. It fails if the round was
// already published: rounds are immutable. The store copies every mailbox;
// use PublishOwned when the caller is handing over freshly built buffers.
func (s *Store) Publish(service wire.Service, round uint32, mailboxes map[uint32][]byte) error {
	copied := make(map[uint32][]byte, len(mailboxes))
	for id, data := range mailboxes {
		b := make([]byte, len(data))
		copy(b, data)
		copied[id] = b
	}
	return s.PublishOwned(service, round, copied)
}

// PublishOwned is Publish without the defensive copy: the caller transfers
// ownership of the map and every byte slice in it and must not touch them
// afterward. The last mixnet position's mailbox builder allocates fresh
// buffers each round, so publishers hand them over directly rather than
// copying what at paper scale is gigabytes per round.
func (s *Store) PublishOwned(service wire.Service, round uint32, mailboxes map[uint32][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := roundKey{service, round}
	if _, ok := s.sums[k]; ok {
		return fmt.Errorf("cdn: round %d (%s) already published", round, service)
	}
	sum := RoundChecksum(mailboxes)
	if err := s.backend.Seal(service, round, mailboxes, sum); err != nil {
		return fmt.Errorf("cdn: sealing round %d (%s): %w", round, service, err)
	}
	s.sums[k] = sum
	s.order[service] = append(s.order[service], round)
	return s.evictLocked(service)
}

// evictLocked enforces retention for one service. Called with mu held.
func (s *Store) evictLocked(service wire.Service) error {
	if s.retention <= 0 {
		return nil
	}
	for len(s.order[service]) > s.retention {
		old := s.order[service][0]
		s.order[service] = s.order[service][1:]
		delete(s.sums, roundKey{service, old})
		if err := s.backend.Delete(service, old); err != nil {
			return fmt.Errorf("cdn: evicting round %d (%s): %w", old, service, err)
		}
	}
	return nil
}

// Fetch returns one mailbox's contents. A missing round and a missing
// mailbox are distinct errors: an empty mailbox in a published round
// returns empty bytes, not an error.
func (s *Store) Fetch(service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	s.mu.RLock()
	_, ok := s.sums[roundKey{service, round}]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("cdn: round %d (%s) not published", round, service)
	}
	data, err := s.backend.Mailbox(service, round, mailbox)
	s.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("cdn: round %d (%s): %w", round, service, err)
	}
	if data == nil {
		data = []byte{}
	}
	s.bytesServed.Add(uint64(len(data)))
	s.fetches.Add(1)
	return data, nil
}

// MaxFetchRange bounds how many rounds one FetchRange call may cover, so
// a single request cannot ask the store to assemble an unbounded reply.
// It is far above any real client backlog (core.DefaultMaxDialBacklog).
const MaxFetchRange = 1024

// FetchRange returns one mailbox's contents for every PUBLISHED round in
// [fromRound, toRound], keyed by round. Rounds in the range that are not
// (or no longer) published are simply absent — a client draining a scan
// backlog treats them like a failed Fetch for that round. The whole range
// costs one request instead of one per round, which is what lets a client
// behind by N rounds catch up without N round trips.
func (s *Store) FetchRange(service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	if fromRound > toRound {
		return nil, fmt.Errorf("cdn: bad round range [%d, %d]", fromRound, toRound)
	}
	if toRound-fromRound >= MaxFetchRange {
		return nil, fmt.Errorf("cdn: round range [%d, %d] exceeds %d rounds", fromRound, toRound, MaxFetchRange)
	}
	out := make(map[uint32][]byte)
	s.mu.RLock()
	for r := fromRound; r <= toRound; r++ {
		if _, ok := s.sums[roundKey{service, r}]; !ok {
			continue
		}
		data, err := s.backend.Mailbox(service, r, mailbox)
		if err != nil {
			s.mu.RUnlock()
			return nil, fmt.Errorf("cdn: round %d (%s): %w", r, service, err)
		}
		if data == nil {
			data = []byte{}
		}
		out[r] = data
	}
	s.mu.RUnlock()

	var served uint64
	for _, b := range out {
		served += uint64(len(b))
	}
	s.bytesServed.Add(served)
	s.fetches.Add(1)
	return out, nil
}

// Published reports whether a round's mailboxes are available.
func (s *Store) Published(service wire.Service, round uint32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.sums[roundKey{service, round}]
	return ok
}

// Checksum returns the canonical content checksum of a published round
// (see RoundChecksum) and whether the round is published at all.
func (s *Store) Checksum(service wire.Service, round uint32) ([32]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sum, ok := s.sums[roundKey{service, round}]
	return sum, ok
}

// Rounds returns the published rounds for one service with their
// checksums, in ascending round order. The cdn.roundinfo probe serves
// this so a restarted replica can discover what it missed.
func (s *Store) Rounds(service wire.Service) []RoundInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RoundInfo, 0, len(s.order[service]))
	for _, r := range s.order[service] {
		out = append(out, RoundInfo{Service: service, Round: r, Checksum: s.sums[roundKey{service, r}]})
	}
	return out
}

// RoundSnapshot returns a private copy of every mailbox in a published
// round. Replication reads rounds through this rather than Fetch so that
// replica fan-out does not pollute the client fetch accounting.
func (s *Store) RoundSnapshot(service wire.Service, round uint32) (map[uint32][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.sums[roundKey{service, round}]; !ok {
		return nil, fmt.Errorf("cdn: round %d (%s) not published", round, service)
	}
	sizes, err := s.backend.Sizes(service, round)
	if err != nil {
		return nil, fmt.Errorf("cdn: round %d (%s): %w", round, service, err)
	}
	out := make(map[uint32][]byte, len(sizes))
	for id := range sizes {
		data, err := s.backend.Mailbox(service, round, id)
		if err != nil {
			return nil, fmt.Errorf("cdn: round %d (%s): %w", round, service, err)
		}
		out[id] = data
	}
	return out, nil
}

// RoundSnapshotMailbox returns a private copy of one mailbox of a
// published round, without the client fetch accounting — the single-box
// flavor of RoundSnapshot, used by the paged cdn.pull surface.
func (s *Store) RoundSnapshotMailbox(service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.sums[roundKey{service, round}]; !ok {
		return nil, fmt.Errorf("cdn: round %d (%s) not published", round, service)
	}
	data, err := s.backend.Mailbox(service, round, mailbox)
	if err != nil {
		return nil, fmt.Errorf("cdn: round %d (%s): %w", round, service, err)
	}
	if data == nil {
		data = []byte{}
	}
	return data, nil
}

// MailboxSizes returns the size in bytes of every mailbox in a round,
// keyed by mailbox ID. Used by the benchmark harness (Figures 6, 7, 10).
func (s *Store) MailboxSizes(service wire.Service, round uint32) (map[uint32]int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.sums[roundKey{service, round}]; !ok {
		return nil, fmt.Errorf("cdn: round %d (%s) not published", round, service)
	}
	sizes, err := s.backend.Sizes(service, round)
	if err != nil {
		return nil, fmt.Errorf("cdn: round %d (%s): %w", round, service, err)
	}
	return sizes, nil
}

// BytesServed returns the cumulative bytes served to clients.
func (s *Store) BytesServed() uint64 { return s.bytesServed.Load() }

// Fetches returns the cumulative number of Fetch calls.
func (s *Store) Fetches() uint64 { return s.fetches.Load() }
