package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// cdnLoad measures the CDN tier the paper's §7 offload claim leans on:
// mailbox delivery is public content, so the last mix server can hand
// sealed rounds to ordinary storage/CDN machinery instead of serving
// clients itself. The experiment quantifies what that machinery costs in
// this codebase: sealing throughput for the memory and disk backends,
// client fetch latency (p50/p99) over TCP against each, and the lag for a
// sealed round to replicate to a peer node — the window during which a
// single-node failure could make a fresh round briefly unavailable.
func cdnLoad() {
	const (
		numMailboxes = 512
		mailboxBytes = 2048
		sealRounds   = 24
		fetches      = 2000
	)
	boxes := make(map[uint32][]byte, numMailboxes)
	for i := uint32(0); i < numMailboxes; i++ {
		data := make([]byte, mailboxBytes)
		for j := range data {
			data[j] = byte(i) + byte(j)
		}
		boxes[i] = data
	}
	roundBytes := numMailboxes * mailboxBytes

	sealThroughput := func(mk func() *cdn.Store) float64 {
		store := mk()
		defer store.Close()
		start := time.Now()
		for r := uint32(1); r <= sealRounds; r++ {
			if err := store.Publish(wire.Dialing, r, boxes); err != nil {
				log.Fatal(err)
			}
		}
		return float64(roundBytes) * sealRounds / time.Since(start).Seconds() / 1e6
	}
	memSeal := sealThroughput(func() *cdn.Store { return cdn.NewStore(0) })
	diskDir, err := os.MkdirTemp("", "cdnbench-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(diskDir)
	diskSeal := sealThroughput(func() *cdn.Store {
		s, err := cdn.OpenDiskStore(diskDir, 0)
		if err != nil {
			log.Fatal(err)
		}
		return s
	})

	// Fetch latency over TCP against each backend.
	fetchLatency := func(store *cdn.Store) (p50, p99 time.Duration) {
		srv := rpc.NewServer()
		rpc.RegisterCDNFrontend(srv, store)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		c := rpc.DialCDN(addr)
		defer c.Close()
		ctx := context.Background()
		lat := make([]time.Duration, 0, fetches)
		for i := 0; i < fetches; i++ {
			mb := uint32(i) % numMailboxes
			start := time.Now()
			if _, err := c.Fetch(ctx, wire.Dialing, 1, mb); err != nil {
				log.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return percentile(lat, 50), percentile(lat, 99)
	}
	memStore := cdn.NewStore(0)
	if err := memStore.Publish(wire.Dialing, 1, boxes); err != nil {
		log.Fatal(err)
	}
	memP50, memP99 := fetchLatency(memStore)
	diskStore, err := cdn.OpenDiskStore(diskDir, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer diskStore.Close()
	diskP50, diskP99 := fetchLatency(diskStore)

	// Replication lag: publish to node A over TCP, time until the sealed
	// round is fetchable on peer B.
	startNode := func() (*cdn.Store, *rpc.CDNDaemon, string, func()) {
		store := cdn.NewStore(0)
		srv := rpc.NewServer()
		d := rpc.RegisterCDN(srv, store)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		return store, d, addr, srv.Close
	}
	_, da, addrA, closeA := startNode()
	sb, _, addrB, closeB := startNode()
	defer closeA()
	defer closeB()
	da.SetPeers(addrB)
	defer da.Close()
	pub := rpc.Dial(addrA)
	defer pub.Close()
	var lags []time.Duration
	for r := uint32(1); r <= 8; r++ {
		start := time.Now()
		if err := rpc.PublishMailboxes(pub, wire.Dialing, r, boxes); err != nil {
			log.Fatal(err)
		}
		for !sb.Published(wire.Dialing, r) {
			time.Sleep(200 * time.Microsecond)
		}
		lags = append(lags, time.Since(start))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	replLag := percentile(lags, 50)

	fmt.Printf("CDN load (%d mailboxes × %d B per round)\n", numMailboxes, mailboxBytes)
	fmt.Printf("  seal throughput    memory %8.1f MB/s   disk %8.1f MB/s\n", memSeal, diskSeal)
	fmt.Printf("  fetch latency TCP  memory p50 %v p99 %v\n", memP50, memP99)
	fmt.Printf("                     disk   p50 %v p99 %v\n", diskP50, diskP99)
	fmt.Printf("  replication lag    publish→peer sealed (median) %v\n", replLag)

	writeJSONRecord("cdn-load", struct {
		NumMailboxes     int     `json:"num_mailboxes"`
		MailboxBytes     int     `json:"mailbox_bytes"`
		MemSealMBps      float64 `json:"mem_seal_mbps"`
		DiskSealMBps     float64 `json:"disk_seal_mbps"`
		MemFetchP50Us    int64   `json:"mem_fetch_p50_us"`
		MemFetchP99Us    int64   `json:"mem_fetch_p99_us"`
		DiskFetchP50Us   int64   `json:"disk_fetch_p50_us"`
		DiskFetchP99Us   int64   `json:"disk_fetch_p99_us"`
		ReplicationLagUs int64   `json:"replication_lag_us"`
	}{
		numMailboxes, mailboxBytes, memSeal, diskSeal,
		memP50.Microseconds(), memP99.Microseconds(),
		diskP50.Microseconds(), diskP99.Microseconds(),
		replLag.Microseconds(),
	})
}
