// Command alpenhorn-client is an interactive Alpenhorn client (the
// command-line client the paper built for the Pond/PANDA integration,
// §8.5). It connects to a live deployment through the entry daemon:
//
//	alpenhorn-client -email alice@example.org -entry localhost:7000 \
//	    -inbox-dir /tmp/pkg-inbox -state alice.state
//
// Commands at the prompt:
//
//	addfriend <email>     queue a friend request
//	call <email> [intent] queue a call
//	friends               list the address book
//	secret                print the last call's session key (for PANDA)
//	quit                  save state and exit
//
// Round participation (cover traffic included) is owned by the client
// library: client.Run follows the frontend's round announcements (the
// entry.events stream) and drives every submit and scan, including the
// bounded dial-scan backlog and the §5.1 give-up policy. This binary only
// renders events and queues work.
package main

import (
	"bufio"
	"context"
	"encoding/base32"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"alpenhorn"
	"alpenhorn/internal/rpc"

	"crypto/ed25519"
	"flag"
)

// printHandler renders events to the terminal and auto-accepts friend
// requests after printing them (an interactive accept prompt would race
// with the round loop; the paper's CLI behaves the same way for demos).
type printHandler struct {
	mu       sync.Mutex
	lastCall *alpenhorn.Call
}

func (h *printHandler) NewFriend(email string, key ed25519.PublicKey) bool {
	fmt.Printf("\n[alpenhorn] friend request from %s (key %x…) — auto-accepting\n> ", email, key[:8])
	return true
}

func (h *printHandler) ConfirmedFriend(email string) {
	fmt.Printf("\n[alpenhorn] friendship with %s confirmed\n> ", email)
}

func (h *printHandler) IncomingCall(call alpenhorn.Call) {
	h.mu.Lock()
	h.lastCall = &call
	h.mu.Unlock()
	fmt.Printf("\n[alpenhorn] incoming call from %s (intent %d, round %d)\n> ", call.Friend, call.Intent, call.Round)
}

func (h *printHandler) OutgoingCall(call alpenhorn.Call) {
	h.mu.Lock()
	h.lastCall = &call
	h.mu.Unlock()
	fmt.Printf("\n[alpenhorn] call to %s sent (round %d)\n> ", call.Friend, call.Round)
}

func (h *printHandler) Error(err error) {
	log.Printf("[alpenhorn] %v", err)
}

// statePersister writes client state to a file.
type statePersister struct{ path string }

func (p statePersister) Save(state []byte) error {
	return os.WriteFile(p.path, state, 0o600)
}

func main() {
	emailAddr := flag.String("email", "", "your Alpenhorn username (email address)")
	entryAddr := flag.String("entry", "localhost:7000", "entry daemon address")
	inboxDir := flag.String("inbox-dir", "", "directory where the PKG daemons write confirmation tokens")
	statePath := flag.String("state", "", "client state file (default: <email>.state)")
	flag.Parse()
	if *emailAddr == "" {
		log.Fatal("need -email")
	}
	if *statePath == "" {
		*statePath = strings.ReplaceAll(*emailAddr, "@", "_at_") + ".state"
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	bootstrap := rpc.DialFrontend(*entryAddr)
	dir, err := bootstrap.Directory(ctx)
	bootstrap.Close()
	if err != nil {
		log.Fatalf("fetching deployment directory: %v", err)
	}
	// Pool the whole entry tier, -entry first: when a frontend dies the
	// round loop resumes on the next from the same event cursor.
	frontendAddrs := []string{*entryAddr}
	for _, a := range dir.FrontendAddrs {
		if a != *entryAddr {
			frontendAddrs = append(frontendAddrs, a)
		}
	}
	frontend := rpc.DialFrontendPool(frontendAddrs...)
	defer frontend.Close()
	fmt.Printf("joined deployment at %s (client protocol version %d, frontends %v)\n", *entryAddr, dir.ProtocolVersion, frontendAddrs)

	cfg := alpenhorn.Config{
		Email:      *emailAddr,
		Entry:      frontend,
		Mailboxes:  frontend,
		NumIntents: 10,
		Handler:    &printHandler{},
		Persister:  statePersister{path: *statePath},
	}
	if len(dir.CDNAddrs) > 0 {
		// The deployment runs a dedicated CDN tier: fetch mailboxes from
		// it directly (failing over between nodes) instead of proxying
		// every fetch through the frontend.
		pool := rpc.DialCDNPool(dir.CDNAddrs...)
		defer pool.Close()
		cfg.Mailboxes = pool
		fmt.Printf("fetching mailboxes from CDN tier %v\n", dir.CDNAddrs)
	}
	for _, a := range dir.PKGAddrs {
		cfg.PKGs = append(cfg.PKGs, rpc.DialPKG(a))
	}
	for _, k := range dir.PKGKeys {
		cfg.PKGKeys = append(cfg.PKGKeys, ed25519.PublicKey(k))
	}
	for _, k := range dir.PKGBLSKeys {
		blsKey, err := rpc.UnmarshalBLSKey(k)
		if err != nil {
			log.Fatalf("bad PKG BLS key in directory: %v", err)
		}
		cfg.PKGBLSKeys = append(cfg.PKGBLSKeys, blsKey)
	}
	for _, k := range dir.MixerKeys {
		cfg.MixerKeys = append(cfg.MixerKeys, ed25519.PublicKey(k))
	}

	var client *alpenhorn.Client
	if data, err := os.ReadFile(*statePath); err == nil {
		client, err = alpenhorn.LoadClient(cfg, data)
		if err != nil {
			log.Fatalf("loading state: %v", err)
		}
		fmt.Printf("restored state from %s\n", *statePath)
	} else {
		client, err = alpenhorn.NewClient(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("registering with PKGs...")
		if err := client.Register(ctx); err != nil {
			log.Fatalf("registration: %v", err)
		}
		if err := confirmFromInbox(ctx, client, *emailAddr, *inboxDir, len(cfg.PKGs)); err != nil {
			log.Fatalf("confirmation: %v", err)
		}
		fmt.Println("registered and confirmed")
	}

	// The library owns the round loop; this goroutine lives until quit.
	go func() {
		if err := client.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("round loop stopped: %v", err)
		}
	}()

	fmt.Printf("alpenhorn-client for %s — type 'help'\n", *emailAddr)
	handler := cfg.Handler.(*printHandler)
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "help":
			fmt.Println("commands: addfriend <email> | call <email> [intent] | friends | secret | quit")
		case "addfriend":
			if len(fields) < 2 {
				fmt.Println("usage: addfriend <email>")
				break
			}
			if err := client.AddFriend(fields[1], nil); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("friend request queued for the next add-friend round")
			}
		case "call":
			if len(fields) < 2 {
				fmt.Println("usage: call <email> [intent]")
				break
			}
			intent := 0
			if len(fields) > 2 {
				intent, _ = strconv.Atoi(fields[2])
			}
			if err := client.Call(fields[1], uint32(intent)); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("call queued for the next dialing round")
			}
		case "friends":
			for _, f := range client.Friends() {
				status := "pending"
				if f.Confirmed {
					status = "confirmed"
				}
				fmt.Printf("  %s (%s)\n", f.Email, status)
			}
		case "secret":
			handler.mu.Lock()
			call := handler.lastCall
			handler.mu.Unlock()
			if call == nil {
				fmt.Println("no call yet")
			} else {
				fmt.Printf("session key with %s: %s\n", call.Friend,
					base32.StdEncoding.EncodeToString(call.SessionKey[:20]))
			}
		case "quit", "exit":
			cancel()
			return
		default:
			fmt.Println("unknown command; type 'help'")
		}
		fmt.Print("> ")
	}
}

// confirmFromInbox reads the per-PKG confirmation tokens written by
// alpenhorn-pkg daemons into the inbox directory.
func confirmFromInbox(ctx context.Context, client *alpenhorn.Client, emailAddr, inboxDir string, numPKGs int) error {
	if inboxDir == "" {
		return fmt.Errorf("need -inbox-dir to read confirmation tokens")
	}
	name := strings.ReplaceAll(emailAddr, "@", "_at_") + ".token"
	// Every PKG daemon writes to its own inbox dir; accept either a
	// shared dir (same token file overwritten — confirm each PKG with
	// the freshest read) or per-PKG subdirectories pkg0/, pkg1/, ...
	for i := 0; i < numPKGs; i++ {
		candidates := []string{
			filepath.Join(inboxDir, fmt.Sprintf("pkg%d", i), name),
			filepath.Join(inboxDir, name),
		}
		var lastErr error
		confirmed := false
		for _, p := range candidates {
			data, err := os.ReadFile(p)
			if err != nil {
				lastErr = err
				continue
			}
			if err := client.ConfirmRegistration(ctx, i, strings.TrimSpace(string(data))); err != nil {
				lastErr = err
				continue
			}
			confirmed = true
			break
		}
		if !confirmed {
			return fmt.Errorf("PKG %d: %v", i, lastErr)
		}
	}
	return nil
}
