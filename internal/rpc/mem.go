package rpc

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The in-memory transport: Server.Listen("mem:") binds a process-local
// address "mem:<n>", which a Client reaches over net.Pipe instead of TCP.
// The scheme is the whole selector — the framing, deadlines, handlers and
// Close behaviour are the TCP ones — so internal/sim runs every daemon
// handler it would run over loopback.

const memScheme = "mem:"

// memAddr is both ends' net.Addr. It has host:port shape ("mem", n), so
// hostOf maps every in-memory peer to the host "mem" the way it maps every
// loopback peer to 127.0.0.1.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

var (
	memSeq       atomic.Uint64
	memListeners sync.Map // "mem:<n>" -> *memListener
)

type memListener struct {
	addr  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// memConn gives the accepted end of a pipe a RemoteAddr that parses as
// host:port; net.Pipe's own is the bare word "pipe".
type memConn struct{ net.Conn }

func (memConn) RemoteAddr() net.Addr { return memAddr(memScheme + "0") }

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		memListeners.CompareAndDelete(string(l.addr), l)
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

// listenMem binds an in-memory address for Listen: "mem:" a fresh one, never
// handed out again; "mem:<n>" one handed out before whose listener has
// closed, as a restarted daemon rebinds its TCP port.
func listenMem(addr string) (net.Listener, error) {
	if addr == memScheme {
		addr = fmt.Sprintf("%s%d", memScheme, memSeq.Add(1))
	} else if n, err := strconv.ParseUint(addr[len(memScheme):], 10, 64); err != nil || n == 0 || n > memSeq.Load() {
		return nil, fmt.Errorf("listen %s: not an in-memory address this process handed out", addr)
	}
	l := &memListener{
		addr:  memAddr(addr),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	if _, live := memListeners.LoadOrStore(addr, l); live {
		return nil, fmt.Errorf("listen %s: address already in use", addr)
	}
	return l, nil
}

func isMemAddr(addr string) bool { return strings.HasPrefix(addr, memScheme) }

// dialMem connects to an in-memory listener; a missing or closed one is
// refused like a TCP port nobody listens on.
func dialMem(addr string) (net.Conn, error) {
	v, ok := memListeners.Load(addr)
	if !ok {
		return nil, fmt.Errorf("dial %s: connection refused", addr)
	}
	l := v.(*memListener)
	client, server := net.Pipe()
	select {
	case l.conns <- memConn{server}:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("dial %s: connection refused", addr)
	}
}
