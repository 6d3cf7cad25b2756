package rpc

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
)

// The in-memory transport: a Server can listen on a process-local address
// of the form "mem:<n>" and a Client whose address has that scheme reaches
// it over net.Pipe instead of TCP. The scheme is the whole selector — the
// framing, deadlines, handlers and Close behaviour are the TCP ones — so
// internal/sim runs every daemon handler it would run over loopback.

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
		memListeners.Delete(string(l.addr))
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

// ListenMem starts the server on a fresh in-memory address and returns it.
// The address is unique for the life of the process, so a closed server's
// address is refused, not reused.
func (s *Server) ListenMem() string {
	l := &memListener{
		addr:  memAddr(fmt.Sprintf("%s%d", memScheme, memSeq.Add(1))),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	memListeners.Store(string(l.addr), l)
	s.Serve(l)
	return string(l.addr)
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
