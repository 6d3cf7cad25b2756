// Package rpc is the network transport for Alpenhorn's daemons: a minimal
// length-prefixed request/response protocol over TCP (or, for an address
// of the form "mem:<n>", over an in-process pipe — see mem.go).
//
// # Frames
//
// A frame is a u32 length and that many bytes. A control frame is JSON: a
// request {"method", "params"} or a reply {"error", "result"}. A data frame
// (0x00 first, which no JSON is) adds raw bytes to the same envelope:
//
//	0x00 | u32 envelope length | envelope | u32 n | n × u32 blob length | blobs
//
// A struct carries blobs by embedding the blobs type; they cross without
// base64 and arrive as sub-slices of the one frame buffer. Blobs carry the
// onions of mix.stream.chunk (every stage's) and of entry.submit, the
// mailbox fragments of cdn.publish and cdn.pull, and the replies of
// cdn.fetch, cdn.fetchrange and mix.round.exportkey. Every other frame
// stays JSON: it is small, and the version handshake rides on it —
// mix.info, pkg.info and frontend.directory must parse for a peer of any
// generation, so that it can name a peer serving the wrong
// ProtocolVersion.
//
// A sender builds a data frame in a pooled buffer (sendBufs) and takes it
// back once the frame is written, so a stream of chunk calls reuses one
// buffer instead of allocating a frame-sized one per call; a frame that
// carried a round key is zeroed before its buffer goes back.
//
// The in-process server types (pkgserver.Server, mixnet.Server, ...) hold
// all protocol logic; this package only moves their arguments across
// machine boundaries. cmd/alpenhorn-pkg and friends register method
// handlers on a Server; clients use Client.Call with mirrored argument
// structs. Security note: Alpenhorn's protocol messages authenticate
// themselves (signatures, AEADs), so the transport adds no cryptography;
// a deployment would still wrap it in TLS for hygiene.
package rpc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// maxMessageSize bounds a single request or response (64 MB: a full
// add-friend mailbox batch fits comfortably, raw in a data frame).
const maxMessageSize = 64 << 20

// request is the wire format of one call.
type request struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params"`
}

// response is the wire format of one reply.
type response struct {
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxMessageSize {
		return errors.New("rpc: message too large")
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameReadStep is the most readFrame allocates on the strength of a frame
// header alone. The header comes from an unauthenticated peer and may claim
// up to maxMessageSize for the price of four bytes; everything past the
// first step is allocated only after the bytes before it have arrived.
const frameReadStep = 1 << 20

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	claimed := binary.BigEndian.Uint32(hdr[:])
	if claimed > maxMessageSize {
		return nil, errors.New("rpc: frame too large")
	}
	n := int(claimed)
	// Frames up to one step — nearly all of them — are one allocation and
	// one read. A larger frame doubles its buffer each time the part
	// allocated so far has filled, so a peer that stops sending has cost at
	// most about twice what it actually sent, plus the first step.
	payload := make([]byte, min(n, frameReadStep))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	for len(payload) < n {
		have := len(payload)
		grown := make([]byte, min(n, 2*have))
		copy(grown, payload)
		payload = grown
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// blobs is the bulk section of a call or a reply. Embedded in an argument
// or reply struct it is invisible to encoding/json and crosses as the
// frame's blob section instead.
type blobs [][]byte

func (b blobs) blobSection() [][]byte      { return b }
func (b *blobs) setBlobSection(s [][]byte) { *b = s }

// one returns the only blob of a one-blob section, nil for any other count.
func (b blobs) one() []byte {
	if len(b) != 1 {
		return nil
	}
	return b[0]
}

type blobSender interface{ blobSection() [][]byte }
type blobReceiver interface{ setBlobSection([][]byte) }

// dataFrame is the first byte of a data frame, which no JSON text has.
const dataFrame = 0x00

var errBadFrame = errors.New("rpc: malformed data frame")

// encodeFrame returns the payload of one frame: env itself when there are
// no blobs, the data frame layout otherwise, built in dst's storage (grown
// once if it is short).
func encodeFrame(dst, env []byte, bs [][]byte) []byte {
	if len(bs) == 0 {
		return env
	}
	size := 1 + 4 + len(env) + 4 + 4*len(bs) + int(payloadBytes(bs))
	out := append(slices.Grow(dst[:0], size), dataFrame)
	out = binary.BigEndian.AppendUint32(out, uint32(len(env)))
	out = append(out, env...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(bs)))
	for _, b := range bs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
	}
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// sendBufs recycles the storage of outgoing data frames: a call's request,
// or a server's reply, that carries blobs. Every Write the transports make
// has copied what it was handed when it returns — into the kernel over
// TCP, into the reader's buffer over net.Pipe — so a frame's buffer goes
// back to the pool once writeFrame has returned.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame is the largest buffer sendBufs keeps. A chunk of onions
// or a mailbox fits; a rarer, larger frame (a round replicated whole) is
// left to the collector rather than held by the pool.
const maxPooledFrame = 1 << 20

// encodeSend returns the payload of a frame about to be sent for env and
// the value v it carries: env itself when v has no blobs, else a data
// frame built in a buffer from sendBufs, which it also returns, for
// releaseSend once the frame is written.
func encodeSend(env []byte, v any) ([]byte, *[]byte) {
	b, ok := v.(blobSender)
	if !ok || len(b.blobSection()) == 0 {
		return env, nil
	}
	buf := sendBufs.Get().(*[]byte)
	*buf = encodeFrame(*buf, env, b.blobSection())
	return *buf, buf
}

// releaseSend hands a data frame's buffer from encodeSend back to
// sendBufs; nil, a control frame's, is a no-op. Nothing may read or write
// the frame afterwards.
func releaseSend(buf *[]byte) {
	if buf != nil && cap(*buf) <= maxPooledFrame {
		sendBufs.Put(buf)
	}
}

// decodeFrame splits a frame payload into its JSON envelope and its blobs:
// capacity-capped sub-slices of payload, so appending to one cannot
// overwrite the next. The blob count is checked against the bytes present
// before the blob table is allocated, and a data frame has one encoding:
// at least one blob, no byte left over.
func decodeFrame(payload []byte) (env []byte, bs [][]byte, err error) {
	if len(payload) == 0 || payload[0] != dataFrame {
		return payload, nil, nil
	}
	p := payload[1:]
	if len(p) < 4 {
		return nil, nil, errBadFrame
	}
	envLen, p := uint64(binary.BigEndian.Uint32(p)), p[4:]
	if envLen > uint64(len(p)) {
		return nil, nil, errBadFrame
	}
	env, p = p[:envLen], p[envLen:]
	if len(p) < 4 {
		return nil, nil, errBadFrame
	}
	n, p := uint64(binary.BigEndian.Uint32(p)), p[4:]
	if n == 0 || n > uint64(len(p))/4 {
		return nil, nil, errBadFrame
	}
	lens, p := p[:4*n], p[4*n:]
	bs = make([][]byte, n)
	for i := range bs {
		l := uint64(binary.BigEndian.Uint32(lens[4*i:]))
		if l > uint64(len(p)) {
			return nil, nil, errBadFrame
		}
		bs[i], p = p[:l:l], p[l:]
	}
	if len(p) > 0 {
		return nil, nil, errBadFrame
	}
	return env, bs, nil
}

// handler processes one method call; its result is JSON-encoded, and the
// result's blobs, if it carries any, are the reply's.
type handler func(peerAddr string, params json.RawMessage, bs [][]byte) (any, error)

// Server dispatches method calls to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]handler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool

	// ctx is cancelled when Close begins. Long-poll handlers derive their
	// wait from it, so a shutting-down server never waits on a parked
	// handler's full poll interval.
	ctx    context.Context
	cancel context.CancelFunc
}

// NewServer creates an empty RPC server.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handlers: make(map[string]handler),
		conns:    make(map[net.Conn]struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// Closing is closed when Close begins.
func (s *Server) Closing() <-chan struct{} { return s.ctx.Done() }

// HandleFunc registers a handler with typed parameters: params JSON is
// decoded into T, and the blob section into T's embedded blobs (a T
// without any refuses blobs).
func HandleFunc[T any](s *Server, method string, fn func(T) (any, error)) {
	HandlePeerFunc(s, method, func(_ string, arg T) (any, error) { return fn(arg) })
}

// HandlePeerFunc is HandleFunc for a fn that also takes the caller's
// remote address (host:port). The transport is unauthenticated, so a peer
// address is a topology signal, not an identity — it gates server-plane
// surfaces like mix.round.exportkey to an allowlisted shard network, on
// top of whatever the deployment's network layer enforces.
func HandlePeerFunc[T any](s *Server, method string, fn func(peerAddr string, arg T) (any, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = func(peerAddr string, params json.RawMessage, bs [][]byte) (any, error) {
		var arg T
		if r, ok := any(&arg).(blobReceiver); ok {
			r.setBlobSection(bs)
		} else if len(bs) > 0 {
			return nil, fmt.Errorf("rpc: %s carries no blobs", method)
		}
		if len(params) > 0 {
			if err := json.Unmarshal(params, &arg); err != nil {
				return nil, fmt.Errorf("rpc: bad params for %s: %w", method, err)
			}
		}
		return fn(peerAddr, arg)
	}
}

// Serve starts accepting connections on the listener and returns
// immediately; connections are handled on background goroutines.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
}

// Listen starts the server on a TCP address and returns the bound address
// (useful with ":0"). An address with the "mem:" scheme binds an in-memory
// listener instead (mem.go).
func (s *Server) Listen(addr string) (string, error) {
	var ln net.Listener
	var err error
	if isMemAddr(addr) {
		ln, err = listenMem(addr)
	} else {
		ln, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops accepting connections, disconnects clients, and waits for
// in-flight calls to drain. A Close that finds another under way waits
// for it, so when any Close returns every connection is closed and every
// handler has returned.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cancel()
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	peerAddr := conn.RemoteAddr().String()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		env, bs, err := decodeFrame(payload)
		if err != nil {
			return
		}
		var req request
		if err := json.Unmarshal(env, &req); err != nil {
			return
		}
		s.mu.Lock()
		h := s.handlers[req.Method]
		s.mu.Unlock()

		var resp response
		var result any
		if h == nil {
			resp.Error = "rpc: unknown method " + req.Method
		} else if result, err = h(peerAddr, req.Params, bs); err != nil {
			resp.Error = err.Error()
		} else if result != nil {
			raw, err := json.Marshal(result)
			if err != nil {
				resp.Error = "rpc: encoding result: " + err.Error()
			} else {
				resp.Result = raw
			}
		}
		out, err := json.Marshal(resp)
		if err != nil {
			return
		}
		var buf *[]byte
		if resp.Error == "" {
			out, buf = encodeSend(out, result)
		}
		err = writeFrame(conn, out)
		if k, ok := result.(keyReply); ok {
			clear(k.one())
			clear(out)
		}
		releaseSend(buf)
		if err != nil {
			return
		}
	}
}

// Client is an RPC client for one address. A call holds a connection of
// its own, idle or newly dialed, until its reply is read, so a parked
// long-poll holds up no other call. Safe for concurrent use.
type Client struct {
	addr    string
	timeout time.Duration

	// mu guards the pool and the transport accounting. The data-plane
	// acceptance test and the bench harness use the counters to prove the
	// coordinator's connections carry control messages, not batch
	// payloads.
	mu            sync.Mutex
	idle          []net.Conn
	busy          map[net.Conn]struct{}
	gen           uint64 // Close calls so far; a call in flight at one is not retried
	bytesSent     uint64
	bytesReceived uint64
	calls         map[string]uint64
}

// maxIdle bounds the connections a Client keeps open between calls: above
// the protocol's three calls in flight, so its clients never redial, and
// below a burst fanned into one Client (a frontend proxying fetches).
const maxIdle = 4

// ClientStats is a snapshot of one client's transport accounting.
type ClientStats struct {
	BytesSent     uint64
	BytesReceived uint64
	Calls         uint64
}

// add folds another client's accounting into st.
func (st *ClientStats) add(o ClientStats) {
	st.BytesSent += o.BytesSent
	st.BytesReceived += o.BytesReceived
	st.Calls += o.Calls
}

// Dial creates a client for the given address. Connections are
// established lazily, one per call in flight, and up to maxIdle are kept
// for reuse.
func Dial(addr string) *Client {
	return &Client{
		addr:    addr,
		timeout: 30 * time.Second,
		busy:    make(map[net.Conn]struct{}),
		calls:   make(map[string]uint64),
	}
}

// Stats returns cumulative bytes moved and calls made by this client,
// counting frame headers and retried writes.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, v := range c.calls {
		n += v
	}
	return ClientStats{BytesSent: c.bytesSent, BytesReceived: c.bytesReceived, Calls: n}
}

// CallCount returns how many times this client has invoked a method.
func (c *Client) CallCount(method string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[method]
}

// addBytes records frame bytes moved on the wire (headers included).
func (c *Client) addBytes(sent, received uint64) {
	c.mu.Lock()
	c.bytesSent += sent
	c.bytesReceived += received
	c.mu.Unlock()
}

// Call invokes a remote method. result may be nil to discard the reply.
//
// On a dead connection Call transparently re-sends ONCE, on a freshly
// dialed connection, which is only safe for idempotent methods: if the
// request executed but the reply was lost, the retry executes it again.
// Data-plane mutations that append state (stream chunks, publish
// fragments) must use CallOnce.
func (c *Client) Call(method string, params any, result any) error {
	return c.call(context.Background(), method, params, result, c.timeout, 2)
}

// CallContext is Call honoring a context: the dial respects ctx, the I/O
// deadline is the earlier of ctx's deadline and the client timeout, and
// cancelling ctx mid-call closes the call's connection so a parked call
// (e.g. an entry.events long-poll against a dead frontend) returns
// promptly instead of wedging the caller.
func (c *Client) CallContext(ctx context.Context, method string, params any, result any) error {
	return c.call(ctx, method, params, result, c.timeout, 2)
}

// CallOnce invokes a remote method with NO transparent retry: the request
// is sent at most once, and any transport failure surfaces as an error.
// Use it for non-idempotent calls; the caller recovers at a higher level
// (a failed mix round aborts and the next round carries the traffic).
func (c *Client) CallOnce(method string, params any, result any) error {
	return c.call(context.Background(), method, params, result, c.timeout, 1)
}

// ErrTransport marks failures that happened in the transport — dialing,
// writing, or reading a frame — as opposed to errors returned by the
// remote handler. Callers with their own retry policy (e.g. a mixer
// dialing a successor that is still coming up) use errors.Is(err,
// ErrTransport) to retry only failures where re-sending can help.
var ErrTransport = errors.New("rpc: transport failure")

func (c *Client) call(ctx context.Context, method string, params any, result any, timeout time.Duration, maxAttempts int) error {
	raw, err := json.Marshal(params)
	if err != nil {
		return err
	}
	req, err := json.Marshal(request{Method: method, Params: raw})
	if err != nil {
		return err
	}
	req, buf := encodeSend(req, params)
	defer releaseSend(buf)

	c.mu.Lock()
	c.calls[method]++
	gen := c.gen
	c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := ctxErr(ctx); err != nil {
			return fmt.Errorf("rpc: call %s: %w", method, err)
		}
		// The retry dials: a connection that just failed says the
		// idle ones may be stale too.
		conn, err := c.take(ctx, gen, timeout, attempt > 0)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		conn.SetDeadline(deadline)
		// Cancellation mid-call must interrupt a blocked read (a parked
		// long-poll, a dead peer): closing the conn is the only portable
		// interrupt.
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		c.addBytes(uint64(len(req))+4, 0)
		op := "writing to"
		err = writeFrame(conn, req)
		var payload []byte
		if err == nil {
			op = "reading from"
			payload, err = readFrame(conn)
		}
		stopped := stop()
		if err != nil {
			cerr := ctxErr(ctx)
			live := c.release(conn, gen, false, cerr == nil)
			if cerr != nil {
				return fmt.Errorf("rpc: %s %s: %w", op, c.addr, cerr)
			}
			if live && attempt < maxAttempts-1 {
				continue
			}
			return fmt.Errorf("%w: %s %s: %v", ErrTransport, op, c.addr, err)
		}
		c.release(conn, gen, stopped, false) // !stopped: the cancellation closed it
		c.addBytes(0, uint64(len(payload))+4)
		env, bs, err := decodeFrame(payload)
		if err != nil {
			return err
		}
		var resp response
		if err := json.Unmarshal(env, &resp); err != nil {
			return err
		}
		if resp.Error != "" {
			return errors.New(resp.Error)
		}
		if r, ok := result.(blobReceiver); ok {
			r.setBlobSection(bs)
		}
		if result != nil && len(resp.Result) > 0 {
			return json.Unmarshal(resp.Result, result)
		}
		return nil
	}
}

// ctxErr is ctx.Err(), or DeadlineExceeded once ctx's deadline has passed:
// a connection deadline set to that instant may fire before ctx's timer.
func ctxErr(ctx context.Context) error {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return ctx.Err()
}

// take hands a call a connection of its own: the most recently used idle
// one, or a new one when none is idle or fresh is set. A Close since the
// call began (gen) fails the call instead of dialing for it.
func (c *Client) take(ctx context.Context, gen uint64, timeout time.Duration, fresh bool) (net.Conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 && !fresh {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.busy[conn] = struct{}{}
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	var conn net.Conn
	var err error
	if isMemAddr(c.addr) {
		conn, err = dialMem(c.addr)
	} else {
		conn, err = (&net.Dialer{Timeout: timeout}).DialContext(ctx, "tcp", c.addr)
	}
	if err != nil {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("rpc: dialing %s: %w", c.addr, err)
		}
		return nil, fmt.Errorf("%w: dialing %s: %v", ErrTransport, c.addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		conn.Close()
		return nil, fmt.Errorf("rpc: dialing %s: %w", c.addr, net.ErrClosed)
	}
	c.busy[conn] = struct{}{}
	return conn, nil
}

// release ends a call's hold on its connection. A connection whose call
// completed (keep) goes back to the idle set unless maxIdle are already
// there; any other is closed, and after a transport failure (purge) the
// idle ones go too, since the peer may have restarted under all of them.
// It reports whether the call may retry: false once Close has run since
// the call began.
func (c *Client) release(conn net.Conn, gen uint64, keep, purge bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.busy, conn)
	live := c.gen == gen
	if keep && live && len(c.idle) < maxIdle {
		c.idle = append(c.idle, conn)
		return true
	}
	conn.Close()
	if purge && live {
		c.closeIdleLocked()
	}
	return live
}

func (c *Client) closeIdleLocked() {
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
}

// Close closes every connection, idle or in a call. Calls in flight fail
// at once and are not retried; a call made after Close dials again.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.closeIdleLocked()
	for conn := range c.busy {
		conn.Close()
	}
	clear(c.busy)
}
