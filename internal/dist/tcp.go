package dist

import (
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"sparsecut/internal/flight"
)

// TCPTransport carries protocol messages over loopback TCP: one listener
// per address, length-prefixed binary frames (wire.go) on persistent
// connections. A Send makes one socket write per destination, however many
// messages it carries, and the accepting side decodes frames from a
// buffered reader, so one read syscall serves every frame it pulls in. It
// exists so the runtime can be exercised over a real socket stack
// (examples/cluster -tcp) rather than only over in-process channels; it is
// not a wide-area-network transport.
//
// Each outbound connection opens with the one-byte wirePreamble; the
// accepting side closes any connection that starts with anything else,
// before decoding a single frame.
type TCPTransport struct {
	listeners []net.Listener
	ports     []int
	boxes     []chan Message

	mu       sync.Mutex
	outbound map[int]*tcpConn      // dial-side connections, by destination
	inbound  map[net.Conn]struct{} // accept-side connections, for Close
	closed   bool
	closedC  chan struct{}
	wg       sync.WaitGroup

	congested atomic.Int64
	bytesOut  atomic.Int64
	bytesIn   atomic.Int64
	writes    atomic.Int64
	reads     atomic.Int64
	rec       atomic.Pointer[flight.Recorder]
}

// countWriter and countReader tally wire bytes and calls as the frame
// streams move through them, so telemetry sees real serialized volume, not
// Message struct sizes, and the number of socket writes and reads it took.
type countWriter struct {
	w     io.Writer
	n     *atomic.Int64
	calls *atomic.Int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	cw.calls.Add(1)
	return n, err
}

type countReader struct {
	r     io.Reader
	n     *atomic.Int64
	calls *atomic.Int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	cr.calls.Add(1)
	return n, err
}

type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	w   io.Writer // byte-counted connection writer
	buf []byte    // frame scratch, reused under mu
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport opens addrs loopback listeners on ephemeral ports, one
// per address 0..addrs-1, and returns a transport routing each sent message
// to the listener of its mailbox address over a cached connection.
func NewTCPTransport(addrs int) (*TCPTransport, error) {
	if addrs <= 0 {
		return nil, fmt.Errorf("dist: TCP transport needs a positive address count, got %d", addrs)
	}
	t := &TCPTransport{
		listeners: make([]net.Listener, addrs),
		ports:     make([]int, addrs),
		boxes:     make([]chan Message, addrs),
		outbound:  make(map[int]*tcpConn),
		inbound:   make(map[net.Conn]struct{}),
		closedC:   make(chan struct{}),
	}
	for i := 0; i < addrs; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("dist: listening for address %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.ports[i] = ln.Addr().(*net.TCPAddr).Port
		t.boxes[i] = make(chan Message, 256)
		t.wg.Add(1)
		go t.accept(i, ln)
	}
	return t, nil
}

func (t *TCPTransport) accept(addr int, ln net.Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.inbound[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serve(addr, c)
	}
}

func (t *TCPTransport) serve(addr int, c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
		_ = c.Close()
	}()
	// The byte count sits below the buffer, so BytesIn and Reads stay
	// socket-level figures.
	wr := newWireReader(&countReader{r: c, n: &t.bytesIn, calls: &t.reads})
	// The preamble is a format check on bytes arriving from outside the
	// program: a peer that does not open with it (an unrelated client, or
	// one speaking another encoding) is cut off rather than decoded.
	if b, err := wr.r.ReadByte(); err != nil || b != wirePreamble {
		return
	}
	for {
		m, err := wr.readMessage()
		if err != nil {
			return
		}
		select {
		case <-t.closedC:
			return
		default:
		}
		select {
		case t.boxes[addr] <- m:
		default:
			// Full mailbox: congestion loss, like ChanTransport — the
			// reader must not stall the whole connection behind one
			// saturated destination.
			t.congested.Add(1)
			recordNetDrop(t.rec.Load(), m, addr, flight.ReasonCongestion)
		}
	}
}

// Congested returns the number of messages dropped because the
// destination mailbox was full.
func (t *TCPTransport) Congested() int64 { return t.congested.Load() }

// BytesOut returns the total wire bytes written to outbound connections.
func (t *TCPTransport) BytesOut() int64 { return t.bytesOut.Load() }

// BytesIn returns the total bytes read off accepted connections.
func (t *TCPTransport) BytesIn() int64 { return t.bytesIn.Load() }

// Writes returns the number of socket writes made on outbound connections,
// each connection's preamble included.
func (t *TCPTransport) Writes() int64 { return t.writes.Load() }

// Reads returns the number of socket reads made on accepted connections.
func (t *TCPTransport) Reads() int64 { return t.reads.Load() }

// Port returns the loopback port the given address listens on.
func (t *TCPTransport) Port(addr int) (int, error) {
	if addr < 0 || addr >= len(t.ports) {
		return 0, fmt.Errorf("dist: address %d outside [0,%d)", addr, len(t.ports))
	}
	return t.ports[addr], nil
}

func (t *TCPTransport) conn(to int) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if to < 0 || to >= len(t.ports) {
		t.mu.Unlock()
		return nil, fmt.Errorf("dist: address %d outside [0,%d)", to, len(t.ports))
	}
	if oc, ok := t.outbound[to]; ok {
		t.mu.Unlock()
		return oc, nil
	}
	t.mu.Unlock()

	// Dial and write the preamble outside the lock: holding it would
	// serialize every Send in the runtime behind each connection setup.
	// Writing the preamble before the connection is published in
	// t.outbound means no Send can race ahead of it.
	c, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", t.ports[to]))
	if err != nil {
		return nil, t.connErr("dialing", to, err)
	}
	cw := &countWriter{w: c, n: &t.bytesOut, calls: &t.writes}
	if _, err := cw.Write([]byte{wirePreamble}); err != nil {
		_ = c.Close()
		return nil, t.connErr("handshaking", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	if oc, ok := t.outbound[to]; ok {
		// Lost the race against a concurrent dial to the same address.
		_ = c.Close()
		return oc, nil
	}
	oc := &tcpConn{c: c, w: cw}
	t.outbound[to] = oc
	return oc, nil
}

// connErr reports a failed connection setup. A Close that races the dial
// (closing the listener, or resetting the half-open connection) is the
// cause, not a network fault, so it surfaces as ErrClosed.
func (t *TCPTransport) connErr(op string, to int, err error) error {
	if t.isClosed() {
		return ErrClosed
	}
	return fmt.Errorf("dist: %s address %d: %w", op, to, err)
}

// Send implements Transport: the batch is grouped by mailbox address, and
// each destination's messages go out in batch order in one socket write.
func (t *TCPTransport) Send(ms ...Message) error {
	var seenBuf [8]int
	seen := seenBuf[:0]
	var first error
	for i, m := range ms {
		addr := mailboxAddr(m)
		if slices.Contains(seen, addr) {
			continue
		}
		seen = append(seen, addr)
		if err := t.sendTo(addr, ms[i:]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sendTo encodes the messages of ms addressed to addr into the
// connection's scratch buffer and writes them in one call.
func (t *TCPTransport) sendTo(addr int, ms []Message) error {
	oc, err := t.conn(addr)
	if err != nil {
		return err
	}
	oc.mu.Lock()
	oc.buf = oc.buf[:0]
	for _, m := range ms {
		if mailboxAddr(m) == addr {
			oc.buf = appendMessage(oc.buf, m)
		}
	}
	_, err = oc.w.Write(oc.buf)
	oc.mu.Unlock()
	if err != nil {
		// Drop the broken connection so a later Send re-dials.
		t.mu.Lock()
		if t.outbound[addr] == oc {
			delete(t.outbound, addr)
		}
		t.mu.Unlock()
		_ = oc.c.Close()
		if t.isClosed() {
			return ErrClosed
		}
		return fmt.Errorf("dist: sending to address %d: %w", addr, err)
	}
	return nil
}

// Recv implements Transport.
func (t *TCPTransport) Recv(addr int) (<-chan Message, error) {
	if addr < 0 || addr >= len(t.boxes) {
		return nil, fmt.Errorf("dist: address %d outside [0,%d)", addr, len(t.boxes))
	}
	return t.boxes[addr], nil
}

func (t *TCPTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close implements Transport: it closes all listeners and connections and
// waits for the reader goroutines to exit.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closedC)
	for _, ln := range t.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	for _, oc := range t.outbound {
		_ = oc.c.Close()
	}
	for c := range t.inbound {
		_ = c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
