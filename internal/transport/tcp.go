package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// maxFrameSize bounds a single wire frame (guards against corrupt length
// prefixes).
const maxFrameSize = 16 << 20

// The on-the-wire frame is a 4-byte big-endian length followed by the
// binary frame body defined in wire.go.

// TCPConfig tunes a TCP endpoint's connection pool. The zero value
// selects the defaults noted on each field.
type TCPConfig struct {
	// WriteTimeout bounds each frame write so one stalled peer cannot
	// wedge the sender forever; an expired write drops the pooled
	// connection (default 10s, negative disables).
	WriteTimeout time.Duration
	// IdleTimeout is how long an unused pooled outbound connection
	// survives before the reaper closes it; the next Send re-dials on
	// demand (default 2m, negative disables reaping).
	IdleTimeout time.Duration
}

func (c *TCPConfig) defaults() {
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
}

// TCPEndpoint is a transport endpoint over real TCP sockets. Outbound
// connections are pooled per destination, re-dialed on demand, and reaped
// after IdleTimeout of disuse; inbound frames are delivered from
// per-connection reader goroutines, so the handler must be safe for
// concurrent invocation (the live runtime serializes onto an actor loop).
type TCPEndpoint struct {
	listener net.Listener
	addr     Addr
	cfg      TCPConfig
	// dial opens outbound connections (net.Dial; a test parks it).
	dial func(network, address string) (net.Conn, error)

	mu          sync.Mutex
	conns       map[Addr]net.Conn
	lastUse     map[Addr]time.Time
	allConns    map[net.Conn]bool
	handler     Handler
	dropHandler Handler
	closed      bool
	done        chan struct{}
	wg          sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// NewTCP binds a TCP endpoint on listenAddr ("host:port"; port 0 picks a
// free port) with default pool tuning. The returned endpoint's Addr is
// the actual bound address.
func NewTCP(listenAddr string) (*TCPEndpoint, error) {
	return NewTCPWithConfig(listenAddr, TCPConfig{})
}

// NewTCPWithConfig binds a TCP endpoint with explicit pool tuning.
func NewTCPWithConfig(listenAddr string, cfg TCPConfig) (*TCPEndpoint, error) {
	cfg.defaults()
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	e := &TCPEndpoint{
		listener: ln,
		addr:     Addr(ln.Addr().String()),
		cfg:      cfg,
		dial:     net.Dial,
		conns:    make(map[Addr]net.Conn),
		lastUse:  make(map[Addr]time.Time),
		allConns: make(map[net.Conn]bool),
		done:     make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	if cfg.IdleTimeout > 0 {
		e.wg.Add(1)
		go e.reapLoop()
	}
	return e, nil
}

// Addr returns the endpoint's bound address.
func (e *TCPEndpoint) Addr() Addr { return e.addr }

// SetHandler installs the inbound message handler.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// SetDropHandler is a no-op: TCP delivers reliably, and kernel-level
// datagram drops are not observable on this transport.
func (e *TCPEndpoint) SetDropHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dropHandler = h
}

// Send transmits msg to the destination, dialing and caching a connection
// on first use.
func (e *TCPEndpoint) Send(to Addr, msg Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	conn, ok := e.conns[to]
	e.mu.Unlock()
	if !ok {
		c, err := e.dial("tcp", string(to))
		if err != nil {
			telTCPConnErr.Inc()
			return fmt.Errorf("%w: %s: %v", ErrUnknownAddr, to, err)
		}
		e.mu.Lock()
		if e.closed {
			// Close swept the tables during the dial: registering c now
			// would leave it open and Close waiting on its read loop.
			e.mu.Unlock()
			c.Close()
			return ErrClosed
		}
		if existing, ok := e.conns[to]; ok {
			e.mu.Unlock()
			c.Close()
			conn = existing
		} else {
			e.conns[to] = c
			e.allConns[c] = true
			// Frames may also arrive on this outbound connection. Counted
			// under the lock, so Close either sees the connection or has
			// already been seen above.
			e.wg.Add(1)
			e.mu.Unlock()
			conn = c
			go e.readLoop(c)
		}
	}
	// Build the length prefix and frame body in one buffer so the frame
	// goes out in a single write.
	frame := make([]byte, 4, 4+2+len(e.addr)+msg.WireSize())
	frame = appendTCPFrame(frame, e.addr, msg)
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.lastUse[to] = time.Now()
	if e.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	}
	if _, err := conn.Write(frame); err != nil {
		e.dropConnLocked(to, conn)
		return err
	}
	telTCPOut.Inc()
	telTCPOutBytes.Add(uint64(len(frame)))
	return nil
}

func (e *TCPEndpoint) dropConnLocked(to Addr, conn net.Conn) {
	if e.conns[to] == conn {
		delete(e.conns, to)
		delete(e.lastUse, to)
	}
	conn.Close()
}

// DropConn closes the pooled outbound connection to the destination (if
// any); the next Send re-dials on demand. The Resilient wrapper calls it
// when it reaps an idle peer.
func (e *TCPEndpoint) DropConn(to Addr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if conn, ok := e.conns[to]; ok {
		e.dropConnLocked(to, conn)
	}
}

// reapLoop closes pooled outbound connections unused for IdleTimeout.
func (e *TCPEndpoint) reapLoop() {
	defer e.wg.Done()
	interval := e.cfg.IdleTimeout / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			cutoff := time.Now().Add(-e.cfg.IdleTimeout)
			e.mu.Lock()
			for to, conn := range e.conns {
				if e.lastUse[to].Before(cutoff) {
					e.dropConnLocked(to, conn)
				}
			}
			e.mu.Unlock()
		case <-e.done:
			return
		}
	}
}

// Close shuts the listener and every connection down and waits for reader
// goroutines to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	err := e.listener.Close()
	for c := range e.allConns {
		c.Close()
	}
	e.conns = map[Addr]net.Conn{}
	e.lastUse = map[Addr]time.Time{}
	e.allConns = map[net.Conn]bool{}
	e.mu.Unlock()
	e.wg.Wait()
	return err
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.allConns[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.allConns, conn)
		e.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	for {
		var prefix [4]byte
		if _, err := readFull(r, prefix[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(prefix[:])
		if n > maxFrameSize {
			conn.Close()
			return
		}
		body := make([]byte, n)
		if _, err := readFull(r, body); err != nil {
			return
		}
		from, msg, err := readTCPFrame(body)
		if err != nil {
			continue
		}
		telTCPIn.Inc()
		telTCPInBytes.Add(uint64(len(prefix) + len(body)))
		e.mu.Lock()
		h := e.handler
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(from, msg)
		}
	}
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
