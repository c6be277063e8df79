package transport

import (
	"fmt"
	"net"
	"sync"
)

// maxDatagramSize bounds a UDP frame (stay under typical fragmentation
// limits). A datagram carries one binary TCP frame body: sender address
// and message, without the length prefix.
const maxDatagramSize = 60_000

// HybridEndpoint sends control messages over TCP (reliable, ordered) and
// Datagram-flagged messages over UDP (loss-tolerant) — the same split the
// simulated transport models and the natural deployment for RASC: overlay
// maintenance, discovery and RPCs must arrive; stream data units prefer
// freshness over reliability. Both sockets bind the same port so a single
// "host:port" address reaches the peer either way.
type HybridEndpoint struct {
	tcp *TCPEndpoint
	udp *net.UDPConn

	mu      sync.Mutex
	handler Handler
	closed  bool
	wg      sync.WaitGroup
}

var _ Endpoint = (*HybridEndpoint)(nil)

// NewHybrid binds a TCP listener and a UDP socket on the same address.
// Pass port 0 to pick a free port (shared by both sockets).
func NewHybrid(listenAddr string) (*HybridEndpoint, error) {
	tcp, err := NewTCP(listenAddr)
	if err != nil {
		return nil, err
	}
	udpAddr, err := net.ResolveUDPAddr("udp", string(tcp.Addr()))
	if err != nil {
		tcp.Close()
		return nil, err
	}
	udp, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		tcp.Close()
		return nil, fmt.Errorf("transport: udp bind %s: %w", tcp.Addr(), err)
	}
	h := &HybridEndpoint{tcp: tcp, udp: udp}
	h.wg.Add(1)
	go h.readUDP()
	return h, nil
}

// Addr returns the shared TCP/UDP address.
func (h *HybridEndpoint) Addr() Addr { return h.tcp.Addr() }

// SetHandler installs the inbound handler for both paths.
func (h *HybridEndpoint) SetHandler(fn Handler) {
	h.mu.Lock()
	h.handler = fn
	h.mu.Unlock()
	h.tcp.SetHandler(fn)
}

// SetDropHandler is a no-op: kernel-level UDP drops are not observable
// here.
func (h *HybridEndpoint) SetDropHandler(fn Handler) {}

// Send routes datagrams over UDP and everything else over TCP. Oversized
// datagrams fall back to TCP rather than fragmenting.
func (h *HybridEndpoint) Send(to Addr, msg Message) error {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !msg.Datagram {
		return h.tcp.Send(to, msg)
	}
	body := appendTCPFrame(nil, h.Addr(), msg)
	if len(body) > maxDatagramSize {
		return h.tcp.Send(to, msg)
	}
	dst, err := net.ResolveUDPAddr("udp", string(to))
	if err != nil {
		telUDPConnErr.Inc()
		return fmt.Errorf("%w: %s: %v", ErrUnknownAddr, to, err)
	}
	if _, err = h.udp.WriteToUDP(body, dst); err != nil {
		return err
	}
	telUDPOut.Inc()
	telUDPOutBytes.Add(uint64(len(body)))
	return nil
}

// Close shuts both sockets down.
func (h *HybridEndpoint) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	err := h.tcp.Close()
	h.udp.Close()
	h.wg.Wait()
	return err
}

func (h *HybridEndpoint) readUDP() {
	defer h.wg.Done()
	buf := make([]byte, maxDatagramSize+4096)
	for {
		n, _, err := h.udp.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		// The decoded message aliases its input, and buf is reused.
		from, msg, err := readTCPFrame(append([]byte(nil), buf[:n]...))
		if err != nil {
			continue
		}
		telUDPIn.Inc()
		telUDPInBytes.Add(uint64(n))
		h.mu.Lock()
		fn := h.handler
		closed := h.closed
		h.mu.Unlock()
		if closed {
			return
		}
		if fn != nil {
			fn(from, msg)
		}
	}
}
