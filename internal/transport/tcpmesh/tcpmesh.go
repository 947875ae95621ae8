// Package tcpmesh is the real-socket backend of the transport seam: a
// completely connected mesh of TCP links carrying length-prefixed frames,
// so N OS processes form a genuine ring the way the paper's testbed
// formed one over 100 Mbps Ethernet. The peer set is a static map from
// processor identifier to address (the paper's model has a fixed,
// completely connected LAN; the membership protocol handles who is
// currently trusted, not who is cabled).
//
// Each endpoint listens on its own address and maintains one outbound
// link per peer for sending; inbound connections are receive-only. A
// broken link is redialed with capped, jittered exponential backoff
// (sec.JitteredBackoff), and frames queued while a peer is unreachable
// are shed once its bounded send queue fills — the transport contract is
// best-effort, exactly the unreliable-channel model (§3) the Secure
// Multicast Protocols are built against. Received frames land in a
// bounded queue feeding the stack's existing backpressure path; overflow
// is dropped and counted, never buffered without bound.
//
// Wire format, per connection:
//
//	hello:  magic "IMM1" | version byte (2) | sender id (uint32 BE) | ring id (uint32 BE)
//	frame:  length (uint32 BE, ≤ MaxFrame) | payload bytes
//
// The hello authenticates nothing — channels in the model are
// unauthenticated; the protocols above sign and verify what matters.
package tcpmesh

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"immune/internal/ids"
	"immune/internal/sec"
	"immune/internal/transport"
)

// MaxFrame bounds one frame's payload; larger reads mean a desynchronized
// or hostile stream and kill the connection instead of allocating.
const MaxFrame = 1 << 24

var helloMagic = [4]byte{'I', 'M', 'M', '1'}

const helloVersion = 2

// Defaults for the zero Config values.
const (
	DefaultMaxRecvQueue = 4096
	DefaultMaxSendQueue = 1024
	DefaultDialBackoff  = 20 * time.Millisecond
	DefaultMaxBackoff   = 1 * time.Second
	defaultDialTimeout  = 2 * time.Second
)

// Config parameterizes one mesh endpoint.
type Config struct {
	// Self is this processor's identifier.
	Self ids.ProcessorID
	// Peers maps every processor in the mesh to its listen address. An
	// entry for Self is allowed and ignored on the send side.
	Peers map[ids.ProcessorID]string
	// Listen is the address to accept inbound links on (Self's entry in
	// every other processor's Peers map). Ignored when Listener is set.
	Listen string
	// Listener optionally supplies a pre-bound listener (tests use
	// ":0"-bound listeners to avoid port races).
	Listener net.Listener
	// MaxRecvQueue bounds the incoming frame queue; overflow is dropped
	// and counted. 0 means DefaultMaxRecvQueue.
	MaxRecvQueue int
	// MaxSendQueue bounds each peer's outgoing frame queue; overflow is
	// dropped and counted. 0 means DefaultMaxSendQueue.
	MaxSendQueue int
	// DialBackoff is the base of the per-peer reconnect backoff; 0 means
	// DefaultDialBackoff.
	DialBackoff time.Duration
	// MaxBackoff caps the reconnect backoff; 0 means DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Seed drives the jittered backoff schedule (reproducible from the
	// system seed, like every other retry loop in the system).
	Seed uint64
	// Ring identifies which sharded ring this endpoint carries. The hello
	// advertises it and inbound links claiming a different ring are cut:
	// in a multi-ring deployment every (processor, ring) pair has its own
	// mesh, and cross-wiring them would splice two total orders together.
	Ring int
	// Metrics are optional observability hooks; the zero value disables
	// them.
	Metrics transport.Metrics
}

// Endpoint is one processor's attachment to the mesh.
type Endpoint struct {
	cfg   Config
	self  ids.ProcessorID
	ln    net.Listener
	peers map[ids.ProcessorID]*peer
	order []ids.ProcessorID // stable fan-out order

	mu       sync.Mutex
	recvQ    []transport.Frame
	conns    map[net.Conn]struct{}        // inbound, closed on shutdown
	bySender map[ids.ProcessorID]net.Conn // current inbound link per sender
	closed   bool

	notify  chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup
}

var _ transport.Endpoint = (*Endpoint)(nil)

// peer is one outbound link: a bounded queue drained by a dialing,
// reconnecting writer goroutine.
type peer struct {
	id    ids.ProcessorID
	addr  string
	queue chan []byte
}

// New builds a mesh endpoint and starts its accept and peer-writer
// goroutines. It returns once the listener is bound; peer links are
// established lazily on first send.
func New(cfg Config) (*Endpoint, error) {
	if cfg.Self == transport.Broadcast {
		return nil, fmt.Errorf("tcpmesh: processor id %v is reserved for broadcast", cfg.Self)
	}
	if cfg.MaxRecvQueue <= 0 {
		cfg.MaxRecvQueue = DefaultMaxRecvQueue
	}
	if cfg.MaxSendQueue <= 0 {
		cfg.MaxSendQueue = DefaultMaxSendQueue
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = DefaultDialBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcpmesh: listen %s: %w", cfg.Listen, err)
		}
	}
	e := &Endpoint{
		cfg:      cfg,
		self:     cfg.Self,
		ln:       ln,
		peers:    make(map[ids.ProcessorID]*peer, len(cfg.Peers)),
		conns:    make(map[net.Conn]struct{}),
		bySender: make(map[ids.ProcessorID]net.Conn),
		notify:   make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		if id == transport.Broadcast {
			e.ln.Close()
			return nil, fmt.Errorf("tcpmesh: peer id %v is reserved for broadcast", id)
		}
		e.peers[id] = &peer{id: id, addr: addr, queue: make(chan []byte, cfg.MaxSendQueue)}
		e.order = append(e.order, id)
	}
	sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })

	e.wg.Add(1)
	go e.acceptLoop()
	for _, id := range e.order {
		e.wg.Add(1)
		go e.runPeer(e.peers[id])
	}
	return e, nil
}

// ID implements transport.Endpoint.
func (e *Endpoint) ID() ids.ProcessorID { return e.self }

// Addr returns the bound listen address (useful with ":0").
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Send implements transport.Endpoint: best-effort unicast. The payload is
// copied before queueing (the caller may reuse its buffer) and shed, with
// a counter, when the peer's bounded queue is full or the peer is
// unknown.
func (e *Endpoint) Send(to ids.ProcessorID, payload []byte) {
	p, ok := e.peers[to]
	if !ok {
		e.cfg.Metrics.SendDropped.Inc()
		return
	}
	e.enqueue(p, payload)
}

// Multicast implements transport.Endpoint: software fan-out of one frame
// to every peer, in stable identifier order.
func (e *Endpoint) Multicast(payload []byte) {
	for _, id := range e.order {
		e.enqueue(e.peers[id], payload)
	}
}

func (e *Endpoint) enqueue(p *peer, payload []byte) {
	if len(payload) > MaxFrame {
		e.cfg.Metrics.SendDropped.Inc()
		return
	}
	// Each receiver gets a private copy: the writer goroutine transmits
	// after Send returns, and the caller's buffer (ring retransmission
	// store, memoized encodings) is live and mutable by then.
	cp := append([]byte(nil), payload...)
	select {
	case p.queue <- cp:
	default:
		e.cfg.Metrics.SendDropped.Inc()
	}
}

// TryRecv implements transport.Endpoint.
func (e *Endpoint) TryRecv() (transport.Frame, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.recvQ) == 0 {
		return transport.Frame{}, false
	}
	f := e.recvQ[0]
	e.recvQ = e.recvQ[1:]
	e.cfg.Metrics.RecvQueueDepth.Set(int64(len(e.recvQ)))
	return f, true
}

// Notify implements transport.Endpoint.
func (e *Endpoint) Notify() <-chan struct{} { return e.notify }

// Pending implements transport.Endpoint.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.recvQ)
}

// Close implements transport.Endpoint: stops the listener, tears down all
// links, and waits for every goroutine.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	close(e.closeCh)
	e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
	close(e.notify)
	return nil
}

// deposit places one received frame in the bounded recv queue, shedding
// (with a counter) on overflow so a flooding peer cannot grow memory —
// the layer above's backpressure path handles the resulting loss like any
// other network loss.
func (e *Endpoint) deposit(f transport.Frame) {
	e.mu.Lock()
	if e.closed || len(e.recvQ) >= e.cfg.MaxRecvQueue {
		e.mu.Unlock()
		e.cfg.Metrics.RecvDropped.Inc()
		return
	}
	e.recvQ = append(e.recvQ, f)
	e.cfg.Metrics.RecvQueueDepth.Set(int64(len(e.recvQ)))
	e.mu.Unlock()
	e.cfg.Metrics.FramesReceived.Inc()
	e.cfg.Metrics.BytesReceived.Add(uint64(len(f.Payload)))
	select {
	case e.notify <- struct{}{}:
	default: // already signaled; one pending notification suffices
	}
}

// acceptLoop admits inbound (receive-only) connections.
func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.serveConn(conn)
	}
}

// serveConn validates the hello then pumps frames into the recv queue
// until the peer disconnects, desynchronizes, or is superseded by a newer
// inbound link from the same sender.
func (e *Endpoint) serveConn(conn net.Conn) {
	defer e.wg.Done()
	var from ids.ProcessorID
	registered := false
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		// Only the link that still owns the sender slot vacates it; a
		// superseded reader exiting later must not evict its successor.
		if registered && e.bySender[from] == conn {
			delete(e.bySender, from)
		}
		e.mu.Unlock()
	}()
	var ring int
	var err error
	from, ring, err = readHello(conn)
	if err != nil || from == e.self || ring != e.cfg.Ring {
		e.cfg.Metrics.RecvDropped.Inc()
		return
	}
	// A redial replaces any previous inbound link from this sender. The
	// old connection is already dead on the peer's side; without this its
	// reader goroutine would sit in readFrame on a drained socket forever,
	// holding the conn (and its kernel buffers) until endpoint shutdown.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if old, ok := e.bySender[from]; ok && old != conn {
		// Count before closing: the close is what the peer observes, so
		// the counter must already reflect it by then.
		e.cfg.Metrics.InboundSuperseded.Inc()
		old.Close()
	}
	e.bySender[from] = conn
	registered = true
	e.mu.Unlock()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		e.deposit(transport.Frame{From: from, To: e.self, Payload: payload})
	}
}

// runPeer is one outbound link's writer: dial with jittered backoff,
// hello, then drain the queue onto the wire; a failed write drops the
// frame (best effort), kills the link, and redials.
func (e *Endpoint) runPeer(p *peer) {
	defer e.wg.Done()
	rng := sec.NewSeededRand(e.cfg.Seed ^ (uint64(p.id)*0x9e3779b97f4a7c15 + 1))
	var conn net.Conn
	links := 0
	attempt := 0
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var payload []byte
		select {
		case <-e.closeCh:
			return
		case payload = <-p.queue:
		}
		for conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, defaultDialTimeout)
			if err == nil {
				err = writeHello(c, e.self, e.cfg.Ring)
			}
			if err == nil {
				conn = c
				links++
				if links > 1 {
					e.cfg.Metrics.Reconnects.Inc()
				}
				break
			}
			if c != nil {
				c.Close()
			}
			wait := sec.JitteredBackoff(e.cfg.DialBackoff, attempt, e.cfg.MaxBackoff, rng)
			if attempt < 62 {
				attempt++
			}
			select {
			case <-e.closeCh:
				return
			case <-time.After(wait):
			}
		}
		if err := writeFrame(conn, payload); err != nil {
			// Best effort: the frame is lost like any dropped datagram;
			// the link is rebuilt for the next one. attempt is NOT reset
			// here, so a peer that accepts and immediately resets still
			// backs the dialer off.
			e.cfg.Metrics.SendDropped.Inc()
			conn.Close()
			conn = nil
			continue
		}
		attempt = 0
		e.cfg.Metrics.FramesSent.Inc()
		e.cfg.Metrics.BytesSent.Add(uint64(len(payload)))
	}
}

func writeHello(conn net.Conn, self ids.ProcessorID, ring int) error {
	var hello [13]byte
	copy(hello[:4], helloMagic[:])
	hello[4] = helloVersion
	binary.BigEndian.PutUint32(hello[5:], uint32(self))
	binary.BigEndian.PutUint32(hello[9:], uint32(ring))
	_, err := conn.Write(hello[:])
	return err
}

func readHello(conn net.Conn) (ids.ProcessorID, int, error) {
	var hello [13]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, 0, err
	}
	if [4]byte(hello[:4]) != helloMagic {
		return 0, 0, fmt.Errorf("tcpmesh: bad hello magic %q", hello[:4])
	}
	if hello[4] != helloVersion {
		return 0, 0, fmt.Errorf("tcpmesh: unsupported hello version %d", hello[4])
	}
	return ids.ProcessorID(binary.BigEndian.Uint32(hello[5:9])), int(binary.BigEndian.Uint32(hello[9:])), nil
}

func writeFrame(conn net.Conn, payload []byte) error {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := conn.Write(buf)
	return err
}

func readFrame(conn net.Conn) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > MaxFrame {
		return nil, fmt.Errorf("tcpmesh: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
