// Package tcpnet is the real-network implementation of transport.Env:
// varint-length-delimited codec-v2 frames over TCP (see
// internal/wire/codec and DESIGN.md "Wire format v2"), one event-loop
// goroutine per node so that protocol handlers keep the single-threaded
// semantics they have under the simulator.
//
// It exists so that the exact same Engine that runs in simulation can run
// as a live process (cmd/totoro-node): Join a bootstrap peer, build trees,
// broadcast, and aggregate across machines.
//
// Wire format: every outbound connection opens with the codec-v2 preamble
// and then carries length-prefixed binary frames encoded with pooled
// buffers — no per-message reflection or allocation for the hot types.
// There is no other format: an inbound connection that opens with anything
// else is closed and counted under net.decode_errors. A frame body that
// fails to decode is counted there too and skipped — the length framing
// stays intact, so one malformed message never poisons the connection.
//
// Outbound delivery is resilient: each peer has a dedicated writer with a
// bounded send queue. A broken connection is closed and redialed with
// exponential backoff plus jitter, and queued frames drain after the
// reconnect instead of being dropped on the first write error. Only when a
// frame exhausts its retry budget is the peer abandoned (to be freshly
// redialed by the next send) — edge churn is the common case, not the
// exception.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"totoro/internal/obs"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
)

// frame is the on-wire unit.
type frame struct {
	From transport.Addr
	Msg  any
}

// Config tunes the transport's resilience behavior. The zero value uses
// the defaults documented per field.
type Config struct {
	// DialTimeout bounds one connection attempt (default 3s).
	DialTimeout time.Duration
	// MaxRetries is how many consecutive failures (failed dials or failed
	// writes) one frame survives before the peer is abandoned (default 5).
	MaxRetries int
	// BaseBackoff is the first reconnect delay; it doubles per consecutive
	// failure (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the reconnect delay (default 2s).
	MaxBackoff time.Duration
	// QueueLen is the per-peer send queue depth; sends beyond it are
	// dropped and counted (default 256).
	QueueLen int
	// WriteTimeout bounds one frame write (default 10s).
	WriteTimeout time.Duration
	// MaxFrameBytes caps one inbound codec-v2 frame's claimed body length
	// (default codec.MaxFrameBytes). A frame claiming more is treated as a
	// framing error and the connection is dropped.
	MaxFrameBytes int
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 5
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.QueueLen == 0 {
		c.QueueLen = 256
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxFrameBytes == 0 {
		c.MaxFrameBytes = codec.MaxFrameBytes
	}
	return c
}

// peer is one outbound destination: a bounded frame queue drained by a
// dedicated writer goroutine that owns the destination's connection.
type peer struct {
	queue chan frame
	gone  chan struct{} // closed when the writer abandons the peer
}

// Node is one live endpoint: a listener plus outbound writers and a
// single-threaded event loop.
type Node struct {
	addr     transport.Addr
	cfg      Config
	listener net.Listener
	handler  transport.Handler
	start    time.Time
	rng      *rand.Rand

	events chan func()
	done   chan struct{}

	mu     sync.Mutex
	peers  map[transport.Addr]*peer
	seq    int64 // seeds per-writer jitter rngs
	rconns map[net.Conn]bool
	closed bool

	// reg is the node's telemetry registry (shared with the protocol stack
	// via Env.Metrics). reconnects ("tcpnet.reconnects") counts successful
	// redials of previously broken connections; droppedSends
	// ("tcpnet.dropped_sends") counts frames lost to full queues, an
	// exhausted retry budget, or a payload with no codec; decodeErrors
	// ("net.decode_errors") counts inbound frames whose body failed to
	// decode (skipped without killing the connection) and connections
	// closed over a framing violation: no codec-v2 preamble, or an oversized
	// length header. The net.* counters track real socket traffic under the same
	// names the simulator uses. Counters are safe from reader and writer
	// goroutines.
	reg          *obs.Registry
	reconnects   *obs.Counter
	droppedSends *obs.Counter
	decodeErrors *obs.Counter
	msgsIn       *obs.Counter
	msgsOut      *obs.Counter
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter

	closeOnce sync.Once
}

// Metrics returns the node's telemetry registry — the same one the
// protocol stack emits into via its Env. cmd/totoro-node serves it over
// HTTP with obs.RegistryHandler.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Listen starts a node on the given TCP address ("host:port") with default
// resilience settings. build receives the node's Env and returns its
// Handler (typically a totoro.Engine). The returned Node runs until Close.
func Listen(addr string, build func(transport.Env) transport.Handler) (*Node, error) {
	return ListenConfig(addr, Config{}, build)
}

// ListenConfig is Listen with explicit transport tuning.
func ListenConfig(addr string, cfg Config, build func(transport.Env) transport.Handler) (*Node, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	reg := obs.New(0)
	n := &Node{
		addr:         transport.Addr(l.Addr().String()),
		cfg:          cfg.withDefaults(),
		listener:     l,
		start:        time.Now(),
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
		events:       make(chan func(), 1024),
		done:         make(chan struct{}),
		peers:        make(map[transport.Addr]*peer),
		rconns:       make(map[net.Conn]bool),
		reg:          reg,
		reconnects:   reg.Counter("tcpnet.reconnects"),
		droppedSends: reg.Counter("tcpnet.dropped_sends"),
		decodeErrors: reg.Counter(transport.CtrDecodeErrors),
		msgsIn:       reg.Counter(transport.CtrMsgsIn),
		msgsOut:      reg.Counter(transport.CtrMsgsOut),
		bytesIn:      reg.Counter(transport.CtrBytesIn),
		bytesOut:     reg.Counter(transport.CtrBytesOut),
	}
	n.handler = build(n.env())
	go n.loop()
	go n.accept()
	return n, nil
}

// Addr returns the node's bound address.
func (n *Node) Addr() transport.Addr { return n.addr }

// Close shuts the node down. Writer goroutines observe done and close
// their connections on the way out; accepted inbound connections are
// closed here so remote senders see the failure instead of feeding a dead
// event loop.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.listener.Close()
		n.mu.Lock()
		n.closed = true
		for c := range n.rconns {
			c.Close()
		}
		n.mu.Unlock()
	})
}

// Do runs fn on the node's event loop and waits for it — the way external
// code (main functions, tests) safely calls Engine methods.
func (n *Node) Do(fn func()) {
	doneCh := make(chan struct{})
	select {
	case n.events <- func() { fn(); close(doneCh) }:
	case <-n.done:
		return
	}
	select {
	case <-doneCh:
	case <-n.done:
	}
}

// loop is the single-threaded event executor: every received message and
// every timer runs here, exactly like the simulator's event loop.
func (n *Node) loop() {
	for {
		select {
		case fn := <-n.events:
			fn()
		case <-n.done:
			return
		}
	}
}

func (n *Node) accept() {
	for {
		c, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.rconns[c] = true
		n.mu.Unlock()
		go n.readLoop(c)
	}
}

func (n *Node) readLoop(c net.Conn) {
	defer func() {
		n.mu.Lock()
		delete(n.rconns, c)
		n.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(&countingReader{r: c, ctr: n.bytesIn}, 32<<10)
	// Whatever does not open with the preamble is not a peer: refuse it
	// before parsing anything. A connection that ends first is churn.
	var head [len(codec.Preamble)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return
	}
	if head != codec.Preamble {
		n.decodeErrors.Inc()
		return
	}
	n.readV2(br)
}

// readV2 drains codec-v2 frames: uvarint body length + body. A body that
// fails to decode is counted and skipped — the length framing is still
// intact, so one malformed message never poisons the connection. Only a
// framing-level violation (unreadable or oversized length header) ends
// the stream.
func (n *Node) readV2(br *bufio.Reader) {
	var body []byte // reused across frames; decoded values never alias it
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		if size > uint64(n.cfg.MaxFrameBytes) {
			n.decodeErrors.Inc()
			return // the framing itself cannot be trusted anymore
		}
		if uint64(cap(body)) < size {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		from, msg, err := codec.DecodeFrame(body)
		if err != nil {
			n.decodeErrors.Inc()
			continue
		}
		n.msgsIn.Inc()
		select {
		case n.events <- func() { n.handler.Receive(from, msg) }:
		case <-n.done:
			return
		}
	}
}

// countingReader and countingWriter charge socket bytes to a counter as
// they pass through, giving live nodes the same net.bytes_in/out telemetry
// the simulator accounts virtually.
type countingReader struct {
	r   io.Reader
	ctr *obs.Counter
}

func (c *countingReader) Read(p []byte) (int, error) {
	m, err := c.r.Read(p)
	c.ctr.Add(int64(m))
	return m, err
}

type countingWriter struct {
	w   io.Writer
	ctr *obs.Counter
}

func (c *countingWriter) Write(p []byte) (int, error) {
	m, err := c.w.Write(p)
	c.ctr.Add(int64(m))
	return m, err
}

// env implements transport.Env backed by real time and sockets.
type tcpEnv struct{ n *Node }

func (n *Node) env() transport.Env { return &tcpEnv{n: n} }

func (e *tcpEnv) Self() transport.Addr   { return e.n.addr }
func (e *tcpEnv) Now() time.Duration     { return time.Since(e.n.start) }
func (e *tcpEnv) Rand() *rand.Rand       { return e.n.rng }
func (e *tcpEnv) Metrics() *obs.Registry { return e.n.reg }

func (e *tcpEnv) Send(to transport.Addr, msg any) {
	e.n.enqueue(to, frame{From: e.n.addr, Msg: msg})
}

func (e *tcpEnv) After(d time.Duration, fn func()) (cancel func()) {
	n := e.n
	stopped := make(chan struct{})
	var once sync.Once
	t := time.AfterFunc(d, func() {
		select {
		case <-stopped:
			return
		default:
		}
		select {
		case n.events <- fn:
		case <-n.done:
		}
	})
	return func() {
		once.Do(func() { close(stopped) })
		t.Stop()
	}
}

// enqueue hands a frame to the destination's writer, creating the peer
// (and its writer goroutine) on first use or after an abandonment. A full
// queue drops the frame: protocols see loss, never backpressure into the
// event loop.
func (n *Node) enqueue(to transport.Addr, f frame) {
	for {
		n.mu.Lock()
		p, ok := n.peers[to]
		if !ok {
			p = &peer{
				queue: make(chan frame, n.cfg.QueueLen),
				gone:  make(chan struct{}),
			}
			n.peers[to] = p
			n.seq++
			seed := n.seq
			go n.writeLoop(to, p, seed)
		}
		n.mu.Unlock()
		select {
		case p.queue <- f:
			return
		case <-p.gone:
			// The writer abandoned this peer while we held it; a fresh
			// peer (with a fresh retry budget) replaces it.
			continue
		default:
			n.droppedSends.Inc()
			return
		}
	}
}

// writeLoop owns one destination: it drains the peer's queue, dialing and
// redialing as needed. One frame is retried up to MaxRetries consecutive
// failures with exponential backoff before the peer is abandoned; any
// success resets the budget.
//
// The frame body is encoded once into a pooled buffer before any socket
// work, so a redial retries the already-encoded bytes, and an encode
// failure (a payload with no codec) drops just that frame — it is
// deterministic, so retrying or tearing the connection down would not help.
func (n *Node) writeLoop(to transport.Addr, p *peer, seed int64) {
	var conn net.Conn
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	rng := rand.New(rand.NewSource(seed ^ time.Now().UnixNano()))
	hadConn := false
	fails := 0
	for {
		var f frame
		select {
		case f = <-p.queue:
		case <-n.done:
			return
		}
		enc := codec.NewEnc()
		if err := codec.EncodeFrame(enc, f.From, f.Msg); err != nil {
			enc.Free()
			n.droppedSends.Inc()
			continue
		}
		for {
			if conn == nil {
				c, err := net.DialTimeout("tcp", string(to), n.cfg.DialTimeout)
				if err != nil {
					fails++
					if fails > n.cfg.MaxRetries {
						enc.Free()
						n.abandon(to, p, 1)
						return
					}
					if !n.sleepBackoff(rng, fails) {
						enc.Free()
						return
					}
					continue
				}
				conn = c
				bw = bufio.NewWriterSize(&countingWriter{w: conn, ctr: n.bytesOut}, 32<<10)
				bw.Write(codec.Preamble[:]) // flushed with the first frame
				if hadConn {
					n.reconnects.Inc()
				}
				hadConn = true
			}
			conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
			if err := writeV2Frame(bw, enc.Bytes()); err == nil {
				enc.Free()
				n.msgsOut.Inc()
				fails = 0
				break
			}
			// A failed write leaves the stream mid-frame. Close the
			// connection and retry this frame on a fresh dial (its body is
			// still encoded in enc).
			conn.Close()
			conn, bw = nil, nil
			fails++
			if fails > n.cfg.MaxRetries {
				enc.Free()
				n.abandon(to, p, 1)
				return
			}
			if !n.sleepBackoff(rng, fails) {
				enc.Free()
				return
			}
		}
	}
}

// writeV2Frame writes one length-prefixed codec-v2 frame and flushes it.
func writeV2Frame(bw *bufio.Writer, body []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(body)))
	if _, err := bw.Write(hdr[:hn]); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	return bw.Flush()
}

// abandon retires a peer whose retry budget ran out: it is removed from
// the map (so a later send starts over with a fresh writer) and its queued
// frames are counted as dropped. inFlight is the frame the writer was
// holding when it gave up.
func (n *Node) abandon(to transport.Addr, p *peer, inFlight int) {
	n.mu.Lock()
	if cur, ok := n.peers[to]; ok && cur == p {
		delete(n.peers, to)
	}
	n.mu.Unlock()
	close(p.gone)
	dropped := int64(inFlight)
	for {
		select {
		case <-p.queue:
			dropped++
		default:
			n.droppedSends.Add(dropped)
			return
		}
	}
}

// sleepBackoff waits the exponential-backoff delay for the given failure
// count, with jitter in [d/2, d). It reports false if the node closed
// while waiting.
func (n *Node) sleepBackoff(rng *rand.Rand, fails int) bool {
	d := n.cfg.BaseBackoff << uint(fails-1)
	if d <= 0 || d > n.cfg.MaxBackoff {
		d = n.cfg.MaxBackoff
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-n.done:
		return false
	}
}
