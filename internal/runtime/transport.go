// Package runtime executes the HC3I protocol live: one goroutine per
// federation node, real wall-clock timers and a pluggable transport
// (in-process channels, or TCP with the envelope codec of wire.go). It
// drives exactly the same core.Node state machine as the discrete
// event simulator — none of the protocol logic is simulation-specific —
// and exists to validate the protocol under genuine concurrency and a
// real network stack ("We need to implement the protocol on a real
// system to validate it", §7).
//
// A federation can span OS processes: every node runs in the process
// that Registers it, the TCP transport carries traffic between
// processes from a static address map (see TCPConfig.Addrs and
// cmd/hc3id), and crashed daemons rejoin by announcing themselves
// (Hello) so a surviving peer can trigger the protocol's failure
// handling.
package runtime

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// Envelope is one message on the wire.
type Envelope struct {
	Src topology.NodeID
	Dst topology.NodeID
	Msg core.Msg
}

// Hello is the runtime-level rejoin announcement: a node that boots
// with lost state (a restarted daemon) broadcasts it to its cluster so
// a surviving peer can run the failure detector against it. It is not
// a protocol message — the live runtime intercepts it before core.
type Hello struct {
	From topology.NodeID
	// LostState marks a crash-recovery boot (the sender waits for its
	// cluster's RollbackCmd); false is a plain liveness announcement.
	LostState bool
}

// ProtocolMessage lets Hello travel in an Envelope.
func (Hello) ProtocolMessage() {}

// Transport moves envelopes between live nodes. Deliveries for one
// (src, dst) pair must stay FIFO while the pair's connection lasts;
// after a disconnect, FIFO holds per reconnect epoch.
type Transport interface {
	// Register installs the delivery callback for a node hosted in
	// this process; must be called for every local node before Start.
	Register(id topology.NodeID, deliver func(Envelope)) error
	// Send transmits an envelope (asynchronously). An error reports a
	// message that was definitely not sent (unknown destination, full
	// queue); nil means "accepted", not "delivered".
	Send(env Envelope) error
	// SetDown cuts a node off (fail-stop): traffic from and to it is
	// dropped.
	SetDown(id topology.NodeID, down bool)
	// Close releases transport resources.
	Close() error
}

// ---- in-process channel transport ----

// ChanTransport delivers envelopes through per-node FIFO queues inside
// one process.
type ChanTransport struct {
	mu      sync.RWMutex
	inboxes map[topology.NodeID]chan Envelope
	down    map[topology.NodeID]bool
	wg      sync.WaitGroup
	closed  bool
}

// NewChanTransport returns an empty channel transport.
func NewChanTransport() *ChanTransport {
	return &ChanTransport{
		inboxes: make(map[topology.NodeID]chan Envelope),
		down:    make(map[topology.NodeID]bool),
	}
}

// Register installs a node's delivery callback.
func (t *ChanTransport) Register(id topology.NodeID, deliver func(Envelope)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("runtime: transport closed")
	}
	if _, dup := t.inboxes[id]; dup {
		return fmt.Errorf("runtime: duplicate registration for %v", id)
	}
	ch := make(chan Envelope, 4096)
	t.inboxes[id] = ch
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for env := range ch {
			deliver(env)
		}
	}()
	return nil
}

// Send enqueues an envelope for delivery.
func (t *ChanTransport) Send(env Envelope) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed || t.down[env.Src] || t.down[env.Dst] {
		return nil // fail-stop semantics: traffic vanishes silently
	}
	ch, ok := t.inboxes[env.Dst]
	if !ok {
		return fmt.Errorf("runtime: no such node %v", env.Dst)
	}
	ch <- env
	return nil
}

// SetDown cuts a node off or reconnects it.
func (t *ChanTransport) SetDown(id topology.NodeID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if down {
		t.down[id] = true
	} else {
		delete(t.down, id)
	}
}

// Close drains and stops delivery goroutines.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, ch := range t.inboxes {
		close(ch)
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// ---- TCP transport ----

// TCPConfig parameterizes the hardened TCP transport. The zero value
// is the in-process loopback configuration every Register picks a free
// port for; daemons supply Addrs for a static multi-process topology.
type TCPConfig struct {
	// Addrs is the federation's static address map (every node of the
	// topology, local and remote). Nil selects loopback auto-assign
	// mode: addresses exist only for nodes Registered in this process.
	Addrs map[topology.NodeID]string
	// DialTimeout bounds one connection attempt (default 250 ms).
	DialTimeout time.Duration
	// SendDeadline is the per-envelope budget across redials and the
	// write itself; past it the envelope is dropped and counted
	// (default 2 s).
	SendDeadline time.Duration
	// QueueLen bounds each (src, dst) sender queue (default 1024);
	// Send fails fast when the queue is full instead of blocking the
	// protocol goroutine.
	QueueLen int
	// BackoffMin/BackoffMax bound the jittered exponential redial
	// backoff (defaults 5 ms / 250 ms).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// SuspectAfter is how long a peer must stay unreachable before
	// OnSuspect fires (default 1.5 s; 0 with a nil OnSuspect disables
	// suspicion).
	SuspectAfter time.Duration
	// OnSuspect fires once per outage episode, from a sender
	// goroutine, when a peer has been unreachable for SuspectAfter.
	// The live runtime routes it into the node's fail-stop handling.
	OnSuspect func(peer topology.NodeID)
	// Stat, when non-nil, receives transport counters
	// (transport.dropped, transport.redials, transport.evictions,
	// transport.send_errors, transport.queue_full, transport.suspects).
	Stat func(name string, delta uint64)
}

func (c *TCPConfig) fill() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 250 * time.Millisecond
	}
	if c.SendDeadline == 0 {
		c.SendDeadline = 2 * time.Second
	}
	if c.QueueLen == 0 {
		c.QueueLen = 1024
	}
	if c.BackoffMin == 0 {
		c.BackoffMin = 5 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 1500 * time.Millisecond
	}
}

// TCPTransport delivers envelopes over TCP connections in the wire
// format of wire.go: one listener per local node, one sender goroutine
// with a bounded queue per (src, dst) pair (which gives pairwise FIFO
// per connection epoch), one frame per conn.Write. Broken connections
// are evicted and redialed with jittered exponential backoff under a
// per-send deadline; a peer that stays unreachable is reported through
// OnSuspect instead of blocking the protocol or failing silently.
type TCPTransport struct {
	cfg TCPConfig

	mu      sync.Mutex
	addrs   map[topology.NodeID]string
	lns     map[topology.NodeID]net.Listener
	senders map[[2]topology.NodeID]*peerSender
	conns   map[net.Conn]struct{}
	down    map[topology.NodeID]bool
	stats   map[string]uint64
	wg      sync.WaitGroup
	closed  bool
	stop    chan struct{}
}

// NewTCPTransport returns a loopback TCP transport for in-process
// federations: every Register listens on 127.0.0.1 with an
// auto-assigned port.
func NewTCPTransport() *TCPTransport { return NewTCPTransportWith(TCPConfig{}) }

// NewTCPTransportWith returns a TCP transport with an explicit
// configuration; supply Addrs to span processes.
func NewTCPTransportWith(cfg TCPConfig) *TCPTransport {
	cfg.fill()
	t := &TCPTransport{
		cfg:     cfg,
		addrs:   make(map[topology.NodeID]string),
		lns:     make(map[topology.NodeID]net.Listener),
		senders: make(map[[2]topology.NodeID]*peerSender),
		conns:   make(map[net.Conn]struct{}),
		down:    make(map[topology.NodeID]bool),
		stats:   make(map[string]uint64),
		stop:    make(chan struct{}),
	}
	for id, addr := range cfg.Addrs {
		t.addrs[id] = addr
	}
	return t
}

// SetStat installs the counter sink when none was configured (the live
// federation wires its stats table in at Start).
func (t *TCPTransport) SetStat(fn func(name string, delta uint64)) {
	t.mu.Lock()
	if t.cfg.Stat == nil {
		t.cfg.Stat = fn
	}
	t.mu.Unlock()
}

// SetOnSuspect installs the failure-suspicion callback when none was
// configured.
func (t *TCPTransport) SetOnSuspect(fn func(peer topology.NodeID)) {
	t.mu.Lock()
	if t.cfg.OnSuspect == nil {
		t.cfg.OnSuspect = fn
	}
	t.mu.Unlock()
}

func (t *TCPTransport) stat(name string, delta uint64) {
	t.mu.Lock()
	t.stats[name] += delta
	fn := t.cfg.Stat
	t.mu.Unlock()
	if fn != nil {
		fn(name, delta)
	}
}

// Stats snapshots the transport's internal counters.
func (t *TCPTransport) Stats() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.stats))
	for k, v := range t.stats {
		out[k] = v
	}
	return out
}

// Addr reports the listen (or configured) address of a node, empty if
// unknown.
func (t *TCPTransport) Addr(id topology.NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[id]
}

// Register opens the node's listener and starts its accept loop.
func (t *TCPTransport) Register(id topology.NodeID, deliver func(Envelope)) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("runtime: transport closed")
	}
	if _, dup := t.lns[id]; dup {
		t.mu.Unlock()
		return fmt.Errorf("runtime: duplicate registration for %v", id)
	}
	listenAddr := "127.0.0.1:0"
	if t.cfg.Addrs != nil {
		addr, ok := t.cfg.Addrs[id]
		if !ok {
			t.mu.Unlock()
			return fmt.Errorf("runtime: node %v missing from the transport address map", id)
		}
		listenAddr = addr
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("runtime: listen %v on %s: %w", id, listenAddr, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return fmt.Errorf("runtime: transport closed")
	}
	t.addrs[id] = ln.Addr().String()
	t.lns[id] = ln
	t.mu.Unlock()

	t.wg.Add(1)
	go t.acceptLoop(ln, deliver)
	return nil
}

// acceptLoop accepts inbound connections for one local node. Each
// connection gets its own reader goroutine; a wrong preamble or a read
// or decode error (torn frame, hostile bytes, peer death) closes that
// connection only — the accept loop keeps serving fresh connections.
func (t *TCPTransport) acceptLoop(ln net.Listener, deliver func(Envelope)) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.dropConn(conn)
			br := bufio.NewReader(conn)
			if !readPreamble(br) {
				return // not this wire format: this conn only
			}
			var body []byte
			for {
				var err error
				if body, err = readFrame(br, body); err != nil {
					return // torn frame or closed peer: this conn only
				}
				env, err := decodeEnvelope(body)
				if err != nil {
					return // hostile or corrupt frame: this conn only
				}
				t.mu.Lock()
				drop := t.down[env.Src] || t.down[env.Dst]
				t.mu.Unlock()
				if !drop {
					deliver(env)
				}
			}
		}()
	}
}

// dropConn closes and forgets one connection.
func (t *TCPTransport) dropConn(conn net.Conn) {
	conn.Close()
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// timedEnv is one queued envelope with its acceptance time, the anchor
// of its send deadline.
type timedEnv struct {
	env Envelope
	at  time.Time
}

// peerSender owns all traffic of one (src, dst) pair: a single
// goroutine draining a bounded queue through one connection, so FIFO
// holds per connection epoch by construction. Connection state and the
// outage clock are goroutine-local — no lock is held across Dial or
// Write.
type peerSender struct {
	t        *TCPTransport
	src, dst topology.NodeID
	ch       chan timedEnv

	conn  net.Conn
	fresh bool   // conn has not carried its preamble yet
	buf   []byte // reused encoding buffer: preamble, then one frame

	rng       uint64
	downSince time.Time
	suspected bool
}

// Send hands the envelope to the pair's sender goroutine. It never
// blocks: a full queue is an error the caller hears about (and a
// transport.queue_full count), not a stall of the protocol loop.
func (t *TCPTransport) Send(env Envelope) error {
	t.mu.Lock()
	if t.closed || t.down[env.Src] || t.down[env.Dst] {
		t.mu.Unlock()
		return nil // fail-stop semantics: traffic vanishes silently
	}
	key := [2]topology.NodeID{env.Src, env.Dst}
	ps, ok := t.senders[key]
	if !ok {
		if _, known := t.addrs[env.Dst]; !known {
			t.mu.Unlock()
			return fmt.Errorf("runtime: no such node %v", env.Dst)
		}
		ps = &peerSender{
			t:   t,
			src: env.Src,
			dst: env.Dst,
			ch:  make(chan timedEnv, t.cfg.QueueLen),
			rng: uint64(env.Src.Index*73856093+env.Dst.Index*19349663) +
				uint64(env.Src.Cluster)<<32 + uint64(env.Dst.Cluster)<<40 + 0x9e3779b97f4a7c15,
		}
		t.senders[key] = ps
		t.wg.Add(1)
		go ps.run()
	}
	t.mu.Unlock()

	select {
	case ps.ch <- timedEnv{env: env, at: time.Now()}:
		return nil
	default:
		t.stat("transport.queue_full", 1)
		t.stat("transport.dropped", 1)
		return fmt.Errorf("runtime: send queue %v->%v full", env.Src, env.Dst)
	}
}

func (ps *peerSender) run() {
	defer ps.t.wg.Done()
	defer ps.evict(false)
	for {
		select {
		case <-ps.t.stop:
			return
		case te := <-ps.ch:
			if !ps.deliver(te) {
				return // transport closing
			}
		}
	}
}

// deliver pushes one envelope through the pair's connection, dialing
// and redialing under the envelope's deadline. It returns false only
// when the transport is shutting down.
func (ps *peerSender) deliver(te timedEnv) bool {
	deadline := te.at.Add(ps.t.cfg.SendDeadline)
	if time.Now().After(deadline) {
		// Expired while queued behind an outage backlog. Dropping here —
		// before touching the connection — drains a deep backlog in O(1)
		// per stale envelope instead of a dial/evict cycle for each,
		// which is what stands between a returning peer and the fresh
		// traffic (a RollbackCmd, say) queued behind the backlog.
		ps.t.stat("transport.dropped", 1)
		return true
	}
	// The frame is encoded once, behind room for the preamble a fresh
	// connection needs, and written whole per attempt.
	frame, err := appendFrame(append(ps.buf[:0], wirePreamble[:]...), te.env)
	ps.buf = frame
	if err != nil {
		// No connection will ever carry it: drop it now.
		ps.t.stat("transport.send_errors", 1)
		ps.t.stat("transport.dropped", 1)
		return true
	}
	backoff := ps.t.cfg.BackoffMin
	for {
		ps.t.mu.Lock()
		gone := ps.t.closed || ps.t.down[ps.src] || ps.t.down[ps.dst]
		addr := ps.t.addrs[ps.dst]
		ps.t.mu.Unlock()
		if gone {
			return !ps.t.isClosed()
		}
		if ps.conn == nil {
			conn, err := net.DialTimeout("tcp", addr, ps.t.cfg.DialTimeout)
			if err != nil {
				ps.t.stat("transport.redials", 1)
				ps.noteFailure(te.at)
				if time.Now().After(deadline) {
					ps.t.stat("transport.dropped", 1)
					return true
				}
				if !ps.pause(backoff) {
					return false
				}
				backoff = ps.nextBackoff(backoff)
				continue
			}
			ps.t.mu.Lock()
			ps.t.conns[conn] = struct{}{}
			ps.t.mu.Unlock()
			ps.conn = conn
			ps.fresh = true
		}
		out := frame
		if !ps.fresh {
			out = frame[len(wirePreamble):]
		}
		ps.conn.SetWriteDeadline(deadline)
		if _, err := ps.conn.Write(out); err != nil {
			// A failed write may have torn the frame: evict the
			// connection so the next attempt redials and resends whole.
			ps.evict(true)
			ps.t.stat("transport.send_errors", 1)
			ps.noteFailure(te.at)
			if time.Now().After(deadline) {
				ps.t.stat("transport.dropped", 1)
				return true
			}
			if !ps.pause(backoff) {
				return false
			}
			backoff = ps.nextBackoff(backoff)
			continue
		}
		ps.conn.SetWriteDeadline(time.Time{})
		ps.fresh = false
		ps.noteSuccess()
		return true
	}
}

// evict closes and forgets the pair's connection (counted when it died
// rather than being shut down).
func (ps *peerSender) evict(count bool) {
	if ps.conn == nil {
		return
	}
	ps.t.dropConn(ps.conn)
	ps.conn = nil
	if count {
		ps.t.stat("transport.evictions", 1)
	}
}

// noteFailure starts (or continues) the pair's outage episode and
// fires the suspicion callback once the peer has been unreachable for
// SuspectAfter.
func (ps *peerSender) noteFailure(at time.Time) {
	if ps.downSince.IsZero() {
		ps.downSince = at
	}
	if !ps.suspected && ps.t.cfg.OnSuspect != nil &&
		time.Since(ps.downSince) >= ps.t.cfg.SuspectAfter {
		ps.suspected = true
		ps.t.stat("transport.suspects", 1)
		ps.t.cfg.OnSuspect(ps.dst)
	}
}

// noteSuccess ends the pair's outage episode.
func (ps *peerSender) noteSuccess() {
	ps.downSince = time.Time{}
	ps.suspected = false
}

// nextBackoff doubles the backoff up to the configured ceiling.
func (ps *peerSender) nextBackoff(cur time.Duration) time.Duration {
	next := cur * 2
	if next > ps.t.cfg.BackoffMax {
		next = ps.t.cfg.BackoffMax
	}
	return next
}

// pause sleeps a jittered backoff (uniform in [d/2, d]), interruptible
// by transport shutdown; false means the transport is closing.
func (ps *peerSender) pause(d time.Duration) bool {
	x := ps.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ps.rng = x
	jittered := d/2 + time.Duration(x%uint64(d/2+1))
	timer := time.NewTimer(jittered)
	defer timer.Stop()
	select {
	case <-ps.t.stop:
		return false
	case <-timer.C:
		return true
	}
}

func (t *TCPTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// SetDown cuts a node off or reconnects it.
func (t *TCPTransport) SetDown(id topology.NodeID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if down {
		t.down[id] = true
	} else {
		delete(t.down, id)
	}
}

// Close shuts listeners, connections and sender goroutines down.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	for _, ln := range t.lns {
		ln.Close()
	}
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
