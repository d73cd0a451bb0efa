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
	"maps"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
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
	// queue); nil means "accepted", not "delivered". An accepted pooled
	// box (*core.AppMsg, *core.AppAck) is the transport's: the sender
	// must not touch it again (see boxes.go).
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
	// DialTimeout bounds one connection attempt, the stream handshake
	// included (default 250 ms).
	DialTimeout time.Duration
	// SendDeadline bounds how long an envelope may wait for a
	// transmission: queued behind others or an outage, or owed a resend
	// because its connection broke before the receiver acknowledged it.
	// Past it the envelope is dropped and counted (default 2 s). A frame
	// written on a connection that stays healthy is never dropped,
	// however late its acknowledgement.
	SendDeadline time.Duration
	// QueueLen bounds each (src, dst) sender queue, and separately its
	// window of written but unacknowledged frames (default 1024); Send
	// fails fast when the queue is full instead of blocking the
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
	// transport.send_errors, transport.queue_full, transport.suspects,
	// transport.resent, transport.writes).
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

// StreamOpen is the first frame of every dialled connection. Stream
// names the sending transport incarnation (a restarted sender opens a
// new stream, which no receiver confuses with the old one); Next is the
// sequence number of the connection's first data frame, and each later
// frame is numbered by its position, so data frames carry no sequence
// bytes.
type StreamOpen struct {
	Stream uint64
	Next   uint64
}

// StreamAck travels back on the same connection: once in reply to the
// StreamOpen, then once per read burst. Seq is cumulative: every frame
// of the stream up to Seq was delivered (or discarded for a down
// endpoint). Fresh marks a reply from a receiver that had no record of
// the stream — a successor incarnation, to which frames written to its
// predecessor must never be delivered.
type StreamAck struct {
	Stream uint64
	Seq    uint64
	Fresh  bool
}

// ProtocolMessage lets StreamOpen travel in an Envelope.
func (StreamOpen) ProtocolMessage() {}

// ProtocolMessage lets StreamAck travel in an Envelope.
func (StreamAck) ProtocolMessage() {}

// TCPTransport delivers envelopes over TCP connections in the wire
// format of wire.go: one listener per local node, and one sender
// goroutine per (src, dst) pair that drains its bounded queue into
// batches of frames, one conn.Write per batch.
//
// Each pair's traffic is one numbered stream that outlives its
// connections. A connection opens with StreamOpen; the receiver
// delivers a frame only if its number is above the last one it
// delivered on the stream, and acknowledges cumulatively once per read
// burst. The sender keeps what it wrote until it is acknowledged, so
// when a connection breaks between two live processes it redials and
// resends, and the receiver's record turns the resend into exactly-once
// FIFO delivery. A receiver that restarted answers with no record of
// the stream (StreamAck.Fresh): what was written to its predecessor is
// dropped and counted, never delivered to the successor (fail-stop).
// Redials use jittered exponential backoff; a frame still owed a
// transmission past SendDeadline is dropped and counted, and a peer
// that stays unreachable is reported through OnSuspect instead of
// blocking the protocol or failing silently.
type TCPTransport struct {
	cfg TCPConfig
	// stream is this incarnation's stream ID, shared by its senders:
	// a receiver keys its records by (src, dst) pair.
	stream uint64
	// view is the state every envelope consults, read with one atomic
	// load: no lock on the per-frame path.
	view atomic.Pointer[tcpView]

	mu      sync.Mutex // guards the fields below and every view update
	addrs   map[topology.NodeID]string
	lns     map[topology.NodeID]net.Listener
	conns   map[net.Conn]struct{}
	streams map[[2]topology.NodeID]*streamRec
	stats   map[string]uint64
	wg      sync.WaitGroup
	stop    chan struct{}
}

// tcpView is the transport's read-mostly state. It is never modified:
// an update copies it under TCPTransport.mu and publishes the copy, so
// SetDown takes effect for the very next frame.
type tcpView struct {
	closed  bool
	down    map[topology.NodeID]bool
	senders map[[2]topology.NodeID]*peerSender
}

// gone reports that traffic between src and dst vanishes (fail-stop).
func (v *tcpView) gone(src, dst topology.NodeID) bool {
	return v.closed || v.down[src] || v.down[dst]
}

// update publishes a copy of the view changed by fn; the caller holds
// t.mu.
func (t *TCPTransport) update(fn func(v *tcpView)) {
	old := t.view.Load()
	v := &tcpView{closed: old.closed, down: maps.Clone(old.down), senders: maps.Clone(old.senders)}
	fn(v)
	t.view.Store(v)
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
		stream:  rand.Uint64(),
		addrs:   make(map[topology.NodeID]string),
		lns:     make(map[topology.NodeID]net.Listener),
		conns:   make(map[net.Conn]struct{}),
		streams: make(map[[2]topology.NodeID]*streamRec),
		stats:   make(map[string]uint64),
		stop:    make(chan struct{}),
	}
	t.view.Store(&tcpView{
		down:    make(map[topology.NodeID]bool),
		senders: make(map[[2]topology.NodeID]*peerSender),
	})
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
	return maps.Clone(t.stats)
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
	if t.view.Load().closed {
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
	if t.view.Load().closed {
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
// connection gets its own reader goroutine; a wrong preamble, a read or
// decode error (torn frame, hostile bytes, peer death) or a frame out
// of protocol closes that connection only — the accept loop keeps
// serving fresh connections.
func (t *TCPTransport) acceptLoop(ln net.Listener, deliver func(Envelope)) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(conn) {
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.dropConn(conn)
			t.serve(conn, deliver)
		}()
	}
}

// track records a connection for Close; false (and the connection
// closed) when the transport already closed.
func (t *TCPTransport) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.view.Load().closed {
		conn.Close()
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// dropConn closes and forgets one connection.
func (t *TCPTransport) dropConn(conn net.Conn) {
	conn.Close()
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// streamRec is a receiver's record of one (src, dst) stream. Frames
// are delivered under mu, deliver callback included: an old connection
// still draining its buffer and a new one resending the same frames
// then deliver none of them twice or out of order. deliver must not
// wait on the transport's receive path.
type streamRec struct {
	mu     sync.Mutex
	stream uint64
	last   atomic.Uint64 // highest sequence number delivered; written under mu
}

// openStream returns the record a StreamOpen names, creating it (fresh)
// when this incarnation has none or the pair's sender restarted with a
// new stream.
func (t *TCPTransport) openStream(src, dst topology.NodeID, open StreamOpen) (*streamRec, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]topology.NodeID{src, dst}
	if rec := t.streams[key]; rec != nil && rec.stream == open.Stream {
		return rec, false
	}
	rec := &streamRec{stream: open.Stream}
	rec.last.Store(open.Next - 1)
	t.streams[key] = rec
	return rec, true
}

// serve reads one inbound connection: the preamble, the StreamOpen
// (answered at once), then data frames numbered from its Next. Each
// frame above the stream's last delivered one is delivered — unless an
// endpoint is down, in which case it is consumed silently — and
// whenever the read buffer runs dry the cumulative StreamAck goes back.
func (t *TCPTransport) serve(conn net.Conn, deliver func(Envelope)) {
	br := bufio.NewReader(conn)
	if !readPreamble(br) {
		return // not this wire format
	}
	body, err := readFrame(br, nil)
	if err != nil {
		return
	}
	env, err := decodeEnvelope(body)
	open, ok := env.Msg.(StreamOpen)
	if err != nil || !ok || open.Next == 0 {
		return // a stream must open first
	}
	src, dst := env.Src, env.Dst
	rec, fresh := t.openStream(src, dst, open)
	var out []byte
	ack := func(seq uint64, fresh bool) bool {
		out, _ = appendFrame(out[:0], Envelope{Src: src, Dst: dst,
			Msg: StreamAck{Stream: open.Stream, Seq: seq, Fresh: fresh}})
		_, err := conn.Write(out)
		return err == nil
	}
	acked := rec.last.Load()
	if !ack(acked, fresh) {
		return
	}
	for seq := open.Next; ; seq++ {
		if body, err = readFrame(br, body); err != nil {
			return // torn frame or closed peer
		}
		env, err := decodeEnvelope(body)
		if err != nil || env.Src != src || env.Dst != dst {
			return // hostile, corrupt or foreign frame
		}
		switch env.Msg.(type) {
		case StreamOpen, StreamAck:
			return // out of protocol
		}
		rec.mu.Lock()
		if seq > rec.last.Load() {
			rec.last.Store(seq)
			if !t.view.Load().gone(src, dst) {
				deliver(env)
			}
		}
		last := rec.last.Load()
		rec.mu.Unlock()
		if br.Buffered() == 0 && last != acked {
			if !ack(last, false) {
				return
			}
			acked = last
		}
	}
}

// timedEnv is one accepted envelope with its acceptance time, the
// anchor of its send deadline.
type timedEnv struct {
	env Envelope
	at  time.Time
}

// A batch — one conn.Write — holds at most maxBatchFrames frames and
// takes no further frame once it holds maxBatchBytes.
const (
	maxBatchFrames = 256
	maxBatchBytes  = 64 << 10
)

// peerSender owns all traffic of one (src, dst) pair: a single
// goroutine moving envelopes from a bounded queue into its window, and
// writing the window's unsent frames in batches through one connection
// at a time. The window holds every frame not yet acknowledged, so a
// broken connection's loss is resent on the next one; a small reader
// goroutine per connection takes the acknowledgements, and its EOF or
// reset evicts the connection at once. Connection state, the window and
// the outage clock are goroutine-local — no lock is held across Dial or
// Write.
type peerSender struct {
	t        *TCPTransport
	src, dst topology.NodeID
	ch       chan timedEnv
	wake     chan struct{} // poked by the ack reader

	// The window: a ring of the frames numbered base, base+1, ...,
	// base+n-1, bounded by QueueLen.
	win     []timedEnv
	head, n int
	base    uint64
	// wroteHi is one past the highest frame ever written whole: frames
	// below it may have reached the receiver.
	wroteHi uint64

	conn *streamConn // nil while disconnected
	next uint64      // number of the next frame conn carries
	buf  []byte      // reused encoding buffer: one batch
	ends []int       // end offset in buf of each frame of the batch

	backoff   time.Duration
	rng       uint64
	downSince time.Time
	suspected bool
}

// streamConn is a dialled connection with what its ack reader learnt.
type streamConn struct {
	net.Conn
	acked atomic.Uint64 // cumulative: the receiver delivered up to here
	dead  atomic.Bool   // the ack reader saw the connection end
}

// Send hands the envelope to the pair's sender goroutine. It never
// blocks: a full queue is an error the caller hears about (and a
// transport.queue_full count), not a stall of the protocol loop.
func (t *TCPTransport) Send(env Envelope) error {
	v := t.view.Load()
	if v.gone(env.Src, env.Dst) {
		return nil // fail-stop semantics: traffic vanishes silently
	}
	ps := v.senders[[2]topology.NodeID{env.Src, env.Dst}]
	if ps == nil {
		var err error
		if ps, err = t.sender(env.Src, env.Dst); ps == nil {
			return err
		}
	}
	select {
	case ps.ch <- timedEnv{env: env, at: time.Now()}:
		return nil
	default:
		t.stat("transport.queue_full", 1)
		t.stat("transport.dropped", 1)
		return fmt.Errorf("runtime: send queue %v->%v full", env.Src, env.Dst)
	}
}

// sender returns the pair's sender, starting it on first use; nil with
// a nil error when the transport closed meanwhile.
func (t *TCPTransport) sender(src, dst topology.NodeID) (*peerSender, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]topology.NodeID{src, dst}
	v := t.view.Load()
	if v.closed {
		return nil, nil
	}
	if ps := v.senders[key]; ps != nil {
		return ps, nil
	}
	if _, known := t.addrs[dst]; !known {
		return nil, fmt.Errorf("runtime: no such node %v", dst)
	}
	ps := &peerSender{
		t:       t,
		src:     src,
		dst:     dst,
		ch:      make(chan timedEnv, t.cfg.QueueLen),
		wake:    make(chan struct{}, 1),
		win:     make([]timedEnv, t.cfg.QueueLen),
		base:    1,
		wroteHi: 1,
		backoff: t.cfg.BackoffMin,
		rng: uint64(src.Index*73856093+dst.Index*19349663) +
			uint64(src.Cluster)<<32 + uint64(dst.Cluster)<<40 + 0x9e3779b97f4a7c15,
	}
	t.update(func(v *tcpView) { v.senders[key] = ps })
	t.wg.Add(1)
	go ps.run()
	return ps, nil
}

func (ps *peerSender) run() {
	defer ps.t.wg.Done()
	defer ps.evict(false)
	for {
		v := ps.t.view.Load()
		if v.closed {
			return
		}
		ps.absorb()
		ps.fill()
		if v.gone(ps.src, ps.dst) {
			ps.discard()
		} else if ps.unsent() {
			if !ps.transmit() {
				return // transport closing
			}
			continue
		}
		// Nothing to transmit: wait for an envelope (if the window has
		// room), an acknowledgement or shutdown.
		in := ps.ch
		if ps.n == len(ps.win) {
			in = nil
		}
		select {
		case <-ps.t.stop:
			return
		case te := <-in:
			ps.admit(te, time.Now())
		case <-ps.wake:
		}
	}
}

// at returns the window's i-th frame (number base+i).
func (ps *peerSender) at(i int) *timedEnv { return &ps.win[(ps.head+i)%len(ps.win)] }

// popFront removes the window's first k frames without renumbering:
// the frames behind them take their numbers. A frame leaves the window
// only for good, so its pooled box goes back here (see boxes.go).
func (ps *peerSender) popFront(k int) {
	for ; k > 0; k-- {
		reclaim(ps.at(0).env.Msg)
		*ps.at(0) = timedEnv{}
		ps.head = (ps.head + 1) % len(ps.win)
		ps.n--
	}
}

// release removes the window's first k frames, delivered or given up;
// the numbering moves past them.
func (ps *peerSender) release(k int) {
	ps.popFront(k)
	ps.base += uint64(k)
	ps.wroteHi = max(ps.wroteHi, ps.base)
}

// truncate releases every frame from the window's i-th on.
func (ps *peerSender) truncate(i int) {
	for ; ps.n > i; ps.n-- {
		reclaim(ps.at(ps.n - 1).env.Msg)
		*ps.at(ps.n - 1) = timedEnv{}
	}
}

// unsent reports frames owed a (re)transmission: all of the window
// while disconnected, those past next on a connection.
func (ps *peerSender) unsent() bool {
	if ps.conn == nil {
		return ps.n > 0
	}
	return ps.next < ps.base+uint64(ps.n)
}

// admit moves one accepted envelope into the window. One that expired
// while queued behind an outage backlog drops here, before touching the
// connection — O(1) per stale envelope instead of a dial/evict cycle
// each, which is what stands between a returning peer and the fresh
// traffic (a RollbackCmd, say) queued behind the backlog.
func (ps *peerSender) admit(te timedEnv, now time.Time) {
	if now.After(te.at.Add(ps.t.cfg.SendDeadline)) {
		ps.t.stat("transport.dropped", 1)
		reclaim(te.env.Msg)
		return
	}
	*ps.at(ps.n) = te
	ps.n++
}

// fill moves queued envelopes into the window while it has room.
func (ps *peerSender) fill() {
	now := time.Now()
	for ps.n < len(ps.win) {
		select {
		case te := <-ps.ch:
			ps.admit(te, now)
		default:
			return
		}
	}
}

// absorb releases what the connection's receiver acknowledged — only
// frames this connection carried, since the window's numbering of the
// rest is still the sender's — and evicts a connection whose ack
// reader saw it end.
func (ps *peerSender) absorb() {
	sc := ps.conn
	if sc == nil {
		return
	}
	if a := min(sc.acked.Load(), ps.next-1); a >= ps.base {
		ps.release(int(a - ps.base + 1))
	}
	if sc.dead.Load() {
		ps.evict(true)
	}
}

// discard silently drops, for a down endpoint, every frame still owed a
// transmission and everything queued.
func (ps *peerSender) discard() {
	if ps.conn == nil {
		ps.release(ps.n)
	} else {
		ps.truncate(int(ps.next - ps.base))
	}
	for {
		select {
		case te := <-ps.ch:
			reclaim(te.env.Msg)
		default:
			return
		}
	}
}

// dropExpired drops, while disconnected, the window's frames past their
// deadline (a prefix: the window is in acceptance order). A dropped
// frame may have been delivered with its acknowledgement lost in the
// break, so transport.dropped can over-count such frames; it never
// under-counts.
func (ps *peerSender) dropExpired() {
	now, k := time.Now(), 0
	for k < ps.n && now.After(ps.at(k).at.Add(ps.t.cfg.SendDeadline)) {
		k++
	}
	if k > 0 {
		ps.release(k)
		ps.t.stat("transport.dropped", uint64(k))
	}
}

// transmit connects if need be and writes one batch of unsent frames.
// It returns false only when the transport is shutting down.
func (ps *peerSender) transmit() bool {
	if ps.conn == nil {
		ps.dropExpired()
		if ps.n == 0 {
			ps.backoff = ps.t.cfg.BackoffMin
			return true
		}
		if !ps.connect() {
			return ps.failed()
		}
	}
	ps.encode()
	if len(ps.ends) == 0 {
		return true // nothing encodable
	}
	ps.conn.SetWriteDeadline(time.Now().Add(ps.t.cfg.SendDeadline))
	n, err := ps.conn.Write(ps.buf)
	// A write that fails after n bytes still wrote the frames lying
	// wholly inside them; the rest are resent from the first frame not
	// written whole.
	whole := 0
	for whole < len(ps.ends) && ps.ends[whole] <= n {
		whole++
	}
	if again := min(uint64(whole), ps.wroteHi-min(ps.wroteHi, ps.next)); again > 0 {
		ps.t.stat("transport.resent", again)
	}
	ps.next += uint64(whole)
	ps.wroteHi = max(ps.wroteHi, ps.next)
	ps.t.stat("transport.writes", 1)
	if err != nil {
		ps.evict(true)
		ps.t.stat("transport.send_errors", 1)
		return ps.failed()
	}
	ps.noteSuccess()
	return true
}

// failed paces the next attempt after a failed dial, handshake or
// write: the outage clock advances, expired frames drop, and a backoff
// pause follows while frames remain.
func (ps *peerSender) failed() bool {
	if ps.n > 0 {
		ps.noteFailure(ps.at(0).at)
	}
	ps.dropExpired()
	if ps.n == 0 {
		ps.backoff = ps.t.cfg.BackoffMin
		return true
	}
	if !ps.pause(ps.backoff) {
		return false
	}
	ps.backoff = ps.nextBackoff(ps.backoff)
	return true
}

// encode encodes the next batch — the unsent frames from next on,
// within the batch bounds — into buf. An envelope the codec cannot
// carry leaves the window, dropped and counted: no connection will
// ever carry it.
func (ps *peerSender) encode() {
	ps.buf, ps.ends = ps.buf[:0], ps.ends[:0]
	for i := int(ps.next - ps.base); i < ps.n && len(ps.ends) < maxBatchFrames && len(ps.buf) < maxBatchBytes; {
		out, err := appendFrame(ps.buf, ps.at(i).env)
		if err != nil {
			ps.t.stat("transport.send_errors", 1)
			ps.t.stat("transport.dropped", 1)
			// Move the refused frame to the end, then truncate it.
			for j := i; j+1 < ps.n; j++ {
				*ps.at(j), *ps.at(j + 1) = *ps.at(j + 1), *ps.at(j)
			}
			ps.truncate(ps.n - 1)
			continue
		}
		ps.buf = out
		ps.ends = append(ps.ends, len(out))
		i++
	}
}

// connect dials the peer and opens the pair's stream on the new
// connection, numbering its frames from the window's first. The reply
// decides what the window owes: a receiver that knows the stream gets
// every unacknowledged frame again (it discards the ones it already
// delivered); a fresh receiver is a successor incarnation, so the frames
// written to its predecessor are dropped and counted, and the window's
// remaining frames are renumbered from base.
func (ps *peerSender) connect() bool {
	ps.t.mu.Lock()
	addr := ps.t.addrs[ps.dst]
	ps.t.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, ps.t.cfg.DialTimeout)
	if err != nil {
		ps.t.stat("transport.redials", 1)
		return false
	}
	if !ps.t.track(conn) {
		return false
	}
	out := append(ps.buf[:0], wirePreamble[:]...)
	out, _ = appendFrame(out, Envelope{Src: ps.src, Dst: ps.dst,
		Msg: StreamOpen{Stream: ps.t.stream, Next: ps.base}})
	ps.buf = out
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(ps.t.cfg.DialTimeout))
	var reply StreamAck
	if _, err = conn.Write(out); err == nil {
		reply, ps.buf, err = ps.readAck(br, ps.buf)
	}
	if err != nil {
		ps.t.dropConn(conn)
		ps.t.stat("transport.redials", 1)
		return false
	}
	conn.SetDeadline(time.Time{})
	if reply.Fresh && ps.wroteHi > ps.base {
		k := min(int(ps.wroteHi-ps.base), ps.n)
		ps.popFront(k)
		ps.t.stat("transport.dropped", uint64(k))
	}
	if reply.Fresh {
		ps.wroteHi = ps.base
	}
	sc := &streamConn{Conn: conn}
	sc.acked.Store(reply.Seq)
	ps.conn, ps.next = sc, ps.base
	ps.t.wg.Add(1)
	go ps.readAcks(sc, br)
	return true
}

// readAck reads one frame that must be a StreamAck of this stream.
func (ps *peerSender) readAck(br *bufio.Reader, body []byte) (StreamAck, []byte, error) {
	body, err := readFrame(br, body)
	if err != nil {
		return StreamAck{}, body, err
	}
	env, err := decodeEnvelope(body)
	if err != nil {
		return StreamAck{}, body, err
	}
	a, ok := env.Msg.(StreamAck)
	if !ok || a.Stream != ps.t.stream {
		return StreamAck{}, body, errTag
	}
	return a, body, nil
}

// readAcks is a connection's ack reader: it publishes each cumulative
// acknowledgement and, once the connection ends (EOF, reset, a frame
// out of protocol), marks it dead and closes it, which also fails a
// write in progress. Either way it wakes the sender.
func (ps *peerSender) readAcks(sc *streamConn, br *bufio.Reader) {
	defer ps.t.wg.Done()
	var body []byte
	for {
		var a StreamAck
		var err error
		if a, body, err = ps.readAck(br, body); err != nil {
			break
		}
		if a.Seq > sc.acked.Load() {
			sc.acked.Store(a.Seq)
		}
		ps.poke()
	}
	sc.dead.Store(true)
	sc.Close()
	ps.poke()
}

func (ps *peerSender) poke() {
	select {
	case ps.wake <- struct{}{}:
	default:
	}
}

// evict closes and forgets the pair's connection (counted when it died
// rather than being shut down).
func (ps *peerSender) evict(count bool) {
	if ps.conn == nil {
		return
	}
	ps.t.dropConn(ps.conn.Conn)
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
	ps.backoff = ps.t.cfg.BackoffMin
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

// SetDown cuts a node off or reconnects it.
func (t *TCPTransport) SetDown(id topology.NodeID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.update(func(v *tcpView) {
		if down {
			v.down[id] = true
		} else {
			delete(v.down, id)
		}
	})
}

// Close shuts listeners, connections and sender goroutines down.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.view.Load().closed {
		t.mu.Unlock()
		return nil
	}
	t.update(func(v *tcpView) { v.closed = true })
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
