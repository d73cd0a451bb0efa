// Package netsim models the federation's network inside the discrete
// event simulation: reliable, loss-free delivery (the paper's network
// assumption) with per-link latency, bandwidth serialization and FIFO
// queueing. It corresponds to the "Network" thread of the paper's
// C++SIM simulator.
//
// # The batched wire
//
// Inter-cluster deliveries are coalesced per directed cluster-pair
// pipe: messages whose arrival lands on the same engine tick join one
// pipeBatch instead of each scheduling its own event. The framing is
// in-memory — a batch is the members' Message values in FIFO (append)
// order plus one scheduled fire per member — so a batch costs one
// event-payload box for the whole tick instead of one per message,
// and the piggyback DeltaCodec decodes the members in one pass at
// pipe exit.
//
// The FIFO-unpack contract: every member keeps its own
// (arrival, pipe-sequence) position in the global event order, fires
// exactly where its unbatched delivery would have, and unpacks in
// append order — so batched and unbatched runs are byte-identical,
// which the differential suites in internal/experiments pin against
// the matrix goldens (DisableBatching / Options.UnbatchedWire is the
// per-message reference wire).
//
// Buffer ownership: a pipeBatch owns its items slice. A fired
// member's Message is copied out and its slot cleared before the
// handler runs; when the cursor exhausts the batch it returns to the
// Network's free list and the same backing storage may be handed to a
// new batch — so neither handlers nor perturbation hooks may retain a
// pointer into a batch. Chaos perturbation routes affected messages
// off the batch path entirely (they deliver standalone); unperturbed
// members stay batched, and the differential suites prove the split
// leaves the observable run untouched.
//
// # Per-pair state
//
// Everything the network keeps per directed cluster pair — the pair's
// counters and its pipe (busy-until mark, latest arrival, delivery
// sequence, open batch) — is one record in a topology.PairTable, added
// when the pair first carries traffic. A wide federation talks on a few
// pairs per cluster, so the state grows with the pairs in use, not with
// the square of the width, and a send finds all of it in one lookup.
// Per-node state (the NIC serialization slots, handlers, failure marks)
// stays in flat slices indexed by node ordinal.
package netsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind tags a message for accounting: the paper reports application and
// protocol message counts separately.
type Kind int

// Message kinds.
const (
	KindApp   Kind = iota // application payload
	KindProto             // checkpointing-protocol control message
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindApp:
		return "app"
	case KindProto:
		return "proto"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is one network message in flight.
type Message struct {
	ID      uint64
	Src     topology.NodeID
	Dst     topology.NodeID
	Kind    Kind
	Size    int // bytes, including protocol piggybacking
	Payload any
}

// Handler receives delivered messages at a node.
type Handler func(m Message)

// Accounting events. Counter names are fixed at these constants so the
// per-message path never builds key strings (see count).
const (
	evSent = iota
	evDelivered
	evDroppedSrcDown
	evDroppedDstDown
	numEvents
)

var eventNames = [numEvents]string{
	evSent:           "net.sent",
	evDelivered:      "net.delivered",
	evDroppedSrcDown: "net.dropped.src_down",
	evDroppedDstDown: "net.dropped.dst_down",
}

// Network simulates the federation fabric. All methods must be called
// from within the simulation goroutine (event handlers).
type Network struct {
	engine *sim.Engine
	fed    *topology.Federation
	ix     topology.NodeIndex
	stats  *sim.Stats
	tracer *sim.Tracer
	// Indexed by node ordinal: intra-cluster traffic serializes at the
	// sender's NIC.
	handlers  []Handler
	busyIntra []sim.Time
	lastIntra []sim.Time // latest scheduled arrival, for FIFO under jitter
	down      []bool
	// pairs holds the state of every directed cluster pair that carried
	// traffic, keyed by src*nClusters+dst: its counters and, between
	// distinct clusters, its pipe (see pairState).
	pairs  topology.PairTable[pairState]
	nextID uint64
	rng    *sim.RNG // jitter draws; nil disables jitter

	nClusters int
	// deliverFn is the closure-free delivery handler, bound once so
	// Send allocates no closure per message.
	deliverFn func(any)
	// msgFree recycles the in-flight Message boxes handed to the event
	// engine: acquired in Send, released as soon as delivery fires.
	msgFree []*Message

	// Batched pipe deliveries: same-tick messages on one directed
	// cluster-pair pipe coalesce into a pipeBatch — one engine slot and
	// one slice of in-flight messages instead of one scheduled event and
	// one pooled box each (see pairState.open). batchFn is the
	// member-delivery trampoline, bound once.
	batchFree []*pipeBatch
	batchFn   func(any)
	noBatch   bool

	// Cached counter pointers, resolved on first use so the set of
	// registered counters stays exactly what a run actually touched
	// (identical Stats output to building keys per call). The per-pair
	// ones live in pairs.
	evTotal   [numEvents]*sim.Counter
	evKind    [numEvents][numKinds]*sim.Counter
	bytesKind [numKinds]*sim.Counter

	// PipeExit, when non-nil, observes every inter-cluster message at
	// the exit of its cluster-pair pipe, in pipe (FIFO) order, exactly
	// once — including messages then dropped because the destination
	// node is down: the pipe itself is loss-free, only the endpoint
	// loses. The federation harness hooks the delta-piggyback decoder
	// here, which is what keeps encoder and decoder in perfect sync
	// across node failures.
	PipeExit func(src, dst topology.NodeID, payload any)

	// Perturb, when non-nil, lets an adversarial-schedule harness
	// (internal/chaos) adjust every message's delivery: extra delay
	// within the link's declared jitter envelope, release from the
	// per-slot FIFO clamp (legal for inter-cluster traffic — the paper
	// only assumes "an arbitrary but finite laps of time"), and
	// duplicate deliveries where the wire contract permits. Nil (every
	// non-chaos run) leaves the network bit-for-bit as before.
	Perturb Perturber
}

// Perturbation is one message's adversarial delivery adjustment.
type Perturbation struct {
	// Extra is added to the nominal arrival time. The perturber keeps
	// it inside the envelope it considers legal for the link.
	Extra sim.Duration
	// Unclamped skips the per-slot FIFO arrival clamp for this message
	// (and leaves the slot's clamp state untouched), so it may overtake
	// or be overtaken by its pipe neighbours.
	Unclamped bool
	// Duplicate, when > 0, delivers a second copy this much after the
	// first arrival.
	Duplicate sim.Duration
	// DupPayload, when non-nil, is the payload of the duplicate
	// delivery. Perturbers must supply a deep copy for pooled message
	// boxes (the harness reclaims a box after its first delivery); nil
	// reuses the original payload, which is only safe for value
	// messages.
	DupPayload any
}

// Perturber decides the adversarial schedule. Perturb sees every
// message once, at send time, in deterministic simulation order —
// perturbers draw all randomness from their own seeded stream, so a
// chaos run replays exactly from its seed. envelope is the link's
// declared jitter bound (zero on jitter-free links).
type Perturber interface {
	Perturb(m Message, intra bool, envelope sim.Duration) (Perturbation, bool)
}

// New returns a network for the federation.
func New(e *sim.Engine, fed *topology.Federation, stats *sim.Stats, tracer *sim.Tracer) *Network {
	ix := fed.Index()
	nc := fed.NumClusters()
	n := &Network{
		engine:    e,
		fed:       fed,
		ix:        ix,
		stats:     stats,
		tracer:    tracer,
		handlers:  make([]Handler, ix.Len()),
		busyIntra: make([]sim.Time, ix.Len()),
		lastIntra: make([]sim.Time, ix.Len()),
		down:      make([]bool, ix.Len()),
		nClusters: nc,
	}
	n.deliverFn = n.deliverPooled
	n.batchFn = n.deliverBatched
	return n
}

// DisableBatching reverts inter-cluster scheduling to one engine event
// and one pooled box per message (the pre-batching wire). Runs are
// byte-identical either way — batch members keep their individual
// (arrival, pipe key) positions — and the differential suites re-prove
// it by diffing batched output against this reference.
func (n *Network) DisableBatching() { n.noBatch = true }

// pipeBatch is one batched group of deliveries on a directed
// cluster-pair pipe: the members' Message values in FIFO (append)
// order, consumed one per member fire through a cursor. Ownership: the
// batch owns its items slice; a fired member's Message is copied out
// and its slot cleared before the handler runs, and the batch returns
// to the pool when the cursor exhausts it — after which the Network may
// hand the same backing storage to a new batch, so nothing may retain a
// pointer into items.
type pipeBatch struct {
	pair  int
	items []Message
	next  int
	pb    sim.PostBatch
}

func (n *Network) allocBatch() *pipeBatch {
	if last := len(n.batchFree) - 1; last >= 0 {
		pb := n.batchFree[last]
		n.batchFree[last] = nil
		n.batchFree = n.batchFree[:last]
		pb.items = pb.items[:0]
		pb.next = 0
		return pb
	}
	return new(pipeBatch)
}

func (n *Network) releaseBatch(pb *pipeBatch) {
	n.batchFree = append(n.batchFree, pb)
}

// enqueueBatched schedules one inter-cluster delivery through the pipe's
// open batch, opening a fresh one when the previous batch is from an
// older tick. Fire order within a batch equals append order: only
// unperturbed sends reach here, and Send gives those non-decreasing
// arrivals per pipe (the busy-until mark only advances, the link
// latency is constant, and jittered arrivals are clamped to the pipe's
// latest), with strictly increasing pipe keys.
func (n *Network) enqueueBatched(p *pairState, pair int, m Message, arrival sim.Time, key uint64) {
	now := n.engine.Now()
	if pb := p.open; pb != nil && p.openTick == now {
		pb.items = append(pb.items, m)
		pb.pb.Add(arrival, key)
		return
	}
	pb := n.allocBatch()
	pb.pair = pair
	pb.items = append(pb.items, m)
	pb.pb = n.engine.NewPostBatch(n.batchFn, pb)
	pb.pb.Add(arrival, key)
	p.open = pb
	p.openTick = now
}

// deliverBatched fires one batch member: pop the next message in FIFO
// order, recycle the batch once drained (clearing the open-batch pointer
// if it still refers to it), then deliver. Delivery runs after the
// release so sends it triggers can reuse the batch immediately — the
// member was copied out first.
func (n *Network) deliverBatched(arg any) {
	pb := arg.(*pipeBatch)
	m := pb.items[pb.next]
	pb.items[pb.next] = Message{}
	pb.next++
	if pb.next == len(pb.items) {
		if p := n.pairs.Find(pb.pair); p.open == pb {
			p.open = nil
		}
		n.releaseBatch(pb)
	}
	n.deliver(m)
}

// SetRNG installs the random stream used for per-message jitter on
// links with a non-zero Jitter bound. Without it (or on jitter-free
// links, the paper's configuration) no draws happen, so existing runs
// are bit-for-bit unchanged.
func (n *Network) SetRNG(rng *sim.RNG) { n.rng = rng }

// Register installs the delivery handler for a node. Each node must
// register exactly once before any traffic is sent to it.
func (n *Network) Register(id topology.NodeID, h Handler) {
	if !n.fed.Valid(id) {
		panic(fmt.Sprintf("netsim: register invalid node %v", id))
	}
	if n.handlers[n.ix.Ord(id)] != nil {
		panic(fmt.Sprintf("netsim: duplicate handler for %v", id))
	}
	n.handlers[n.ix.Ord(id)] = h
}

// SetDown marks a node failed (fail-stop) or repaired. Messages from a
// down node are refused; messages to a down node vanish (the sender's
// protocol recovers them through the rollback procedure, never the
// network).
func (n *Network) SetDown(id topology.NodeID, down bool) {
	n.down[n.ix.Ord(id)] = down
}

// Down reports whether a node is currently failed.
func (n *Network) Down(id topology.NodeID) bool { return n.down[n.ix.Ord(id)] }

// allocMsg takes a Message box from the free list (or allocates one).
func (n *Network) allocMsg() *Message {
	if last := len(n.msgFree) - 1; last >= 0 {
		m := n.msgFree[last]
		n.msgFree[last] = nil
		n.msgFree = n.msgFree[:last]
		return m
	}
	return new(Message)
}

// releaseMsg returns a Message box to the free list. The caller must
// have copied every field it still needs: the box is reused by the very
// next Send, including sends issued from inside the current delivery.
func (n *Network) releaseMsg(m *Message) {
	m.Payload = nil
	n.msgFree = append(n.msgFree, m)
}

// Send queues a message for delivery and returns its ID. Delivery time
// is max(now, link free) + transmit + latency; the link then stays busy
// until the end of serialization, giving FIFO order per link.
func (n *Network) Send(src, dst topology.NodeID, kind Kind, size int, payload any) uint64 {
	if !n.fed.Valid(src) || !n.fed.Valid(dst) {
		panic(fmt.Sprintf("netsim: send %v -> %v outside federation", src, dst))
	}
	if src == dst {
		panic("netsim: node sending to itself")
	}
	n.nextID++
	id := n.nextID
	if n.down[n.ix.Ord(src)] {
		// A failed node sends nothing (fail-stop assumption §2.1).
		n.count(evDroppedSrcDown, kind, nil, src, dst, size)
		return id
	}
	// Resolve the serialization slot: the sender's NIC for SAN traffic,
	// the directed cluster-pair pipe otherwise. The pair's state is the
	// one table lookup of the send; nothing below adds a pair.
	pair := int(src.Cluster)*n.nClusters + int(dst.Cluster)
	p := n.pairs.Get(pair)
	var link topology.Link
	var busy, last *sim.Time
	if src.Cluster == dst.Cluster {
		link = n.fed.Clusters[src.Cluster].Intra
		ord := n.ix.Ord(src)
		busy, last = &n.busyIntra[ord], &n.lastIntra[ord]
	} else {
		link = n.fed.InterLink(src.Cluster, dst.Cluster)
		busy, last = &p.busy, &p.last
	}
	start := n.engine.Now()
	if free := *busy; free > start {
		start = free
	}
	endSerial := start.Add(link.TransmitTime(size))
	*busy = endSerial
	arrival := endSerial.Add(link.Latency)
	var pert Perturbation
	perturbed := false
	if n.Perturb != nil {
		pert, perturbed = n.Perturb.Perturb(
			Message{ID: id, Src: src, Dst: dst, Kind: kind, Size: size, Payload: payload},
			src.Cluster == dst.Cluster, link.Jitter)
	}
	if perturbed && pert.Extra > 0 {
		// Extra delay folds in before the clamp bookkeeping below, so
		// a clamped perturbation still records its true arrival and
		// the per-slot FIFO guarantee survives for later messages.
		arrival = arrival.Add(pert.Extra)
	}
	if link.Jitter > 0 && n.rng != nil {
		// Per-message propagation jitter; arrivals never overtake an
		// earlier message on the same link (FIFO, like an in-order
		// transport over a jittery path) — unless the perturber
		// released this message from the clamp.
		arrival = arrival.Add(n.rng.Uniform(0, link.Jitter))
		if perturbed && pert.Unclamped {
			// Neither clamped nor advancing the slot's clamp state.
		} else {
			if prev := *last; arrival < prev {
				arrival = prev
			}
			*last = arrival
		}
	}

	n.count(evSent, kind, p, src, dst, size)
	if n.tracer.Enabled(sim.TraceAll) {
		n.tracer.Allf(src.String(), "send #%d %s %dB -> %v (arrives %v)", id, kind, size, dst, arrival)
	}

	msg := Message{ID: id, Src: src, Dst: dst, Kind: kind, Size: size, Payload: payload}
	inter := src.Cluster != dst.Cluster
	if inter {
		// Inter-cluster deliveries dispatch in the post-tick class keyed
		// by (pair, pipeSeq): at one timestamp they fire after every
		// ordinary event, in an order determined by the wire content
		// alone — so a batch member fires exactly where its standalone
		// delivery would. Unperturbed messages coalesce into the pipe's
		// open batch; perturbed ones stay standalone so the chaos
		// layer's arrival rewrites can never violate a batch's
		// monotone-arrival contract.
		key := p.nextKey(pair)
		if n.noBatch || perturbed {
			m := n.allocMsg()
			*m = msg
			n.engine.SchedulePostCallAt(arrival, key, n.deliverFn, m)
		} else {
			n.enqueueBatched(p, pair, msg, arrival, key)
		}
	} else {
		m := n.allocMsg()
		*m = msg
		n.engine.ScheduleCallAt(arrival, n.deliverFn, m)
	}
	if perturbed && pert.Duplicate > 0 {
		d := n.allocMsg()
		*d = msg
		if pert.DupPayload != nil {
			d.Payload = pert.DupPayload
		}
		at := arrival.Add(pert.Duplicate)
		if inter {
			n.engine.SchedulePostCallAt(at, p.nextKey(pair), n.deliverFn, d)
		} else {
			n.engine.ScheduleCallAt(at, n.deliverFn, d)
		}
	}
	return id
}

// pipeSeqBits is the width of the per-pipe sequence field inside a
// post-tick dispatch key; the pair index occupies the bits above it.
// 2^40 deliveries per pipe and 2^23 cluster pairs are far beyond any
// run this simulator performs.
const pipeSeqBits = 40

// nextKey advances the directed pipe's delivery sequence and returns
// the post-tick dispatch key for the next delivery on pair.
func (p *pairState) nextKey(pair int) uint64 {
	p.seq++
	return uint64(pair)<<pipeSeqBits | p.seq
}

// deliverPooled is the event-engine entry point: it copies the pooled
// box out and releases it before running the handler, so sends issued
// during delivery can reuse it immediately.
func (n *Network) deliverPooled(arg any) {
	pm := arg.(*Message)
	m := *pm
	n.releaseMsg(pm)
	n.deliver(m)
}

func (n *Network) deliver(m Message) {
	if n.PipeExit != nil && m.Src.Cluster != m.Dst.Cluster {
		n.PipeExit(m.Src, m.Dst, m.Payload)
	}
	dst := n.ix.Ord(m.Dst)
	if n.down[dst] {
		// The destination died while the message was in flight.
		n.count(evDroppedDstDown, m.Kind, nil, m.Src, m.Dst, m.Size)
		return
	}
	h := n.handlers[dst]
	if h == nil {
		panic(fmt.Sprintf("netsim: no handler for %v", m.Dst))
	}
	n.count(evDelivered, m.Kind, nil, m.Src, m.Dst, m.Size)
	if n.tracer.Enabled(sim.TraceAll) {
		n.tracer.Allf(m.Dst.String(), "recv #%d %s %dB from %v", m.ID, m.Kind, m.Size, m.Src)
	}
	h(m)
}

// Broadcast sends the same payload from src to every other node of
// src's cluster, in node order (the 2PC "broadcast in its cluster").
func (n *Network) Broadcast(src topology.NodeID, kind Kind, size int, payload any) {
	for _, dst := range n.fed.Nodes(src.Cluster) {
		if dst != src {
			n.Send(src, dst, kind, size, payload)
		}
	}
}

// pairState is one directed cluster pair's state: the pair's counters
// per event and kind, each registered on its first touch, and, between
// distinct clusters, the pipe (the LAN/WAN uplink) that serializes the
// pair's traffic.
type pairState struct {
	counters [numEvents][numKinds]*sim.Counter
	busy     sim.Time // end of the pipe's current serialization
	last     sim.Time // latest scheduled arrival, for FIFO under jitter
	// seq numbers every delivery scheduled through the pipe (duplicates
	// included). Combined with the pair index it forms the post-tick
	// dispatch key that makes same-tick inter-cluster delivery order a
	// pure function of the wire content, not of how the deliveries were
	// scheduled — the property that keeps batched and unbatched runs
	// byte-identical.
	seq uint64
	// open is the batch still accepting members, valid only while
	// openTick equals the engine clock (all batch members are appended
	// within one tick; arrivals are strictly later, so a firing batch is
	// never still open). A drained batch clears it.
	open     *pipeBatch
	openTick sim.Time
}

// count increments the per-event counters (total, per kind, per
// cluster pair, plus sent bytes). Counter pointers are cached after the
// first touch, so the steady state builds no key strings; keys are
// composed lazily — exactly the set a per-call fmt.Sprintf would have
// registered, so Stats output is unchanged. p is the pair's state when
// the caller holds it, nil to look it up.
func (n *Network) count(ev int, kind Kind, p *pairState, src, dst topology.NodeID, size int) {
	if n.stats == nil {
		return
	}
	k := int(kind)
	if k < 0 || k >= int(numKinds) {
		panic(fmt.Sprintf("netsim: unknown kind %d", k))
	}
	c := n.evTotal[ev]
	if c == nil {
		c = n.stats.Counter(eventNames[ev])
		n.evTotal[ev] = c
	}
	c.Inc()
	ck := n.evKind[ev][k]
	if ck == nil {
		ck = n.stats.Counter(eventNames[ev] + "." + kind.String())
		n.evKind[ev][k] = ck
	}
	ck.Inc()
	if p == nil {
		p = n.pairs.Get(int(src.Cluster)*n.nClusters + int(dst.Cluster))
	}
	cp := p.counters[ev][k]
	if cp == nil {
		cp = n.stats.Counter(fmt.Sprintf("%s.%s.c%d.c%d", eventNames[ev], kind, src.Cluster, dst.Cluster))
		p.counters[ev][k] = cp
	}
	cp.Inc()
	if ev == evSent {
		cb := n.bytesKind[k]
		if cb == nil {
			cb = n.stats.Counter("net.bytes." + kind.String())
			n.bytesKind[k] = cb
		}
		cb.Add(uint64(size))
	}
}

// Stats returns the registry used for accounting (may be nil).
func (n *Network) Stats() *sim.Stats { return n.stats }

// AppMessages returns how many application messages were sent from
// cluster a to cluster b, the quantity Table 1 of the paper reports.
func (n *Network) AppMessages(a, b topology.ClusterID) uint64 {
	if p := n.pairs.Find(int(a)*n.nClusters + int(b)); p != nil {
		if c := p.counters[evSent][KindApp]; c != nil {
			return c.Value()
		}
	}
	return 0
}

// EachAppPair calls fn for every cluster pair that carried application
// messages, with the number sent, in no particular order.
func (n *Network) EachAppPair(fn func(src, dst topology.ClusterID, sent uint64)) {
	n.pairs.Each(func(pair int, p *pairState) {
		if c := p.counters[evSent][KindApp]; c != nil {
			fn(topology.ClusterID(pair/n.nClusters), topology.ClusterID(pair%n.nClusters), c.Value())
		}
	})
}
