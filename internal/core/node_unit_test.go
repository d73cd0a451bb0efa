package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// ---- mock environment: synchronous, zero-latency, FIFO network ----

type sentMsg struct {
	src  topology.NodeID
	dst  topology.NodeID
	msg  Msg
	app  bool
	size int
}

type mockEnv struct {
	id     topology.NodeID
	bed    *testbed
	timers map[TimerKind]sim.Duration
	names  *StatNames // rendered by the first counted event
}

func (e *mockEnv) Now() sim.Time { return e.bed.now }
func (e *mockEnv) Send(dst topology.NodeID, size int, msg Msg) {
	if e.bed.shadows != nil {
		e.bed.shadows.Sent(e.id, msg)
	}
	e.bed.queue = append(e.bed.queue, sentMsg{src: e.id, dst: dst, msg: msg, size: size})
}
func (e *mockEnv) SendApp(dst topology.NodeID, size int, msg Msg) {
	e.bed.queue = append(e.bed.queue, sentMsg{src: e.id, dst: dst, msg: msg, app: true, size: size})
}
func (e *mockEnv) SetTimer(k TimerKind, d sim.Duration) { e.timers[k] = d }

// Event counts the node's counters into the testbed's table under the
// names the simulator registers them by; series points are dropped.
func (e *mockEnv) Event(ev Event) {
	form := ev.Kind.StatForm(e.id)
	if form != StatCount && form != StatAdd {
		return
	}
	if e.names == nil {
		names := NewStatNames(e.id.Cluster)
		e.names = &names
	}
	e.bed.stats[e.names.Of(ev.Kind)] += form.Delta(ev.Value)
	if i, ok := ev.Kind.AlsoStat(ev.Forced); ok {
		e.bed.stats[e.names.Cluster(i)]++
	}
}

// The testbed implements BoxPool and BoxReclaimer like the federation
// harness, so unit tests and benchmarks cover the pooled-box message
// path.
func (e *mockEnv) ReclaimsMsgBoxes() {}

func (e *mockEnv) AppMsgBox() *AppMsg {
	b := e.bed
	if last := len(b.appBoxes) - 1; last >= 0 {
		m := b.appBoxes[last]
		b.appBoxes = b.appBoxes[:last]
		return m
	}
	return new(AppMsg)
}

func (e *mockEnv) AppAckBox() *AppAck {
	b := e.bed
	if last := len(b.ackBoxes) - 1; last >= 0 {
		m := b.ackBoxes[last]
		b.ackBoxes = b.ackBoxes[:last]
		return m
	}
	return new(AppAck)
}

// shadowedEnv is the Env of a node under test (not under benchmark):
// the mockEnv plus the testbed's dense shadow as the node's event sink.
type shadowedEnv struct {
	*mockEnv
	*DenseShadows
}

// Event counts the node's protocol events and shows them to the shadow.
func (e shadowedEnv) Event(ev Event) {
	e.mockEnv.Event(ev)
	e.DenseShadows.NodeEvent(e.id, ev)
}

// seedReplicas pre-distributes every node's initial checkpoint to its
// holders, as the federation harness does (through the shadow when
// there is one).
func (b *testbed) seedReplicas() {
	for _, n := range b.nodes {
		for _, tgt := range n.replicaTargets() {
			if b.shadows != nil {
				b.shadows.SeedReplica(b.nodes[tgt], n.InitialReplica())
			} else {
				b.nodes[tgt].SeedReplica(n.InitialReplica())
			}
		}
	}
}

// newNode builds one node of the testbed on env.
func (b *testbed) newNode(cfg Config, env *mockEnv, app *mockApp) *Node {
	if b.shadows == nil {
		return NewNode(cfg, env, app)
	}
	n := NewNode(cfg, shadowedEnv{env, b.shadows}, app)
	b.shadows.Attach(n)
	return n
}

type mockApp struct {
	progress  int
	delivered []LogicalID
}

type mockState struct {
	progress  int
	delivered []LogicalID
}

func (a *mockApp) Snapshot() (any, int) {
	return mockState{progress: a.progress, delivered: append([]LogicalID(nil), a.delivered...)}, 1024
}
func (a *mockApp) Restore(state any) {
	s := state.(mockState)
	a.progress = s.progress
	a.delivered = append([]LogicalID(nil), s.delivered...)
}
func (a *mockApp) Deliver(from topology.NodeID, p AppPayload) {
	a.delivered = append(a.delivered, p.ID)
}

// testbed wires Nodes through a synchronous FIFO network.
type testbed struct {
	t     testing.TB
	nodes map[topology.NodeID]*Node
	apps  map[topology.NodeID]*mockApp
	envs  map[topology.NodeID]*mockEnv
	queue []sentMsg
	stats map[string]uint64
	now   sim.Time

	appBoxes []*AppMsg
	ackBoxes []*AppAck
	boxSeen  map[Msg]bool // checkBoxes' scratch set

	// shadows keeps every node's stored history in the dense form the
	// chain replaced, and the pump holds the two against each other
	// after every delivery; nil under a benchmark.
	shadows *DenseShadows

	width int

	// withhold, when set, makes pump set aside the messages it accepts
	// instead of delivering them, in order, until release.
	withhold func(sentMsg) bool
	withheld []sentMsg
}

// release puts the withheld messages back at the head of the queue, in
// their original order, and stops withholding.
func (b *testbed) release() {
	b.queue = append(b.withheld, b.queue...)
	b.withheld, b.withhold = nil, nil
}

// reclaim returns a pooled message box after its dispatch, mirroring
// the federation harness's post-OnMessage reclamation.
func (b *testbed) reclaim(msg Msg) {
	switch m := msg.(type) {
	case *AppMsg:
		*m = AppMsg{}
		b.appBoxes = append(b.appBoxes, m)
	case *AppAck:
		*m = AppAck{}
		b.ackBoxes = append(b.ackBoxes, m)
	case ReclaimableMsg:
		m.ReclaimMsgBox()
	}
}

// freeBox is implemented by every Box (export_test.go): whether the box
// sits in its sender's free list, i.e. was reclaimed and not reused.
type freeBox interface{ isFree() bool }

// checkBoxes enforces the box discipline on the messages still queued
// after a delivery: no box queued twice (a box belongs to exactly one
// delivery) and none already reclaimed (its receiver would read a
// zeroed or reused value).
func (b *testbed) checkBoxes(queued []sentMsg) error {
	if b.boxSeen == nil {
		b.boxSeen = make(map[Msg]bool)
	}
	defer clear(b.boxSeen)
	for _, q := range queued {
		box, ok := q.msg.(ReclaimableMsg)
		if !ok {
			continue
		}
		if b.boxSeen[box] {
			return fmt.Errorf("box %p (%T) queued twice", box, box)
		}
		b.boxSeen[box] = true
		if f, ok := box.(freeBox); ok && f.isFree() {
			return fmt.Errorf("box %p (%T) still queued after it was reclaimed", box, box)
		}
	}
	return nil
}

// newTestbed builds clusters with sizes[i] nodes each, replicas state
// copies, and the given per-cluster CLC periods.
func newTestbed(t testing.TB, sizes []int, replicas int, transitive bool) *testbed {
	bed := &testbed{
		t:     t,
		nodes: make(map[topology.NodeID]*Node),
		apps:  make(map[topology.NodeID]*mockApp),
		envs:  make(map[topology.NodeID]*mockEnv),
		stats: make(map[string]uint64),
		width: len(sizes),
	}
	if _, test := t.(*testing.T); test {
		bed.shadows = NewDenseShadows()
	}
	for c, size := range sizes {
		repl := replicas
		if repl > size-1 {
			repl = size - 1
		}
		for i := 0; i < size; i++ {
			id := topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
			env := &mockEnv{id: id, bed: bed, timers: make(map[TimerKind]sim.Duration)}
			app := &mockApp{}
			cfg := Config{
				ID:           id,
				Clusters:     len(sizes),
				ClusterSizes: sizes,
				CLCPeriod:    sim.Forever,
				GCPeriod:     sim.Forever,
				Replicas:     repl,
				Transitive:   transitive,
			}
			n := bed.newNode(cfg, env, app)
			bed.nodes[id] = n
			bed.apps[id] = app
			bed.envs[id] = env
			n.Start()
		}
	}
	bed.seedReplicas()
	return bed
}

// newWideTestbed declares a federation of `width` single-node clusters
// but instantiates only clusters 0 and 1 — enough to drive one
// directed inter-cluster pipe at an arbitrary dependency-vector width
// without building hundreds of nodes. Transitive piggybacking is on.
func newWideTestbed(t testing.TB, width int) *testbed {
	return newWideTestbedSized(t, width, 1)
}

// newWideTestbedSized is newWideTestbed with `nodes` nodes in each of
// the two instantiated clusters, each replicating to one neighbour when
// it has one.
func newWideTestbedSized(t testing.TB, width, nodes int) *testbed {
	bed := &testbed{
		t:     t,
		nodes: make(map[topology.NodeID]*Node),
		apps:  make(map[topology.NodeID]*mockApp),
		envs:  make(map[topology.NodeID]*mockEnv),
		stats: make(map[string]uint64),
		width: width,
	}
	if _, test := t.(*testing.T); test {
		bed.shadows = NewDenseShadows()
	}
	sizes := make([]int, width)
	for i := range sizes {
		sizes[i] = 1
	}
	sizes[0], sizes[1] = nodes, nodes
	for c := 0; c < 2; c++ {
		for i := 0; i < nodes; i++ {
			id := topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
			env := &mockEnv{id: id, bed: bed, timers: make(map[TimerKind]sim.Duration)}
			app := &mockApp{}
			cfg := Config{
				ID:           id,
				Clusters:     width,
				ClusterSizes: sizes,
				CLCPeriod:    sim.Forever,
				GCPeriod:     sim.Forever,
				Replicas:     min(1, nodes-1),
				Transitive:   true,
			}
			n := bed.newNode(cfg, env, app)
			bed.nodes[id] = n
			bed.apps[id] = app
			bed.envs[id] = env
			n.Start()
		}
	}
	bed.seedReplicas()
	return bed
}

func (b *testbed) node(c, i int) *Node {
	return b.nodes[topology.NodeID{Cluster: topology.ClusterID(c), Index: i}]
}
func (b *testbed) app(c, i int) *mockApp {
	return b.apps[topology.NodeID{Cluster: topology.ClusterID(c), Index: i}]
}

// pump delivers queued messages FIFO until quiescent. The queue's
// backing array is kept for the next pump, so a benchmark's B/op is the
// protocol's, not the testbed's.
func (b *testbed) pump() {
	defer func() {
		clear(b.queue)
		b.queue = b.queue[:0]
	}()
	for head := 0; head < len(b.queue); head++ {
		if head > 2_000_000 {
			b.t.Fatal("testbed: message storm")
		}
		m := b.queue[head]
		if b.withhold != nil && b.withhold(m) {
			b.withheld = append(b.withheld, m)
			continue
		}
		dst := b.nodes[m.dst]
		if dst == nil {
			b.t.Fatalf("message to unknown node %v", m.dst)
		}
		if dst.Failed() || b.nodes[m.src].Failed() {
			continue // fail-stop: traffic to/from down nodes vanishes
		}
		b.now++
		if b.shadows == nil {
			dst.OnMessage(m.src, m.msg)
			b.reclaim(m.msg)
			continue
		}
		// Tests hold the receiver's running totals, indexes and chain
		// against their reference walks and its dense shadow after every
		// delivery; benchmarks must not pay the walks they measure the
		// absence of.
		b.shadows.Deliver(dst, m.src, m.msg)
		b.reclaim(m.msg)
		for _, err := range []error{dst.CheckStoredHistory(), b.shadows.Check(dst), b.checkBoxes(b.queue[head+1:])} {
			if err != nil {
				b.t.Fatalf("after %T from %v: %v", m.msg, m.src, err)
			}
		}
	}
}

// commitCLC triggers an unforced CLC on cluster c and settles it.
func (b *testbed) commitCLC(c int) {
	b.node(c, 0).OnTimer(TimerCLC)
	b.pump()
}

func payload(src topology.NodeID, seq uint64) AppPayload {
	return AppPayload{ID: LogicalID{Src: src, Seq: seq}, Size: 100}
}

// ---- tests ----

func TestInitialCheckpointIsSNOne(t *testing.T) {
	b := newTestbed(t, []int{3}, 1, false)
	for _, n := range b.nodes {
		if n.SN() != 1 || n.StoredCount() != 1 {
			t.Fatalf("node %v: sn=%d stored=%d", n.ID(), n.SN(), n.StoredCount())
		}
		if !n.DDVSnapshot().Equal(DDV{1}) {
			t.Fatalf("ddv = %v", n.DDVSnapshot())
		}
		if n.ReplicaCount() != 1 {
			t.Fatalf("seeded replicas = %d", n.ReplicaCount())
		}
	}
}

func TestUnforcedCLCTwoPhaseCommit(t *testing.T) {
	b := newTestbed(t, []int{3}, 1, false)
	b.commitCLC(0)
	for _, n := range b.nodes {
		if n.SN() != 2 {
			t.Fatalf("node %v sn=%d after commit", n.ID(), n.SN())
		}
		if n.StoredCount() != 2 {
			t.Fatalf("node %v stored=%d", n.ID(), n.StoredCount())
		}
		if got := n.DDVSnapshot(); !got.Equal(DDV{2}) {
			t.Fatalf("ddv = %v", got)
		}
		if n.Frozen() {
			t.Fatalf("node %v still frozen after commit", n.ID())
		}
		if n.ReplicaCount() != 2 { // initial + CLC 1
			t.Fatalf("node %v replicas=%d", n.ID(), n.ReplicaCount())
		}
	}
	if b.stats["clc.committed.c0"] != 1 || b.stats["clc.committed.c0.unforced"] != 1 {
		t.Fatalf("stats = %v", b.stats)
	}
	if b.stats["clc.committed.c0.forced"] != 0 {
		t.Fatal("unforced CLC counted as forced")
	}
}

func TestSNStaysAgreedAcrossManyCLCs(t *testing.T) {
	b := newTestbed(t, []int{4}, 1, false)
	for k := 0; k < 10; k++ {
		b.commitCLC(0)
		for _, n := range b.nodes {
			if n.SN() != SN(k+2) {
				t.Fatalf("round %d: node %v sn=%d", k, n.ID(), n.SN())
			}
		}
	}
}

func TestSendsFrozenDuringTwoPhaseCommit(t *testing.T) {
	b := newTestbed(t, []int{2}, 1, false)
	leader := b.node(0, 0)
	peer := b.node(0, 1)
	leader.OnTimer(TimerCLC) // leader snapshots and freezes immediately
	if !leader.Frozen() {
		t.Fatal("leader not frozen at request")
	}
	leader.Send(peer.ID(), payload(leader.ID(), 1))
	if got := b.stats["app.sends_frozen"]; got != 1 {
		t.Fatalf("frozen sends = %d", got)
	}
	b.pump() // completes the 2PC, releasing the queued send
	if len(b.app(0, 1).delivered) != 1 {
		t.Fatalf("delivered = %v", b.app(0, 1).delivered)
	}
	// The send was released after the commit, so its SendSN is the new
	// SN and no late-log fold happened.
	if b.stats["app.late_logged"] != 0 {
		t.Fatal("released send should not be late-logged")
	}
}

func TestInterClusterMessageForcesCLC(t *testing.T) {
	b := newTestbed(t, []int{1, 1}, 0, false)
	src, dst := b.node(0, 0), b.node(1, 0)

	// The very first message carries the sender's initial SN 1, which
	// exceeds the receiver's DDV entry 0: a CLC is forced before
	// delivery — exactly m1 in the paper's §4 sample.
	src.Send(dst.ID(), payload(src.ID(), 1))
	b.pump()
	if dst.SN() != 2 {
		t.Fatalf("dst sn=%d, want forced CLC", dst.SN())
	}
	if got := b.stats["clc.committed.c1.forced"]; got != 1 {
		t.Fatalf("forced commits = %d", got)
	}
	if got := b.stats["clc.committed.c1.unforced"]; got != 0 {
		t.Fatalf("unforced commits = %d", got)
	}
	if len(b.app(1, 0).delivered) != 1 {
		t.Fatal("held message not delivered after forced CLC")
	}
	if got := dst.DDVSnapshot(); !got.Equal(DDV{1, 2}) {
		t.Fatalf("dst ddv = %v", got)
	}

	// Same SN again: no further forced CLC — m2 in the sample ("the
	// received SN is equal to cluster 1's DDV entry").
	src.Send(dst.ID(), payload(src.ID(), 2))
	b.pump()
	if dst.SN() != 2 || b.stats["clc.committed.c1.forced"] != 1 {
		t.Fatalf("redundant forced CLC: sn=%d forced=%d", dst.SN(), b.stats["clc.committed.c1.forced"])
	}

	// A new CLC in cluster 0 re-arms the trigger.
	b.commitCLC(0)
	src.Send(dst.ID(), payload(src.ID(), 3))
	b.pump()
	if dst.SN() != 3 || b.stats["clc.committed.c1.forced"] != 2 {
		t.Fatalf("second force missing: sn=%d forced=%d", dst.SN(), b.stats["clc.committed.c1.forced"])
	}
}

func TestAcksRecordedInSenderLog(t *testing.T) {
	b := newTestbed(t, []int{1, 1}, 0, false)
	src, dst := b.node(0, 0), b.node(1, 0)
	src.Send(dst.ID(), payload(src.ID(), 1))
	b.pump()
	if src.LogLen() != 1 {
		t.Fatalf("log len = %d", src.LogLen())
	}
	e := src.log[0]
	if !e.acked || e.ackSN != 2 {
		// Delivered after the forced CLC committed: "acknowledged with
		// the local SN + 1" (§4) — receiver was at SN 1, delivers at 2.
		t.Fatalf("ack: acked=%v sn=%d, want acked with 2", e.acked, e.ackSN)
	}
	if e.piggySN != 1 {
		t.Fatalf("entry piggy=%d", e.piggySN)
	}
}

func TestTransitiveDDVPreventsLaterForce(t *testing.T) {
	b := newTestbed(t, []int{1, 1, 1}, 0, true)
	c0, c1, c2 := b.node(0, 0), b.node(1, 0), b.node(2, 0)

	b.commitCLC(0)
	c0.Send(c1.ID(), payload(c0.ID(), 1)) // c1 learns ddv[c0]=2, forces
	b.pump()
	if got := c1.DDVSnapshot(); !got.Equal(DDV{2, 2, 0}) {
		t.Fatalf("c1 ddv = %v", got)
	}
	c1.Send(c2.ID(), payload(c1.ID(), 1)) // piggybacks the whole DDV
	b.pump()
	// c2 absorbed both the direct (c1) and transitive (c0) dependency.
	if got := c2.DDVSnapshot(); !got.Equal(DDV{2, 2, 2}) {
		t.Fatalf("c2 ddv = %v", got)
	}
	forcedBefore := b.stats["clc.committed.c2.forced"]

	// A direct message from c0 with SN 2 now forces nothing: c2 already
	// knows about c0's checkpoint transitively (§7's rationale).
	c0.Send(c2.ID(), payload(c0.ID(), 2))
	b.pump()
	if got := b.stats["clc.committed.c2.forced"]; got != forcedBefore {
		t.Fatalf("transitive knowledge should prevent the force: %d -> %d", forcedBefore, got)
	}
	if len(b.app(2, 0).delivered) != 2 {
		t.Fatal("message not delivered")
	}
}

func TestResendRuleOnRollbackAlert(t *testing.T) {
	b := newTestbed(t, []int{1, 1}, 0, false)
	src, dst := b.node(0, 0), b.node(1, 0)
	src.Send(dst.ID(), payload(src.ID(), 1)) // forces CLC 2, acked with SN 2
	b.pump()
	b.commitCLC(1)                           // cluster 1 commits CLC 3
	src.Send(dst.ID(), payload(src.ID(), 2)) // acked with SN 3
	b.pump()
	if src.LogLen() != 2 {
		t.Fatalf("log len = %d", src.LogLen())
	}

	// Cluster 1 announces a rollback to SN 3: the message acked with 2
	// is captured by CLC 3 and is NOT resent; the message acked with 3
	// was delivered after CLC 3 committed and IS resent.
	src.OnMessage(dst.ID(), RollbackAlert{Cluster: 1, NewSN: 3, NewEpoch: 1})
	resent := 0
	for _, m := range b.queue {
		// The pooled send path queues *AppMsg boxes.
		am, ok := m.msg.(AppMsg)
		if !ok {
			if p, pok := m.msg.(*AppMsg); pok {
				am, ok = *p, true
			}
		}
		if ok && am.Resend {
			resent++
			if am.Payload.ID.Seq != 2 {
				t.Fatalf("resent wrong message %v", am.Payload.ID)
			}
			if am.DstEpoch != 1 {
				t.Fatalf("resend DstEpoch = %d", am.DstEpoch)
			}
		}
	}
	if resent != 1 {
		t.Fatalf("resent = %d, want 1", resent)
	}
	b.queue = nil // drop; this unit test only inspects the resend set
}

func TestClusterRollbackRestoresState(t *testing.T) {
	b := newTestbed(t, []int{3, 1}, 1, false)
	leader := b.node(0, 0)

	// Some intra-cluster traffic, then a checkpoint, then more traffic.
	b.node(0, 1).Send(b.node(0, 2).ID(), payload(b.node(0, 1).ID(), 1))
	b.pump()
	b.commitCLC(0)
	b.node(0, 1).Send(b.node(0, 2).ID(), payload(b.node(0, 1).ID(), 2))
	b.pump()
	if got := len(b.app(0, 2).delivered); got != 2 {
		t.Fatalf("delivered before failure = %d", got)
	}

	// Node 2 fails; the detector notifies the leader.
	b.node(0, 2).Fail()
	b.node(0, 2).Restart()
	leader.OnFailureDetected(b.node(0, 2).ID())
	b.pump()

	for i := 0; i < 3; i++ {
		n := b.node(0, i)
		if n.SN() != 2 || n.CurrentEpoch() != 1 {
			t.Fatalf("node %d: sn=%d epoch=%d", i, n.SN(), n.CurrentEpoch())
		}
		if n.Frozen() {
			t.Fatalf("node %d still frozen after resume", i)
		}
	}
	// The post-checkpoint delivery was rolled back.
	if got := len(b.app(0, 2).delivered); got != 1 {
		t.Fatalf("delivered after rollback = %d, want 1", got)
	}
	// The restarted node rebuilt its checkpoint list from its
	// neighbour's metadata.
	if got := b.node(0, 2).StoredCount(); got != 2 {
		t.Fatalf("restarted node stores %d CLCs", got)
	}
	if b.stats["storage.recovered_states"] != 1 {
		t.Fatalf("recovered states = %d", b.stats["storage.recovered_states"])
	}
	// Cluster 1 received an alert.
	if b.stats["rollback.alerts_sent"] != 1 {
		t.Fatalf("alerts = %d", b.stats["rollback.alerts_sent"])
	}
}

func TestCascadingRollbackAcrossClusters(t *testing.T) {
	b := newTestbed(t, []int{2, 2}, 1, false)
	c0l, c1l := b.node(0, 0), b.node(1, 0)

	b.commitCLC(0)
	c0l.Send(b.node(1, 1).ID(), payload(c0l.ID(), 1)) // forces CLC in c1
	b.pump()
	if c1l.SN() != 2 {
		t.Fatalf("c1 sn=%d", c1l.SN())
	}
	b.commitCLC(1) // an extra CLC in c1 after the dependency

	// Cluster 0 fails: roll back to its last CLC (SN 2); cluster 1's
	// DDV entry for c0 is 2 >= 2, so it must cascade to its oldest CLC
	// with entry >= 2 — the forced CLC 2.
	b.node(0, 1).Fail()
	b.node(0, 1).Restart()
	c0l.OnFailureDetected(b.node(0, 1).ID())
	b.pump()

	if c0l.SN() != 2 {
		t.Fatalf("c0 sn=%d", c0l.SN())
	}
	for i := 0; i < 2; i++ {
		n := b.node(1, i)
		if n.SN() != 2 || n.CurrentEpoch() != 1 {
			t.Fatalf("c1 node %d: sn=%d epoch=%d (no cascade?)", i, n.SN(), n.CurrentEpoch())
		}
	}
	if b.stats["rollback.cascaded"] != 1 {
		t.Fatalf("cascaded = %d", b.stats["rollback.cascaded"])
	}
	if b.stats["invariant.rollback_target_missing"] != 0 {
		t.Fatal("rollback target missing")
	}
}

func TestIndependentClusterSurvivesForeignFailure(t *testing.T) {
	b := newTestbed(t, []int{2, 2}, 1, false)
	// No inter-cluster traffic at all: "it is independent checkpointing
	// if there are no inter-cluster messages" (§6).
	b.commitCLC(0)
	b.commitCLC(1)
	b.commitCLC(1)

	b.node(0, 1).Fail()
	b.node(0, 1).Restart()
	b.node(0, 0).OnFailureDetected(b.node(0, 1).ID())
	b.pump()

	for i := 0; i < 2; i++ {
		n := b.node(1, i)
		if n.SN() != 3 || n.CurrentEpoch() != 0 {
			t.Fatalf("cluster 1 perturbed: sn=%d epoch=%d", n.SN(), n.CurrentEpoch())
		}
	}
}

func TestGarbageCollectionDropsOldCLCs(t *testing.T) {
	sizes := []int{2, 2}
	b := newTestbed(t, sizes, 1, false)
	// Make the leader of cluster 0 the GC initiator.
	b.node(0, 0).cfg.GCInitiator = true

	for k := 0; k < 5; k++ {
		b.commitCLC(0)
		b.commitCLC(1)
	}
	if got := b.node(0, 1).StoredCount(); got != 6 {
		t.Fatalf("stored before GC = %d", got)
	}
	b.node(0, 0).OnTimer(TimerGC)
	b.pump()

	// No inter-cluster dependencies: every cluster can only ever roll
	// back to its own last CLC, so exactly one survives per node.
	for _, n := range b.nodes {
		if got := n.StoredCount(); got != 1 {
			t.Fatalf("node %v stores %d CLCs after GC", n.ID(), got)
		}
	}
	if b.stats["gc.rounds_completed"] != 1 {
		t.Fatalf("gc rounds = %v", b.stats)
	}

	// Rollback still works after GC.
	b.node(0, 1).Fail()
	b.node(0, 1).Restart()
	b.node(0, 0).OnFailureDetected(b.node(0, 1).ID())
	b.pump()
	if b.stats["invariant.rollback_target_missing"] != 0 {
		t.Fatal("GC removed a needed checkpoint")
	}
	if b.node(0, 0).SN() != 6 {
		t.Fatalf("post-GC rollback sn=%d", b.node(0, 0).SN())
	}
}

func TestGarbageCollectionKeepsCrossClusterTargets(t *testing.T) {
	b := newTestbed(t, []int{1, 1}, 0, false)
	b.node(0, 0).cfg.GCInitiator = true
	src, dst := b.node(0, 0), b.node(1, 0)

	b.commitCLC(0)                           // c0 at SN 2
	src.Send(dst.ID(), payload(src.ID(), 1)) // c1 forces CLC 2
	b.pump()
	b.commitCLC(0) // c0 at SN 3
	b.commitCLC(1) // c1 at SN 3
	b.commitCLC(1) // c1 at SN 4

	src.OnTimer(TimerGC)
	b.pump()

	// If c0 fails it restores SN 3; c1's DDV entry for c0 is 2 < 3, so
	// c1 keeps SN 4. If c1 fails it restores SN 4; c0's entry for c1 is
	// 0 < 4: no cascade. So min SNs are (3, 4): each cluster keeps only
	// its newest CLC.
	if got := src.StoredCount(); got != 1 {
		t.Fatalf("c0 stores %d", got)
	}
	if got := dst.StoredCount(); got != 1 {
		t.Fatalf("c1 stores %d", got)
	}
	// And the logged message, acknowledged with SN 1 < 3, was purged.
	if got := src.LogLen(); got != 0 {
		t.Fatalf("log len after GC = %d", got)
	}
}

func TestRingGCEquivalentToCentralized(t *testing.T) {
	for _, ring := range []bool{false, true} {
		b := newTestbed(t, []int{1, 1, 1}, 0, false)
		init := b.node(0, 0)
		init.cfg.GCInitiator = true
		init.cfg.RingGC = ring

		b.commitCLC(0)
		b.node(0, 0).Send(b.node(1, 0).ID(), payload(b.node(0, 0).ID(), 1))
		b.pump()
		for k := 0; k < 3; k++ {
			b.commitCLC(0)
			b.commitCLC(1)
			b.commitCLC(2)
		}
		init.OnTimer(TimerGC)
		b.pump()
		if b.stats["gc.rounds_completed"] != 1 {
			t.Fatalf("ring=%v: rounds = %d", ring, b.stats["gc.rounds_completed"])
		}
		for _, n := range b.nodes {
			if n.StoredCount() < 1 || n.StoredCount() > 2 {
				t.Fatalf("ring=%v: node %v stores %d", ring, n.ID(), n.StoredCount())
			}
		}
		// A post-GC failure in each cluster must still resolve.
		lists := [][]Meta{b.node(0, 0).StoredMetas(), b.node(1, 0).StoredMetas(), b.node(2, 0).StoredMetas()}
		currents := []DDV{b.node(0, 0).DDVSnapshot(), b.node(1, 0).DDVSnapshot(), b.node(2, 0).DDVSnapshot()}
		for f := 0; f < 3; f++ {
			if _, err := simulateFailure(t, lists, currents, topology.ClusterID(f)); err != nil {
				t.Fatalf("ring=%v faulty=%d: %v", ring, f, err)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mk := func(mut func(*Config)) func() {
		return func() {
			cfg := Config{
				ID:           topology.NodeID{Cluster: 0, Index: 0},
				Clusters:     2,
				ClusterSizes: []int{2, 2},
			}
			mut(&cfg)
			NewNode(cfg, &mockEnv{timers: map[TimerKind]sim.Duration{}, bed: &testbed{stats: map[string]uint64{}}}, &mockApp{})
		}
	}
	cases := map[string]func(){
		"size mismatch":  mk(func(c *Config) { c.ClusterSizes = []int{2} }),
		"bad cluster":    mk(func(c *Config) { c.ID.Cluster = 5 }),
		"bad index":      mk(func(c *Config) { c.ID.Index = 7 }),
		"replica excess": mk(func(c *Config) { c.Replicas = 2 }),
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMessageWireSizes(t *testing.T) {
	m := AppMsg{Payload: AppPayload{Size: 100}}
	if m.WireSize() <= 100 {
		t.Fatal("wire size must include protocol overhead")
	}
	withDDV := AppMsg{Payload: AppPayload{Size: 100}, Piggy: SparseDDV{Width: 8}}
	if withDDV.WireSize() <= m.WireSize() {
		t.Fatal("piggybacked DDV must cost wire bytes")
	}
	if controlSize(Replica{Size: 1 << 20}) < 1<<20 {
		t.Fatal("replica transfer must be priced at state size")
	}
	if controlSize(CLCAck{}) <= 0 {
		t.Fatal("control messages must have positive size")
	}
}

func ExampleDDV_String() {
	fmt.Println(DDV{3, 0, 4})
	// Output: [3 0 4]
}
