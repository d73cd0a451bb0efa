// Package federation assembles complete simulated cluster federations:
// topology, network model, workload, failure injection and one protocol
// node per simulated node, all driven by the discrete event engine. It
// is the equivalent of the paper's C++SIM simulator main program, which
// combined a Nodes thread, a Network thread, a Timers thread and a
// Controller (§5.1).
package federation

import (
	"fmt"
	"io"
	"time"

	"repro/internal/app"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ProtocolNode is the protocol-agnostic surface the harness drives;
// core.Node implements it, and so do the baseline protocols.
type ProtocolNode interface {
	Start()
	Send(dst topology.NodeID, p core.AppPayload)
	OnMessage(src topology.NodeID, msg core.Msg)
	OnTimer(k core.TimerKind)
	OnFailureDetected(failed topology.NodeID)
	Fail()
	Restart()
	Failed() bool
	SN() core.SN
	StoredCount() int
}

// NodeFactory builds one protocol node; leaving Options.NodeFactory nil
// selects the HC3I protocol.
type NodeFactory func(cfg core.Config, env core.Env, hooks core.AppHooks) ProtocolNode

// Crash is an explicitly scheduled node failure.
type Crash struct {
	At   sim.Time
	Node topology.NodeID
}

// Options configures one simulation run. The three groups mirror the
// paper's three simulator input files: Topology (clusters, links,
// MTBF), Workload (application) and the timer values.
type Options struct {
	Topology *topology.Federation
	Workload *app.Workload

	// CLCPeriods is the per-cluster delay between unforced CLCs (the
	// paper's per-cluster timer); len must equal the cluster count.
	CLCPeriods []sim.Duration
	// GCPeriod is the garbage-collection period (sim.Forever = off).
	GCPeriod sim.Duration
	// GCMemoryThreshold makes nodes demand a collection once their
	// fault-tolerance memory exceeds this many bytes (0 = off).
	GCMemoryThreshold uint64
	// RingGC selects the distributed GC variant.
	RingGC bool
	// Transitive enables full-DDV piggybacking.
	Transitive bool
	// DenseWire selects the dense DDV wire encoding instead of the
	// default delta form (see core/delta.go). Both are priced
	// identically and produce identical results. Only tests set it:
	// this package's delta-wire differentials, and internal/experiments'
	// differential suites and transitive chaos and trace-link runs
	// (through an unexported Config field). The delta wire refuses
	// transitive Chaos and LinkTrace (see fill, New); this one runs them.
	DenseWire bool
	// UnbatchedWire schedules every network delivery as its own event
	// instead of the default batched pipe deliveries (see
	// netsim.DisableBatching). Purely a scheduling-mechanics switch —
	// results are byte-identical either way. Only the batching
	// differential suites set it, through an unexported
	// experiments.Config field.
	UnbatchedWire bool
	// Replicas is the stable-storage replication degree (default 1,
	// capped at cluster size - 1). -1 disables replication entirely
	// (measurement runs only: crashes then lose state).
	Replicas int

	// Seed drives all randomness; identical options + seed => identical run.
	Seed uint64

	// TraceWriter/TraceLevel enable the simulator's trace output.
	TraceWriter io.Writer
	TraceLevel  sim.TraceLevel

	// Crashes schedules explicit failures; MTBFFailures additionally
	// draws failures from the topology's MTBF.
	Crashes        []Crash
	MTBFFailures   bool
	DetectionDelay sim.Duration

	// NodeFactory overrides the protocol under test (baselines).
	NodeFactory NodeFactory

	// MaxEvents aborts runaway simulations (0 = a generous default).
	MaxEvents uint64

	// Watchdog, when > 0, bounds the run's wall-clock time: a timer
	// interrupts the event engine after this long and the run
	// returns an error wrapping sim.ErrInterrupted instead of stalling
	// its caller. Long-running sweep harnesses (the soak service,
	// hc3ibench -run-timeout) use it to record a wedged run and move
	// on. Purely a harness guard: a run that finishes in time is
	// byte-identical with and without it.
	Watchdog time.Duration

	// Oracle attaches the online protocol invariant checker
	// (internal/oracle) to the run: every commit, rollback, delivery
	// and GC drop is checked against the paper's global safety
	// properties, and the first violation aborts the run with a
	// diagnostic. Pure observation — results are byte-identical with
	// and without it.
	Oracle bool

	// Chaos layers the seeded adversarial scheduler (internal/chaos)
	// over the network: bounded inter-cluster reordering, duplicate
	// deliveries and crash injection targeted at protocol-sensitive
	// windows, all replayable from Chaos.Seed. The chaos tier sets it
	// (experiments.ScenarioOptions), for hc3ibench, hc3isoak and the
	// benchmark alike. Incompatible with delta-encoded transitive
	// piggybacks (duplicates would desync the pipe codecs); only the
	// DenseWire reference runs transitive chaos.
	Chaos *chaos.Config

	// LinkTrace replays a measured (latency, jitter, loss) schedule
	// over every inter-cluster link (see netsim.TracePerturber). The
	// topology's inter links must declare the trace's minimum latency
	// as their static latency; the perturber adds the surplus. Draws
	// come from per-pipe streams keyed by the run seed, so batched and
	// unbatched runs are byte-identical. Mutually exclusive with Chaos
	// (both claim the network's perturbation hook).
	LinkTrace *netsim.LinkTrace

	// Arena, when non-nil, supplies pooled per-run scratch (the event
	// engine); sweep harnesses share one arena across their runs and
	// call Fed.Release after collecting each Result. Nil means every
	// run allocates fresh — results are identical either way.
	Arena *Arena
}

func (o *Options) fill() error {
	if o.Topology == nil {
		return fmt.Errorf("federation: nil topology")
	}
	if err := o.Topology.Validate(); err != nil {
		return err
	}
	if o.Workload == nil {
		return fmt.Errorf("federation: nil workload")
	}
	if err := o.Workload.Validate(o.Topology); err != nil {
		return err
	}
	// Rebuild the workload's cached rate sums: sweep harnesses reuse
	// one Workload across points while editing RatesPerHour, and a
	// stale cache would silently missize every node.
	o.Workload.Freeze()
	if o.LinkTrace != nil {
		if o.Chaos != nil {
			return fmt.Errorf("federation: LinkTrace and Chaos both claim the network perturbation hook; run them separately")
		}
		if o.Transitive && !o.DenseWire {
			return fmt.Errorf("federation: trace-driven links cannot run on delta-encoded transitive piggybacks (reordered exits would desync the pipe codecs); set DenseWire")
		}
	}
	n := o.Topology.NumClusters()
	if o.CLCPeriods == nil {
		o.CLCPeriods = make([]sim.Duration, n)
		for i := range o.CLCPeriods {
			o.CLCPeriods[i] = 30 * sim.Minute
		}
	}
	if len(o.CLCPeriods) != n {
		return fmt.Errorf("federation: %d CLC periods for %d clusters", len(o.CLCPeriods), n)
	}
	if o.GCPeriod == 0 {
		o.GCPeriod = sim.Forever
	}
	if o.Replicas == 0 {
		o.Replicas = 1
	}
	if o.Replicas < 0 {
		o.Replicas = 0
	}
	if o.DetectionDelay == 0 {
		o.DetectionDelay = 2 * sim.Second
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 200_000_000
	}
	return nil
}

// Fed is one assembled simulation. Per-node state lives in flat slices
// indexed by the topology's dense node ordinal — NodeID-keyed maps put
// struct hashing on every delivery and timer operation.
type Fed struct {
	opts    Options
	engine  *sim.Engine
	stats   *sim.Stats
	tracer  *sim.Tracer
	net     *netsim.Network
	ix      topology.NodeIndex
	nodes   []ProtocolNode
	apps    []*app.NodeApp
	senders []*appSender   // bound once; closure-free send scheduling
	timers  []*sim.Timer   // core.NumTimerKinds per node: [kinds*ord+kind]
	pending []sim.EventRef // next app send event per node
	inject  *failure.Injector
	boxes   msgBoxes

	// piggyCodecs holds the delta codec of each directed cluster-pair
	// pipe (pair src*nClusters+dst) that carried a piggyback, when
	// deltaWire is set: transitive runs on the delta wire. The codecs
	// conceptually live in the cluster gateways (the pipes netsim
	// serializes inter-cluster traffic through), which is why node
	// crashes do not reset them.
	piggyCodecs topology.PairTable[*core.DeltaCodec]
	deltaWire   bool
	nClusters   int

	// oracle, when non-nil, is the run's invariant checker; chaosSched
	// the adversarial scheduler. Both are nil on plain runs.
	oracle     *oracle.Oracle
	chaosSched *chaos.Scheduler

	// sends is the end-of-run send bitset (see Fed.sendSet).
	sends sendSet
}

// msgBoxes recycles the wire-message boxes of the per-message protocol
// hot path (core.BoxPool). A box is acquired by the sending node,
// travels through the event queue, and is reclaimed right after the
// destination's OnMessage returns — the protocol copies anything it
// keeps. Boxes dropped by the network (down destinations) simply fall
// back to the garbage collector.
type msgBoxes struct {
	appMsgs []*core.AppMsg
	appAcks []*core.AppAck
}

// appSender is the pre-bound argument for the closure-free application
// send path: one boxed pointer per node, created at assembly, so
// scheduling a send allocates neither a closure nor an interface box.
type appSender struct {
	f   *Fed
	ord int
}

// fireSendCall is the package-level trampoline handed to
// Engine.ScheduleCall for application sends.
func fireSendCall(arg any) {
	s := arg.(*appSender)
	s.f.fireSend(s.ord)
}

// New assembles a federation simulation.
func New(opts Options) (*Fed, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	ix := opts.Topology.Index()
	nodeCount := ix.Len()
	nc := opts.Topology.NumClusters()
	f := &Fed{
		opts:   opts,
		engine: opts.Arena.engine(),
		// The counter cardinality is dominated by the network's
		// per-(event, kind, cluster-pair) counters plus a fixed
		// protocol set. Pairs register lazily on first traffic, and
		// every workload in the repertoire has bounded per-cluster
		// fan-out, so size linearly in nc — a quadratic presize
		// would memclr millions of map slots per federation at 1024c.
		stats:     sim.NewStatsHint(64 + 96*nc),
		ix:        ix,
		nodes:     make([]ProtocolNode, nodeCount),
		apps:      make([]*app.NodeApp, nodeCount),
		senders:   make([]*appSender, nodeCount),
		timers:    make([]*sim.Timer, int(core.NumTimerKinds)*nodeCount),
		pending:   make([]sim.EventRef, nodeCount),
		nClusters: nc,
	}
	f.engine.MaxEvents = opts.MaxEvents
	if opts.TraceWriter != nil {
		f.tracer = sim.NewTracer(f.engine, opts.TraceWriter, opts.TraceLevel)
	}
	f.net = netsim.New(f.engine, opts.Topology, f.stats, f.tracer)
	if opts.UnbatchedWire {
		f.net.DisableBatching()
	}
	if opts.Transitive && !opts.DenseWire {
		if opts.Chaos != nil {
			return nil, fmt.Errorf("federation: chaos scheduling cannot run on delta-encoded transitive piggybacks (duplicate deliveries would desync the pipe codecs); set DenseWire")
		}
		f.deltaWire = true
		f.net.PipeExit = f.pipeExit
	}
	if opts.Oracle {
		f.oracle = oracle.New(nc)
		f.oracle.Clock = f.engine.Now
		// Fail fast: the first violation stops the event loop, so the
		// run aborts at the offending event instead of compounding.
		f.oracle.OnFirstViolation = f.engine.Stop
	}

	root := sim.NewRNG(opts.Seed)
	fed := opts.Topology
	sizes := make([]int, fed.NumClusters())
	for i, c := range fed.Clusters {
		sizes[i] = c.Nodes
	}

	for nodeSeq, id := range fed.AllNodes() {
		appRNG := root.StreamN("app", nodeSeq)
		ord := ix.Ord(id)
		repl := opts.Replicas
		if repl > sizes[id.Cluster]-1 {
			repl = sizes[id.Cluster] - 1
		}
		cfg := core.Config{
			ID:                id,
			Clusters:          fed.NumClusters(),
			ClusterSizes:      sizes,
			CLCPeriod:         opts.CLCPeriods[id.Cluster],
			GCPeriod:          opts.GCPeriod,
			GCInitiator:       id.Cluster == 0 && id.Index == 0,
			GCMemoryThreshold: opts.GCMemoryThreshold,
			RingGC:            opts.RingGC,
			Transitive:        opts.Transitive,
			Replicas:          repl,
			DenseWire:         opts.DenseWire,
		}
		ne := &nodeEnv{f: f, id: id, ord: ord, idStr: id.String()}
		var env core.Env = ne
		if f.oracle != nil || f.tracer.Enabled(sim.TraceInfo) {
			env = sinkEnv{ne}
		}
		na := app.NewNodeApp(id, opts.Workload, fed, appRNG)
		na.Now = f.engine.Now
		na.Restored = func() { f.scheduleNextSend(ord) }
		na.OnLost = func(d sim.Duration) {
			f.stats.Summary("app.lost_work_seconds").Observe(d.Seconds())
		}
		f.apps[ord] = na
		f.senders[ord] = &appSender{f: f, ord: ord}

		var pn ProtocolNode
		if opts.NodeFactory != nil {
			pn = opts.NodeFactory(cfg, env, na)
		} else {
			pn = core.NewNode(cfg, env, na)
		}
		f.nodes[ord] = pn
		f.net.Register(id, func(m netsim.Message) {
			msg := m.Payload.(core.Msg)
			pn.OnMessage(m.Src, msg)
			f.boxes.reclaim(msg)
		})
	}

	// Pre-distribute initial checkpoints to stable storage (HC3I only).
	for _, id := range fed.AllNodes() {
		if hn, ok := f.nodes[ix.Ord(id)].(*core.Node); ok {
			for _, tgt := range hn.ReplicaTargets() {
				f.nodes[ix.Ord(tgt)].(*core.Node).SeedReplica(hn.InitialReplica())
			}
		}
	}

	f.inject = failure.NewInjector(f.engine, fed, root.Stream("failures"), failure.Hooks{
		Crash:  f.crash,
		Detect: f.detect,
	})
	f.inject.DetectionDelay = opts.DetectionDelay
	for _, c := range opts.Crashes {
		f.inject.CrashAt(c.At, c.Node)
	}
	if opts.MTBFFailures {
		f.inject.EnableMTBF()
	}
	// Deriving a stream advances the root RNG, so the "net" stream
	// (per-message jitter on links with a Jitter bound) must be the
	// last derivation: every pre-existing stream then draws exactly the
	// seeds it always did, keeping historical runs byte-identical.
	f.net.SetRNG(root.Stream("net"))
	if opts.Chaos != nil {
		// The chaos stream is deliberately independent of the run's
		// root RNG: (chaos options, chaos seed) alone replays the
		// adversarial schedule, whatever the workload seed did.
		cc := *opts.Chaos
		if cc.Seed == 0 {
			cc.Seed = opts.Seed
		}
		f.chaosSched = chaos.New(cc, sim.NewRNG(cc.Seed).Stream("chaos"), chaos.Hooks{
			Now:     f.engine.Now,
			CrashAt: f.inject.CrashAt,
		})
		f.net.Perturb = f.chaosSched
	}
	if opts.LinkTrace != nil {
		// The trace perturber draws from per-pipe streams keyed by the
		// run seed alone, leaving the root RNG's derivation order
		// untouched. fill() already rejected the Chaos combination.
		tp := netsim.NewTracePerturber(opts.LinkTrace, opts.Topology, opts.Seed, f.engine.Now)
		tp.Retransmits = f.stats.Counter("net.trace.retransmits")
		f.net.Perturb = tp
	}
	return f, nil
}

// Oracle exposes the run's invariant checker (nil unless
// Options.Oracle).
func (f *Fed) Oracle() *oracle.Oracle { return f.oracle }

// ChaosOps reports how many perturbation actions the run's adversarial
// schedule applied (0 without Options.Chaos). Valid whether the run
// finished cleanly or aborted on a violation — the failure minimizer
// reads it off a failing run to bound its prefix search.
func (f *Fed) ChaosOps() int {
	if f.chaosSched == nil {
		return 0
	}
	return f.chaosSched.Ops()
}

// Engine exposes the underlying event engine (tests, tools).
func (f *Fed) Engine() *sim.Engine { return f.engine }

// Stats exposes the statistics registry.
func (f *Fed) Stats() *sim.Stats { return f.stats }

// Node returns the protocol node with the given identity.
func (f *Fed) Node(id topology.NodeID) ProtocolNode { return f.nodes[f.ix.Ord(id)] }

// App returns the simulated application of one node.
func (f *Fed) App(id topology.NodeID) *app.NodeApp { return f.apps[f.ix.Ord(id)] }

// reclaim returns a pooled wire-message box after its delivery was
// dispatched. Zeroing drops payload references so the pool retains no
// dead application data.
func (b *msgBoxes) reclaim(msg core.Msg) {
	switch m := msg.(type) {
	case *core.AppMsg:
		*m = core.AppMsg{}
		b.appMsgs = append(b.appMsgs, m)
	case *core.AppAck:
		*m = core.AppAck{}
		b.appAcks = append(b.appAcks, m)
	case core.ReclaimableMsg:
		// Sender-owned boxes (core.Box: the checkpoint round's control
		// messages, the baselines' wire envelopes) return to the free
		// list of the node that sent them.
		m.ReclaimMsgBox()
	}
}

// piggyCodec returns (allocating on first use) the delta codec of the
// directed pipe src→dst, or nil when the run transports piggybacks
// dense.
func (f *Fed) piggyCodec(src, dst topology.ClusterID) *core.DeltaCodec {
	if !f.deltaWire {
		return nil
	}
	slot := f.piggyCodecs.Get(int(src)*f.nClusters + int(dst))
	if *slot == nil {
		cd := new(core.DeltaCodec)
		cd.Init(f.nClusters)
		*slot = cd
	}
	return *slot
}

// pipeExit is the netsim.PipeExit hook: it advances the pipe's decoder
// for every delta-piggybacked message leaving the pipe, in FIFO order,
// whether or not the destination node is still up — which keeps the
// decoder in lockstep with the encoder across node failures.
func (f *Fed) pipeExit(src, dst topology.NodeID, payload any) {
	var pairs []core.DDVPair
	width := int32(0)
	switch m := payload.(type) {
	case *core.AppMsg:
		pairs, width = m.PiggyPairs, m.PiggyWidth
	case core.AppMsg:
		pairs, width = m.PiggyPairs, m.PiggyWidth
	default:
		return
	}
	if len(pairs) == 0 && (f.oracle == nil || width == 0) {
		// Dense piggybacks (resends) and empty deltas advance nothing;
		// an oracle additionally checks the lockstep of empty deltas
		// below (the decoder must already hold the message's vector).
		return
	}
	cd := f.piggyCodec(src.Cluster, dst.Cluster)
	if len(pairs) > 0 {
		cd.Decode(pairs)
	}
	if f.oracle != nil && width > 0 {
		f.oracle.CheckPipeExit(src.Cluster, dst.Cluster, cd.Current())
	}
}

// nodeEnv adapts the federation to core.Env for one node. It also
// implements core.BoxPool, handing the protocol recycled message boxes
// so the steady-state send path performs no interface-boxing allocation,
// core.BoxReclaimer (msgBoxes.reclaim runs after every OnMessage) and
// core.PiggyCodecs, exposing the per-pipe delta codecs. It is not a
// core.EventSink: a run whose tracer or oracle consumes events wraps it
// in sinkEnv, so a run without either pays one nil check per event and
// builds nothing for it.
type nodeEnv struct {
	f     *Fed
	id    topology.NodeID
	ord   int
	idStr string // pre-rendered: tracing must not format when disabled
}

func (e *nodeEnv) Now() sim.Time { return e.f.engine.Now() }

func (e *nodeEnv) Send(dst topology.NodeID, size int, msg core.Msg) {
	e.f.net.Send(e.id, dst, netsim.KindProto, size, msg)
}

func (e *nodeEnv) SendApp(dst topology.NodeID, size int, msg core.Msg) {
	e.f.net.Send(e.id, dst, netsim.KindApp, size, msg)
}

func (e *nodeEnv) AppMsgBox() *core.AppMsg {
	b := &e.f.boxes
	if last := len(b.appMsgs) - 1; last >= 0 {
		m := b.appMsgs[last]
		b.appMsgs = b.appMsgs[:last]
		return m
	}
	return new(core.AppMsg)
}

// ReclaimsMsgBoxes implements core.BoxReclaimer: every delivery's
// message goes through msgBoxes.reclaim once its OnMessage returns.
func (e *nodeEnv) ReclaimsMsgBoxes() {}

func (e *nodeEnv) PiggyCodec(src, dst topology.ClusterID) *core.DeltaCodec {
	return e.f.piggyCodec(src, dst)
}

func (e *nodeEnv) ResetPiggyExam(dst topology.ClusterID) {
	f := e.f
	f.piggyCodecs.Each(func(pair int, cd **core.DeltaCodec) {
		if pair%f.nClusters == int(dst) {
			(*cd).ResetSeen()
		}
	})
}

func (e *nodeEnv) AppAckBox() *core.AppAck {
	b := &e.f.boxes
	if last := len(b.appAcks) - 1; last >= 0 {
		m := b.appAcks[last]
		b.appAcks = b.appAcks[:last]
		return m
	}
	return new(core.AppAck)
}

func (e *nodeEnv) SetTimer(k core.TimerKind, d sim.Duration) {
	if k < 0 || k >= core.NumTimerKinds {
		panic(fmt.Sprintf("federation: SetTimer with unknown TimerKind %d (extend core.NumTimerKinds)", k))
	}
	slot := int(core.NumTimerKinds)*e.ord + int(k)
	t := e.f.timers[slot]
	if t == nil {
		kind := k
		// Resolve the node at fire time: a protocol constructor may arm
		// its timers before the factory's return value is stored.
		t = sim.NewTimer(e.f.engine, func(*sim.Engine) {
			if n := e.f.nodes[e.ord]; !n.Failed() {
				n.OnTimer(kind)
			}
		})
		e.f.timers[slot] = t
	}
	t.Reset(d)
}

// sinkEnv is nodeEnv with core.EventSink, for a run whose tracer
// prints at least TraceInfo or that attaches an oracle.
type sinkEnv struct{ *nodeEnv }

// Event renders a protocol event as one trace line, formatting nothing
// unless the tracer reports the event's level, then hands it to the
// run's oracle. The per-message kinds (deliveries, piggyback sends)
// are at sim.TraceOff: a run that only traces drops them after the two
// checks.
func (e sinkEnv) Event(ev core.Event) {
	if l := ev.Level(); e.f.tracer.Enabled(l) {
		e.f.tracer.Emit(l, e.idStr, "%s", ev.String())
	}
	if e.f.oracle != nil {
		e.f.oracle.Observe(e.id, ev)
	}
}

func (e *nodeEnv) Stat(name string, delta uint64) {
	e.f.stats.Counter(name).Add(delta)
}

func (e *nodeEnv) StatSeries(name string, value float64) {
	e.f.stats.Series(name).Record(e.f.engine.Now(), value)
}

// ---- application driving ----

// scheduleNextSend (re)schedules the node's next application send.
func (f *Fed) scheduleNextSend(ord int) {
	f.pending[ord].Cancel()
	a := f.apps[ord]
	at, ok := a.NextSend()
	if !ok {
		f.pending[ord] = sim.EventRef{}
		return
	}
	when := a.SimTimeOf(at)
	if when < f.engine.Now() {
		when = f.engine.Now()
	}
	f.pending[ord] = f.engine.ScheduleCallAt(when, fireSendCall, f.senders[ord])
}

func (f *Fed) fireSend(ord int) {
	n := f.nodes[ord]
	if n.Failed() {
		// The node is down: its application makes no progress. The
		// restore path reschedules the send after recovery.
		f.pending[ord] = sim.EventRef{}
		return
	}
	dst, payload, ok := f.apps[ord].TakeSend()
	if ok {
		n.Send(dst, payload)
		f.stats.Counter("app.generated").Inc()
	}
	f.scheduleNextSend(ord)
}

// ---- failures ----

func (f *Fed) crash(id topology.NodeID) {
	n := f.nodes[f.ix.Ord(id)]
	if n.Failed() {
		return
	}
	f.stats.Counter("failures.injected").Inc()
	f.tracer.Infof(id.String(), "CRASH injected")
	n.Fail()
	f.net.SetDown(id, true)
}

func (f *Fed) detect(id topology.NodeID) {
	// Repair: the node restarts with empty memory and rejoins.
	f.net.SetDown(id, false)
	f.nodes[f.ix.Ord(id)].Restart()
	// The detector notifies the lowest-index surviving node (§3.4
	// leaves the detector abstract); it coordinates the rollback.
	coord := f.coordinatorFor(id)
	if coord == nil {
		f.stats.Counter("failures.unrecoverable").Inc()
		return
	}
	coord.OnFailureDetected(id)
}

func (f *Fed) coordinatorFor(failed topology.NodeID) ProtocolNode {
	for i := 0; i < f.opts.Topology.Clusters[failed.Cluster].Nodes; i++ {
		id := topology.NodeID{Cluster: failed.Cluster, Index: i}
		if id == failed {
			continue
		}
		// A restarted node that has not recovered yet holds no
		// checkpoints to roll back to: it cannot coordinate.
		n := f.nodes[f.ix.Ord(id)]
		if n.Failed() {
			continue
		}
		if ls, ok := n.(interface{ LostState() bool }); ok && ls.LostState() {
			continue
		}
		return n
	}
	return nil
}
