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
// selects the HC3I protocol. stats is the run's registry: core nodes
// report their statistics as events through env, the baselines, which
// are not core, count into it directly.
type NodeFactory func(cfg core.Config, env core.Env, hooks core.AppHooks, stats *sim.Stats) ProtocolNode

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
	// benchmark alike.
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

	// oracle, when non-nil, is the run's invariant checker; chaosSched
	// the adversarial scheduler. Both are nil on plain runs.
	oracle     *oracle.Oracle
	chaosSched *chaos.Scheduler

	// sends is the end-of-run send bitset (see Fed.sendSet).
	sends sendSet

	// clusterStats holds each cluster's statistics and globalStats the
	// federation-wide counters by kind, as the node envs count them.
	clusterStats []clusterStats
	globalStats  [core.NumEventKinds]*sim.Counter
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
		stats:   sim.NewStatsHint(64 + 96*nc),
		ix:      ix,
		nodes:   make([]ProtocolNode, nodeCount),
		apps:    make([]*app.NodeApp, nodeCount),
		senders: make([]*appSender, nodeCount),
		timers:  make([]*sim.Timer, int(core.NumTimerKinds)*nodeCount),
		pending: make([]sim.EventRef, nodeCount),

		clusterStats: make([]clusterStats, nc),
	}
	f.engine.MaxEvents = opts.MaxEvents
	if opts.TraceWriter != nil {
		f.tracer = sim.NewTracer(f.engine, opts.TraceWriter, opts.TraceLevel)
	}
	f.net = netsim.New(f.engine, opts.Topology, f.stats, f.tracer)
	if opts.UnbatchedWire {
		f.net.DisableBatching()
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
		}
		env := &nodeEnv{f: f, id: id, ord: ord, idStr: id.String()}
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
			pn = opts.NodeFactory(cfg, env, na, f.stats)
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

// nodeEnv adapts the federation to core.Env for one node. It also
// implements core.BoxPool, handing the protocol recycled message boxes
// so the steady-state send path performs no interface-boxing allocation,
// core.BoxReclaimer (msgBoxes.reclaim runs after every OnMessage) and
// core.EventSink: every run counts its statistics from the events.
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

// Event counts a protocol event's statistic, renders the event as one
// trace line, formatting nothing unless the tracer reports its level,
// then hands it to the run's oracle, if any. The per-message kinds
// (deliveries, piggyback sends) are at sim.TraceOff: a run that only
// traces drops them after the check.
func (e *nodeEnv) Event(ev core.Event) {
	if form := ev.Kind.StatForm(e.id); form != core.NoStat {
		e.f.count(e.id.Cluster, form, &ev)
	}
	if e.f.tracer != nil {
		if l := ev.Level(); e.f.tracer.Enabled(l) {
			e.f.tracer.Emit(l, e.idStr, "%s", ev.String())
		}
	}
	if e.f.oracle != nil {
		e.f.oracle.Observe(e.id, ev)
	}
}

// count feeds ev, observed in cluster c, to its statistic.
func (f *Fed) count(c topology.ClusterID, form core.StatForm, ev *core.Event) {
	i, ok := ev.Kind.ClusterStat()
	if !ok {
		g := f.globalStats[ev.Kind]
		if g == nil {
			g = f.stats.Counter(ev.Kind.StatName())
			f.globalStats[ev.Kind] = g
		}
		g.Add(form.Delta(ev.Value))
		return
	}
	if form == core.StatPoint {
		f.series(c, i).Record(f.engine.Now(), ev.Value)
		return
	}
	f.counter(c, i).Add(form.Delta(ev.Value))
	if j, ok := ev.Kind.AlsoStat(ev.Forced); ok {
		f.counter(c, j).Inc()
	}
}

// clusterStats is one cluster's statistics, each resolved in the
// registry on its first use: resolving registers it, so a statistic
// the run never observed stays out of its dump.
type clusterStats struct {
	names    core.StatNames // rendered with the first resolution
	counters [core.NumClusterStats]*sim.Counter
	series   [core.NumClusterStats]*sim.Series
}

// statName returns the name of cluster c's statistic i.
func (f *Fed) statName(c topology.ClusterID, i int) string {
	cs := &f.clusterStats[c]
	if cs.names == (core.StatNames{}) {
		cs.names = core.NewStatNames(c)
	}
	return cs.names.Cluster(i)
}

// counter returns cluster c's counter i, resolving it on first use.
func (f *Fed) counter(c topology.ClusterID, i int) *sim.Counter {
	p := &f.clusterStats[c].counters[i]
	if *p == nil {
		*p = f.stats.Counter(f.statName(c, i))
	}
	return *p
}

// series returns cluster c's series i, resolving it on first use.
func (f *Fed) series(c topology.ClusterID, i int) *sim.Series {
	p := &f.clusterStats[c].series[i]
	if *p == nil {
		*p = f.stats.Series(f.statName(c, i))
	}
	return *p
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
