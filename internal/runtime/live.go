package runtime

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config parameterizes a live federation.
type Config struct {
	// Clusters is the node count per cluster.
	Clusters []int
	// CLCPeriod is the wall-clock delay between unforced CLCs, per
	// cluster (defaults to 50 ms).
	CLCPeriods []time.Duration
	// GCPeriod enables garbage collection (0 = off).
	GCPeriod time.Duration
	// Replicas is the stable-storage replication degree (default 1).
	Replicas int
	// Workload, when non-nil, is the rate matrix every node's
	// app.NodeApp draws its sends from: deterministic and open-ended,
	// like liveWorkload's. Nil: nodes send only what SendApp injects.
	Workload *app.Workload
	// Transport defaults to NewChanTransport().
	Transport Transport
	// Trace, when non-nil, receives protocol trace output.
	Trace io.Writer
	// LocalNodes restricts which federation nodes this process hosts
	// (nil = all of them, the in-process default). A subset federation
	// needs a TCP transport whose address map covers every node.
	LocalNodes []topology.NodeID
	// Recovering marks this process as a restarted incarnation of its
	// LocalNodes: they boot with lost state, announce themselves to
	// their cluster (Hello) and wait passively for the rollback the
	// surviving peers initiate, exactly like an in-process Restart.
	Recovering bool
	// Journal, when non-nil, receives one JSONL line per protocol event
	// of the hosted nodes that oracle.Record maps (starts, commits,
	// restores, deliveries, GC drops), plus the runtime's own records
	// (control-message sends, hellos, suspicions, dropped sends) and,
	// once Stop has halted everything else, one stop record per node.
	Journal *Journal
}

// event is one item on a node's serial event loop.
type event struct {
	kind    int    // 0 msg, 1 timer, 2 appSend, 3 crash, 4 restart, 5 detect, 6 sync, 7 start, 8 scheduledSend, 9 recoverBoot, 10 rejoinTick
	gen     uint64 // kind 8: the arming it belongs to (see armSend)
	src     topology.NodeID
	msg     core.Msg
	timer   core.TimerKind
	dst     topology.NodeID
	payload core.AppPayload
	failed  topology.NodeID
	done    chan struct{}
}

// liveNode is one goroutine-driven protocol node.
type liveNode struct {
	id      topology.NodeID
	node    *core.Node
	app     *app.NodeApp
	mailbox chan event
	fed     *Live
	timers  map[core.TimerKind]*time.Timer
	timerMu sync.Mutex
	// names is the node's cluster statistic names (see liveEnv.Event).
	names core.StatNames
	// nextSeq numbers the sends SendApp injects (see scheduledSeq);
	// sendGen counts armSend calls, so a superseded arming's send is
	// dropped.
	nextSeq uint64
	sendGen uint64

	// recovered is closed (once) when a crash-recovery incarnation has
	// its state back; it stops the node's rejoin beacon.
	recovered     chan struct{}
	recoveredOnce sync.Once
}

// scheduledSeq marks the LogicalIDs of scheduled sends. Injected IDs
// count up from 1, or from the boot time in nanoseconds after a
// crash-recovery boot, and stay far below it.
const scheduledSeq = 1 << 63

// armSend (re)arms the node's next scheduled send on the wall clock,
// the way the simulator's scheduleNextSend arms it on the virtual one.
// A restore calls it through NodeApp.Restored.
func (n *liveNode) armSend() {
	n.sendGen++
	if at, ok := n.app.NextSend(); ok {
		gen := n.sendGen
		time.AfterFunc(n.app.SimTimeOf(at).Sub(n.app.Now()).Std(), func() {
			n.post(event{kind: 8, gen: gen})
		})
	}
}

// Live is a running live federation — all of one, or this process's
// share of a multi-process one (cfg.LocalNodes).
type Live struct {
	cfg       Config
	transport Transport
	nodes     map[topology.NodeID]*liveNode
	start     time.Time
	stats     *liveStats
	trace     io.Writer
	traceMu   sync.Mutex
	journal   *Journal
	names     topology.NameTable // every node's journal name
	stopped   chan struct{}
	wg        sync.WaitGroup

	// detectMu guards lastDetect, the per-victim timestamp of the most
	// recent failure detection (the rejoin beacon's re-trigger damper).
	detectMu   sync.Mutex
	lastDetect map[topology.NodeID]time.Time
}

type liveStats struct {
	mu       sync.Mutex
	counters map[string]uint64
}

func (s *liveStats) add(name string, d uint64) {
	s.mu.Lock()
	s.counters[name] += d
	s.mu.Unlock()
}

func (s *liveStats) value(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// liveEnv adapts the live federation to core.Env for one node. It also
// implements core.BoxPool and core.MirrorBoxPool (see boxes.go).
type liveEnv struct{ n *liveNode }

func (e liveEnv) Now() sim.Time { return sim.Time(time.Since(e.n.fed.start)) }

func (e liveEnv) Send(dst topology.NodeID, size int, msg core.Msg) {
	if j := e.n.fed.journal; j != nil {
		// Journal control-plane sends (not the app-message firehose):
		// the offline artifact that shows *why* a run did what it did,
		// and the hook the chaos harness uses to aim its SIGKILLs.
		switch msg.(type) {
		case *core.AppMsg, *core.AppAck, *core.LogMirror, core.AppMsg, core.AppAck, core.LogMirror, core.LogTrim:
		default:
			j.Event(oracle.Event{Node: e.n.fed.names.Name(e.n.id), Kind: "send",
				Dst: e.n.fed.names.Name(dst), Msg: msgName(msg)})
		}
	}
	if err := e.n.fed.transport.Send(Envelope{Src: e.n.id, Dst: dst, Msg: msg}); err != nil {
		// The transport refused the message outright (unknown peer or
		// a full queue to an unreachable one). The protocol tolerates
		// message loss — that is what it is for — but losing one must
		// be visible: count it, trace it, journal it.
		e.n.fed.stats.add("live.send_dropped", 1)
		e.tracef("send to %v dropped: %v", dst, err)
		if j := e.n.fed.journal; j != nil {
			j.Event(oracle.Event{Node: e.n.fed.names.Name(e.n.id), Kind: "drop",
				Dst: e.n.fed.names.Name(dst), Msg: msgName(msg)})
		}
	}
}

func (e liveEnv) SendApp(dst topology.NodeID, size int, msg core.Msg) {
	e.Send(dst, size, msg)
}

func (e liveEnv) SetTimer(k core.TimerKind, d sim.Duration) {
	e.n.timerMu.Lock()
	defer e.n.timerMu.Unlock()
	if t, ok := e.n.timers[k]; ok {
		t.Stop()
	}
	if d >= sim.Forever {
		return
	}
	n, kind := e.n, k
	e.n.timers[k] = time.AfterFunc(d.Std(), func() {
		n.post(event{kind: 1, timer: kind})
	})
}

// Event counts a protocol event's counter statistic (the live runtime
// keeps no series), prints every traced event (any level above
// sim.TraceOff) when the federation has a trace writer, then journals
// the events oracle.Record maps. It runs synchronously on the node's
// event goroutine and the journal encodes the record before Event
// returns, so DDVs that alias node buffers, and the configuration's
// Clusters, are safe to pass through.
func (e liveEnv) Event(ev core.Event) {
	f := e.n.fed
	if form := ev.Kind.StatForm(e.n.id); form == core.StatCount || form == core.StatAdd {
		f.stats.add(e.n.names.Of(ev.Kind), form.Delta(ev.Value))
		if i, ok := ev.Kind.AlsoStat(ev.Forced); ok {
			f.stats.add(e.n.names.Cluster(i), 1)
		}
	}
	if f.trace != nil && ev.Level() != sim.TraceOff {
		e.tracef("%s", ev.String())
	}
	if f.journal == nil {
		return
	}
	if rec, ok := oracle.Record(f.names, e.n.id, ev); ok {
		if rec.Kind == "start" {
			rec.Clusters = f.cfg.Clusters
			rec.Recovering = f.cfg.Recovering
		}
		f.journal.Event(rec)
	}
}

// tracef prints one time-stamped line attributed to this node when the
// federation has a trace writer.
func (e liveEnv) tracef(format string, args ...any) {
	f := e.n.fed
	if f.trace == nil {
		return
	}
	f.traceMu.Lock()
	fmt.Fprintf(f.trace, "[%8s] %-8v %s\n",
		time.Since(f.start).Truncate(time.Microsecond), e.n.id, fmt.Sprintf(format, args...))
	f.traceMu.Unlock()
}

// Start builds and starts a live federation (or, with cfg.LocalNodes,
// this process's share of one).
func Start(cfg Config) (*Live, error) {
	if len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("runtime: no clusters")
	}
	subset := cfg.LocalNodes != nil
	if subset && cfg.Transport == nil {
		return nil, fmt.Errorf("runtime: a multi-process federation needs a TCP transport with a static address map")
	}
	if cfg.Transport == nil {
		cfg.Transport = NewChanTransport()
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.CLCPeriods == nil {
		cfg.CLCPeriods = make([]time.Duration, len(cfg.Clusters))
	}
	for i := range cfg.CLCPeriods {
		if cfg.CLCPeriods[i] == 0 {
			cfg.CLCPeriods[i] = 50 * time.Millisecond
		}
	}
	topo := topology.New()
	for _, size := range cfg.Clusters {
		topo.Clusters = append(topo.Clusters, topology.Cluster{Nodes: size})
	}
	wl := cfg.Workload
	if wl == nil {
		wl = liveWorkload(cfg.Clusters, nil)
	}
	if err := wl.Validate(topo); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	if !wl.Deterministic || wl.TotalTime < sim.Forever {
		return nil, fmt.Errorf("runtime: a live workload must be deterministic and open-ended")
	}
	// A node's application depends on the node alone, so a restarted
	// process regenerates the schedule its predecessor ran and replays
	// it after the restore, as the simulator does.
	newApp := func(id topology.NodeID) *app.NodeApp {
		return app.NewNodeApp(id, wl, topo, sim.NewRNG(uint64(id.Cluster)<<32|uint64(id.Index)))
	}
	f := &Live{
		cfg:        cfg,
		transport:  cfg.Transport,
		nodes:      make(map[topology.NodeID]*liveNode),
		start:      time.Now(),
		stats:      &liveStats{counters: make(map[string]uint64)},
		trace:      cfg.Trace,
		journal:    cfg.Journal,
		names:      topology.NewNameTable(cfg.Clusters),
		stopped:    make(chan struct{}),
		lastDetect: make(map[topology.NodeID]time.Time),
	}
	if tcp, ok := f.transport.(*TCPTransport); ok {
		// Transport counters land in the federation's stat table, and
		// failure suspicions reach the fail-stop handling (onSuspect).
		tcp.SetStat(f.stats.add)
		tcp.SetOnSuspect(f.onSuspect)
	}

	local := func(topology.NodeID) bool { return true }
	if subset {
		set := make(map[topology.NodeID]bool, len(cfg.LocalNodes))
		for _, id := range cfg.LocalNodes {
			if c := int(id.Cluster); c >= len(cfg.Clusters) || id.Index < 0 || id.Index >= cfg.Clusters[c] {
				return nil, fmt.Errorf("runtime: local node %v outside the topology", id)
			}
			set[id] = true
		}
		local = func(id topology.NodeID) bool { return set[id] }
	}

	gcPeriod := sim.Forever
	if cfg.GCPeriod > 0 {
		gcPeriod = sim.Duration(cfg.GCPeriod)
	}
	clampRepl := func(size int) int {
		repl := cfg.Replicas
		if repl > size-1 {
			repl = size - 1
		}
		return repl
	}
	for c, size := range cfg.Clusters {
		for i := 0; i < size; i++ {
			id := topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
			if !local(id) {
				continue
			}
			ln := &liveNode{
				id:        id,
				app:       newApp(id),
				mailbox:   make(chan event, 4096),
				fed:       f,
				timers:    make(map[core.TimerKind]*time.Timer),
				names:     core.NewStatNames(id.Cluster),
				recovered: make(chan struct{}),
			}
			coreCfg := core.Config{
				ID:           id,
				Clusters:     len(cfg.Clusters),
				ClusterSizes: cfg.Clusters,
				CLCPeriod:    sim.Duration(cfg.CLCPeriods[c]),
				GCPeriod:     gcPeriod,
				GCInitiator:  c == 0 && i == 0,
				Replicas:     clampRepl(size),
			}
			// NewNode snapshots the fresh application as CLC 1 before its
			// clock is attached, so that record has AppClock 0.
			ln.node = core.NewNode(coreCfg, liveEnv{ln}, ln.app)
			ln.app.Now = liveEnv{ln}.Now
			ln.app.Restored = ln.armSend
			f.nodes[id] = ln
		}
	}
	// Seed initial replicas. The initial checkpoint is the same
	// deterministic record on every node (SN 1, a fresh application's
	// snapshot: empty journal, AppClock 0), so each process rebuilds the
	// replicas it holds, a remote owner's too (subset mode), without
	// talking to anyone.
	// A recovering incarnation skips seeding — its nodes boot with
	// lost state and recover the real thing from the replica holders.
	if !cfg.Recovering {
		for c, size := range cfg.Clusters {
			for i := 0; i < size; i++ {
				owner := topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
				for r := 1; r <= clampRepl(size); r++ {
					tgt := topology.NodeID{Cluster: owner.Cluster, Index: (i + r) % size}
					if !local(tgt) {
						continue
					}
					snap, bytes := newApp(owner).Snapshot()
					f.nodes[tgt].node.SeedReplica(core.Replica{Seq: 1, Owner: owner, State: snap, Size: bytes})
				}
			}
		}
	}
	for _, ln := range f.nodes {
		ln := ln
		err := f.transport.Register(ln.id, func(env Envelope) {
			if h, ok := env.Msg.(Hello); ok {
				f.onHello(ln, h)
				return
			}
			ln.post(event{kind: 0, src: env.Src, msg: env.Msg})
		})
		if err != nil {
			f.Stop()
			return nil, fmt.Errorf("runtime: register %v: %w", ln.id, err)
		}
	}
	bootKind := 7
	if cfg.Recovering {
		bootKind = 9
	}
	for _, ln := range f.nodes {
		f.wg.Add(1)
		go ln.loop()
		ln.boot(bootKind)
	}
	if cfg.Recovering {
		// Announce the rejoin so a surviving peer runs the failure
		// detector against us — the multi-process analogue of
		// Live.Recover's kind-5 post, with the same ordering: the
		// restart is fully applied before the announcement leaves.
		// The beacon then re-announces until recovery completes: over
		// real TCP any single control message can vanish (a peer's
		// cached connection to our dead predecessor swallows exactly one
		// write before the RST comes back), and the RollbackCmd and
		// RecoverStateResp that recovery hangs on are both one-shot.
		for _, ln := range f.nodes {
			f.announceRejoin(ln)
			f.wg.Add(1)
			go f.rejoinBeacon(ln)
		}
	}
	return f, nil
}

// rejoinPeriod paces a recovering node's Hello beacon; rejoinGrace is
// how long the failure detector lets a triggered rollback run before a
// repeated Hello makes it start over (fresh epoch). Grace must cover a
// healthy recovery round-trip with room to spare, or the re-detection
// would preempt recoveries that were about to succeed.
const (
	rejoinPeriod = 500 * time.Millisecond
	rejoinGrace  = 4 * rejoinPeriod
)

// rejoinBeacon re-announces a recovering node to its cluster until its
// state is back (or the federation stops).
func (f *Live) rejoinBeacon(ln *liveNode) {
	defer f.wg.Done()
	tick := time.NewTicker(rejoinPeriod)
	defer tick.Stop()
	for {
		select {
		case <-f.stopped:
			return
		case <-ln.recovered:
			return
		case <-tick.C:
			ln.post(event{kind: 10})
		}
	}
}

// announceRejoin broadcasts a lost-state Hello to the node's cluster
// peers (journaled, like every control send).
func (f *Live) announceRejoin(ln *liveNode) {
	for i := 0; i < f.cfg.Clusters[ln.id.Cluster]; i++ {
		peer := topology.NodeID{Cluster: ln.id.Cluster, Index: i}
		if peer == ln.id {
			continue
		}
		if f.journal != nil {
			f.journal.Event(oracle.Event{Node: f.names.Name(ln.id), Kind: "hello", Dst: f.names.Name(peer)})
		}
		if err := f.transport.Send(Envelope{Src: ln.id, Dst: peer, Msg: Hello{From: ln.id, LostState: true}}); err != nil {
			f.stats.add("live.send_dropped", 1)
		}
	}
}

// onHello handles a peer's rejoin announcement at a hosted node. The
// failure detector's coordinator choice must be deterministic across
// processes without coordination, so it mirrors Live.Recover: the
// lowest-index cluster node that is not the victim runs the detection.
// Rollback starts only now — after the victim is back and reachable —
// because its RollbackCmd must actually arrive (a command sent while
// the victim was down would be lost, wedging the 2PC rollback barrier;
// transport suspicion alone therefore never triggers it).
//
// The victim beacons its Hello until recovery completes, so repeated
// announcements are the norm, not an anomaly. Re-triggering detection
// on every one would preempt rollbacks mid-flight; never re-triggering
// would wedge the first time a RollbackCmd or RecoverStateResp is
// swallowed by a dead cached connection. The middle ground: a repeat
// Hello restarts the rollback only once the previous detection is older
// than rejoinGrace — long enough that a healthy recovery has finished,
// so a re-detection means the last round really lost a message.
func (f *Live) onHello(ln *liveNode, h Hello) {
	if f.journal != nil {
		f.journal.Event(oracle.Event{Node: f.names.Name(ln.id), Kind: "hello", Src: f.names.Name(h.From)})
	}
	if !h.LostState || h.From.Cluster != ln.id.Cluster || h.From == ln.id {
		return
	}
	if ln.id != detectorFor(h.From) {
		return
	}
	f.detectMu.Lock()
	last, seen := f.lastDetect[h.From]
	again := !seen || time.Since(last) >= rejoinGrace
	if again {
		f.lastDetect[h.From] = time.Now()
	}
	f.detectMu.Unlock()
	if !again {
		return
	}
	ln.post(event{kind: 5, failed: h.From})
}

// onSuspect is the transport's failure-suspicion callback: a peer has
// stayed unreachable past the threshold. It feeds the fail-stop
// picture (stat + journal + trace) that operators and the offline
// replay see; the rollback itself waits for the peer's rejoin (see
// onHello).
func (f *Live) onSuspect(peer topology.NodeID) {
	f.stats.add("live.suspected", 1)
	if f.journal != nil {
		f.journal.Event(oracle.Event{Node: f.names.Name(peer), Kind: "suspect"})
	}
	if f.trace != nil {
		f.traceMu.Lock()
		fmt.Fprintf(f.trace, "[%8s] %-8v suspected unreachable\n",
			time.Since(f.start).Truncate(time.Microsecond), peer)
		f.traceMu.Unlock()
	}
}

// boot runs the node's start (kind 7) or crash-recovery boot (kind 9)
// on its own goroutine and waits for it to apply.
func (n *liveNode) boot(kind int) {
	done := make(chan struct{})
	n.mailbox <- event{kind: kind, done: done}
	<-done
}

func (n *liveNode) post(e event) {
	select {
	case n.mailbox <- e:
	case <-n.fed.stopped:
	}
}

// loop is the node's serial event loop: every protocol interaction
// happens here, satisfying core.Node's sequential contract.
func (n *liveNode) loop() {
	defer n.fed.wg.Done()
	for {
		select {
		case <-n.fed.stopped:
			return
		case e := <-n.mailbox:
			switch e.kind {
			case 0:
				n.node.OnMessage(e.src, e.msg)
				reclaim(e.msg)
			case 1:
				n.node.OnTimer(e.timer)
			case 2:
				if !n.node.Failed() {
					n.nextSeq++
					n.node.Send(e.dst, core.AppPayload{
						ID:   core.LogicalID{Src: n.id, Seq: n.nextSeq},
						Size: e.payload.Size,
					})
				}
			case 3:
				n.node.Fail()
			case 4:
				n.node.Restart()
			case 5:
				// A failed or lost-state detector cannot coordinate a
				// rollback; the victim will re-announce if needed.
				if !n.node.Failed() && !n.node.LostState() {
					n.node.OnFailureDetected(e.failed)
				}
			case 6:
				close(e.done)
			case 7:
				n.node.Start()
				n.armSend()
				close(e.done)
			case 9:
				// Crash-recovery boot of a fresh OS process: the node
				// revives with empty volatile memory and waits for its
				// cluster's RollbackCmd (announceRejoin makes sure one
				// comes). Message identities must not collide with the
				// previous incarnation's — the boot time in nanoseconds
				// is a strictly increasing base for both counters. The
				// schedule stays unarmed until the restore re-arms it.
				n.node.Restart()
				base := uint64(time.Now().UnixNano())
				n.node.SeedMsgID(base)
				if n.nextSeq < base {
					n.nextSeq = base
				}
				close(e.done)
			case 10:
				// Rejoin beacon tick: keep announcing while the state is
				// still lost, stop the beacon once it is back.
				if n.node.LostState() {
					n.fed.announceRejoin(n)
				} else {
					n.recoveredOnce.Do(func() { close(n.recovered) })
				}
			case 8:
				// A scheduled send, unless a re-arm superseded it. A
				// failed node's application makes no progress: the
				// restore re-arms its schedule.
				if e.gen != n.sendGen || n.node.Failed() {
					break
				}
				if dst, p, ok := n.app.TakeSend(); ok {
					p.ID.Seq |= scheduledSeq
					n.node.Send(dst, p)
				}
				n.armSend()
			}
		}
	}
}

// SendApp injects one application message from src to dst (size bytes).
func (f *Live) SendApp(src, dst topology.NodeID, size int) {
	f.nodes[src].post(event{kind: 2, dst: dst, payload: core.AppPayload{Size: size}})
}

// Crash fail-stops a node.
func (f *Live) Crash(id topology.NodeID) {
	f.transport.SetDown(id, true)
	f.nodes[id].post(event{kind: 3})
}

// Recover restarts a crashed node and notifies the failure detector's
// chosen coordinator (see detectorFor). A node whose cluster has no
// survivor stays crashed: nobody could hand it its state back.
func (f *Live) Recover(id topology.NodeID) error {
	if f.cfg.Clusters[id.Cluster] < 2 {
		return fmt.Errorf("runtime: no survivor in cluster %d", id.Cluster)
	}
	f.transport.SetDown(id, false)
	f.nodes[id].post(event{kind: 4})
	f.nodes[detectorFor(id)].post(event{kind: 5, failed: id})
	return nil
}

// detectorFor is the node that runs the failure detector for a victim:
// the lowest-index other node of its cluster. The choice needs no
// coordination, so every process makes the same one.
func detectorFor(victim topology.NodeID) topology.NodeID {
	d := topology.NodeID{Cluster: victim.Cluster}
	if victim.Index == 0 {
		d.Index = 1
	}
	return d
}

// Quiesce waits until every node's mailbox has been processed (a sync
// barrier through each event loop).
func (f *Live) Quiesce() {
	for _, ln := range f.nodes {
		done := make(chan struct{})
		ln.post(event{kind: 6, done: done})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return
		}
	}
}

// Stat reads a protocol counter.
func (f *Live) Stat(name string) uint64 { return f.stats.value(name) }

// Stats snapshots every counter (protocol and transport).
func (f *Live) Stats() map[string]uint64 {
	f.stats.mu.Lock()
	defer f.stats.mu.Unlock()
	out := make(map[string]uint64, len(f.stats.counters))
	for k, v := range f.stats.counters {
		out[k] = v
	}
	return out
}

// LocalIDs lists the nodes hosted in this process.
func (f *Live) LocalIDs() []topology.NodeID {
	ids := make([]topology.NodeID, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	return ids
}

// Stop halts all node goroutines and closes the transport, then
// journals each hosted node's stop record with the final counters:
// with the event loops and the transport down, no late timer or
// inbound envelope can journal after it. After Stop the federation's
// state is frozen and safe to inspect.
func (f *Live) Stop() {
	close(f.stopped)
	for _, ln := range f.nodes {
		ln.timerMu.Lock()
		for _, t := range ln.timers {
			t.Stop()
		}
		ln.timerMu.Unlock()
	}
	f.transport.Close()
	f.wg.Wait()
	if f.journal != nil {
		stats := f.Stats()
		for id := range f.nodes {
			f.journal.Event(oracle.Event{Node: f.names.Name(id), Kind: "stop", Stats: stats})
		}
		f.journal.Sync()
	}
}

// NodeSN reads a node's cluster sequence number (only safe after Stop
// or Quiesce).
func (f *Live) NodeSN(id topology.NodeID) core.SN { return f.nodes[id].node.SN() }

// NodeStored reads a node's stored checkpoint count (after Stop).
func (f *Live) NodeStored(id topology.NodeID) int { return f.nodes[id].node.StoredCount() }

// Delivered reads how often a node received a logical message (after
// Stop): one scan of the node's delivery journal.
func (f *Live) Delivered(id topology.NodeID, lid core.LogicalID) int {
	return f.nodes[id].app.DeliveredTimes(lid)
}

// DeliveredCount reads a node's distinct delivery count (after Stop):
// it sorts a copy of the node's delivery journal.
func (f *Live) DeliveredCount(id topology.NodeID) int {
	return f.nodes[id].app.DeliveredCount()
}
