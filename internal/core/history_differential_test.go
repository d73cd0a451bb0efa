package core_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// checkedNode is a core.Node that compares its running byte totals,
// log index, mirror sets and stored chain with their reference walks,
// and the chain with the run's dense shadow, after every event the
// harness hands it.
type checkedNode struct {
	*core.Node
	t       *testing.T
	checks  *int
	shadows *core.DenseShadows
}

func (c *checkedNode) verify(event string, args ...any) {
	*c.checks++
	for _, err := range []error{c.Node.CheckStoredHistory(), c.shadows.Check(c.Node)} {
		if err != nil {
			c.t.Fatalf("after %s: %v", fmt.Sprintf(event, args...), err)
		}
	}
}

func (c *checkedNode) OnMessage(src topology.NodeID, msg core.Msg) {
	c.shadows.Deliver(c.Node, src, msg)
	c.verify("%T from %v", msg, src)
}
func (c *checkedNode) OnTimer(k core.TimerKind) { c.Node.OnTimer(k); c.verify("timer") }
func (c *checkedNode) Send(dst topology.NodeID, p core.AppPayload) {
	c.Node.Send(dst, p)
	c.verify("send")
}
func (c *checkedNode) OnFailureDetected(failed topology.NodeID) {
	c.Node.OnFailureDetected(failed)
	c.verify("failure detection")
}
func (c *checkedNode) Restart() { c.Node.Restart(); c.verify("restart") }

// shadowedEnv is the harness's Env with every Send and protocol event
// of the node shown to the run's dense shadow. The harness's Env offers
// BoxPool, BoxReclaimer, PiggyCodecs and EventSink; the node must keep
// seeing all four.
type shadowedEnv struct {
	core.Env
	core.BoxPool
	core.BoxReclaimer
	sink core.EventSink
	core.PiggyCodecs
	*core.DenseShadows
	id topology.NodeID
}

func (e shadowedEnv) Send(dst topology.NodeID, size int, msg core.Msg) {
	e.DenseShadows.Sent(e.id, msg)
	e.Env.Send(dst, size, msg)
}

func (e shadowedEnv) Event(ev core.Event) {
	e.sink.Event(ev)
	e.DenseShadows.NodeEvent(e.id, ev)
}

// runChecked runs opts with every node wrapped in a checkedNode and
// returns the result and the number of checks made. The harness seeds
// initial replicas only into nodes it recognizes as *core.Node, so the
// wrapper does that seeding itself.
func runChecked(t *testing.T, opts federation.Options) (*federation.Result, int) {
	t.Helper()
	checks := 0
	nodes := map[topology.NodeID]*core.Node{}
	shadows := core.NewDenseShadows()
	opts.NodeFactory = func(cfg core.Config, env core.Env, hooks core.AppHooks, _ *sim.Stats) federation.ProtocolNode {
		n := core.NewNode(cfg, shadowedEnv{env, env.(core.BoxPool), env.(core.BoxReclaimer), env.(core.EventSink), env.(core.PiggyCodecs), shadows, cfg.ID}, hooks)
		shadows.Attach(n)
		nodes[cfg.ID] = n
		return &checkedNode{Node: n, t: t, checks: &checks, shadows: shadows}
	}
	f, err := federation.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	for _, n := range nodes {
		for _, tgt := range n.ReplicaTargets() {
			shadows.SeedReplica(nodes[tgt], n.InitialReplica())
		}
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, checks
}

// countersOf renders every counter of a run, sorted by name.
func countersOf(res *federation.Result) string {
	var lines []string
	res.Stats.ForEachCounter(func(name string, v uint64) {
		lines = append(lines, fmt.Sprintf("%s=%d", name, v))
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestStoredHistoryDifferential replays chaos-tier schedules —
// reordering, duplicates and crashes aimed at 2PC and recovery
// windows, with GC running — and after every event delivered to a node
// holds that node's O(1) bookkeeping against the full walks it
// replaced. Each schedule is also run unwrapped: identical counters
// and event counts show the wrapper observed the real protocol.
func TestStoredHistoryDifferential(t *testing.T) {
	perScenario := 9
	if testing.Short() {
		perScenario = 2
	}
	var seen struct{ recovered, cascaded, gcDropped, trimmed, orphans, late uint64 }
	schedules, checks := 0, 0
	for _, sc := range experiments.ChaosMatrix() {
		for seed := uint64(1); seed <= uint64(perScenario); seed++ {
			cfg := experiments.Config{Seed: seed, Quick: true, ChaosSeed: seed}
			opts, err := experiments.ScenarioOptions(cfg, sc, "hc3i")
			if err != nil {
				t.Fatal(err)
			}
			plain, err := experiments.RunScenario(cfg, sc, "hc3i")
			if err != nil {
				t.Fatal(err)
			}
			res, n := runChecked(t, opts)
			if res.Events != plain.Events || countersOf(res) != countersOf(plain) {
				t.Fatalf("%s seed %d: checked run diverged from the plain run (%d vs %d events)",
					sc.Name(), seed, res.Events, plain.Events)
			}
			schedules++
			checks += n
			seen.recovered += res.Stats.CounterValue("storage.recovered_states")
			seen.cascaded += res.Stats.CounterValue("rollback.cascaded")
			seen.gcDropped += res.Stats.CounterValue("gc.clcs_removed")
			seen.trimmed += res.Stats.CounterValue("gc.log_entries_removed")
			seen.orphans += res.Stats.CounterValue("log.ack_orphan")
			seen.late += res.Stats.CounterValue("app.late_logged")
		}
	}
	t.Logf("%d schedules, %d checks: %+v", schedules, checks, seen)
	if !testing.Short() && schedules < 50 {
		t.Fatalf("only %d schedules", schedules)
	}
	// The sweep must have reached every site that rewrites the history.
	if seen.recovered == 0 || seen.cascaded == 0 || seen.gcDropped == 0 ||
		seen.trimmed == 0 || seen.orphans == 0 || seen.late == 0 {
		t.Fatalf("sweep missed a mutation site: %+v", seen)
	}
}

// seriesDigest hashes the storage.bytes series (every point's time and
// value) and the log.ack_orphan counter of a run.
func seriesDigest(res *federation.Result) string {
	h := sha256.New()
	for _, name := range res.Stats.Names() { // sorted; only series carry this prefix
		if !strings.HasPrefix(name, "storage.bytes.") {
			continue
		}
		s := res.Stats.Series(name)
		fmt.Fprintf(h, "%s %d\n", name, s.Len())
		for i := 0; i < s.Len(); i++ {
			at, v := s.Point(i)
			fmt.Fprintf(h, "%d %v\n", at, v)
		}
	}
	fmt.Fprintf(h, "log.ack_orphan %d\n", res.Stats.CounterValue("log.ack_orphan"))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStorageSeriesMatchParentCommit pins the storage.bytes.* series
// and the log.ack_orphan counter to digests recorded at the last commit
// whose StorageBytes walked the whole history and whose onAppAck
// scanned the log — on the A9 ablation's three policies (no GC,
// periodic, memory threshold), the threshold policy under crashes, and
// one chaos schedule (duplicate deliveries make acks orphans). The
// running totals and the index must reproduce them point for point.
func TestStorageSeriesMatchParentCommit(t *testing.T) {
	const stateSize = 256 << 10
	total := 2 * sim.Hour
	a9 := func(period sim.Duration, threshold uint64, crashes ...federation.Crash) federation.Options {
		wl := app.Uniform(2, 300, 25, total)
		wl.StateSize = stateSize
		return federation.Options{
			Topology:          topology.Small(2, 4),
			Workload:          wl,
			CLCPeriods:        []sim.Duration{10 * sim.Minute, 10 * sim.Minute},
			GCPeriod:          period,
			GCMemoryThreshold: threshold,
			Crashes:           crashes,
			Seed:              1,
		}
	}
	chaos, err := experiments.ScenarioOptions(experiments.Config{Seed: 29, Quick: true},
		experiments.Scenario{Topology: "8c", Workload: "bursty", Failure: "storm", Network: "jitter"}, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts federation.Options
		want string
	}{
		{"no GC", a9(sim.Forever, 0),
			"25c2037b0d0ac68d33efbd827c0934dcf2526412ed3e2fb31259fe6aaaaed27a"},
		{"periodic", a9(total/4, 0),
			"80444cda653b9502dfdc47c1b651dcfb8527094f646813662d9f2b0a36d045c3"},
		{"saturation", a9(sim.Forever, 8*stateSize),
			"45ae4c1940a99cfa1a17962a839ede6e8898949575e306e26a80ed172802e8a1"},
		{"saturation+crashes", a9(sim.Forever, 8*stateSize,
			federation.Crash{At: sim.Time(0).Add(47 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 2}},
			federation.Crash{At: sim.Time(0).Add(83 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 1}}),
			"6b9326439b117faacdf2bd589ee9e00cf39233b01dd686d4ad2f892509b10683"},
		{"chaos 8c/bursty seed 29", chaos,
			"98f6279f8fea6e4f732a04ab3ba504ae6befdc4713c08f10e4753c5021d99ff2"},
	} {
		f, err := federation.New(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := seriesDigest(res); got != tc.want {
			t.Errorf("%s: series digest %s, want %s (%d points in storage.bytes.c0, %d orphans)",
				tc.name, got, tc.want, res.Stats.Series("storage.bytes.c0").Len(),
				res.Stats.CounterValue("log.ack_orphan"))
		}
		f.Release()
	}
}

// recoveringNode compares, at the moment a restarted node finishes
// recovering, the chain it adopted with the chain of the holder that
// answered it.
type recoveringNode struct {
	*core.Node
	t     *testing.T
	nodes map[topology.NodeID]*core.Node
	// recovered and adopted list, per recovery in order, the node and
	// the pair sets of the chain it adopted.
	recovered *[]topology.NodeID
	adopted   *[][][]core.DDVPair
}

func (r *recoveringNode) OnMessage(src topology.NodeID, msg core.Msg) {
	lost := r.Node.LostState()
	r.Node.OnMessage(src, msg)
	if _, resp := msg.(core.RecoverStateResp); !resp || !lost || r.Node.LostState() {
		return
	}
	if d := core.StoredChainDiff(r.Node, r.nodes[src]); d != "" {
		r.t.Fatalf("%v recovered from %v with a different chain: %s", r.Node.ID(), src, d)
	}
	*r.recovered = append(*r.recovered, r.Node.ID())
	*r.adopted = append(*r.adopted, append([][]core.DDVPair(nil), r.Node.StoredPairs()...))
}

// TestRecoveryCarriesTheChain: a node that crashes after several
// commits with different pair sets gets its stored history back as the
// holder's chain itself — anchor, SNs and the commits' own pairs, not a
// re-diff of dense vectors. The run goes on through garbage collection
// (prefix drops fold into the adopted anchor) and a crash of the
// cluster's leader, whose holder is the recovered node: it then serves
// the chain it adopted. The oracle checks every commit, rollback and
// collection of the run.
func TestRecoveryCarriesTheChain(t *testing.T) {
	wl := app.Uniform(3, 400, 30, 2*sim.Hour)
	wl.StateSize = 16 << 10
	first, second := topology.NodeID{Cluster: 1, Index: 1}, topology.NodeID{Cluster: 1, Index: 0}
	nodes := map[topology.NodeID]*core.Node{}
	var recovered []topology.NodeID
	var adopted [][][]core.DDVPair
	opts := federation.Options{
		Topology:   topology.Small(3, 3),
		Workload:   wl,
		CLCPeriods: []sim.Duration{10 * sim.Minute, 10 * sim.Minute, 10 * sim.Minute},
		GCPeriod:   25 * sim.Minute,
		Transitive: true,
		Oracle:     true,
		Seed:       5,
		Crashes: []federation.Crash{
			{At: sim.Time(0).Add(44 * sim.Minute), Node: first},
			{At: sim.Time(0).Add(97 * sim.Minute), Node: second},
		},
		NodeFactory: func(cfg core.Config, env core.Env, hooks core.AppHooks, _ *sim.Stats) federation.ProtocolNode {
			n := core.NewNode(cfg, env, hooks)
			nodes[cfg.ID] = n
			return &recoveringNode{Node: n, t: t, nodes: nodes, recovered: &recovered, adopted: &adopted}
		},
	}
	f, err := federation.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	for _, n := range nodes {
		for _, tgt := range n.ReplicaTargets() {
			nodes[tgt].SeedReplica(n.InitialReplica())
		}
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 || recovered[0] != first || recovered[1] != second {
		t.Fatalf("recoveries: %v, want %v then %v", recovered, first, second)
	}
	shapes := map[string]bool{}
	for _, ps := range adopted[0] {
		idx := make([]int, len(ps))
		for i, p := range ps {
			idx[i] = int(p.Idx)
		}
		sort.Ints(idx)
		shapes[fmt.Sprint(idx)] = true
	}
	if len(adopted[0]) < 3 || len(shapes) < 2 {
		t.Fatalf("first recovery adopted %d commits changing %d different sets of entries: %v", len(adopted[0]), len(shapes), adopted[0])
	}
	t.Logf("first recovery adopted %d commits (%d entry sets), second %d; %d CLCs collected, %d recovered states",
		len(adopted[0]), len(shapes), len(adopted[1]), res.Stats.CounterValue("gc.clcs_removed"),
		res.Stats.CounterValue("storage.recovered_states"))
	if res.Stats.CounterValue("gc.rounds_completed") == 0 || res.Stats.CounterValue("gc.clcs_removed") == 0 {
		t.Fatal("no collection between the two recoveries")
	}
	if res.Clusters[1].Rollbacks < 2 {
		t.Fatalf("cluster 1 rolled back %d times", res.Clusters[1].Rollbacks)
	}
}
