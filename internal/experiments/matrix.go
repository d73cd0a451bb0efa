package experiments

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/app"
	"repro/internal/chaos"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The scenario matrix goes beyond the paper's handful of fixed tables:
// it cross-products topologies, workloads, failure patterns and network
// profiles into dozens of scenarios and runs each one under HC3I and
// all three baseline protocols, reporting forced/unforced CLCs,
// rollbacks and the volatile-log high-water mark. It is the seam new
// dimensions (trace-driven workloads, multi-backend) plug into.

// Scenario names one cell of the matrix by its four dimension values.
type Scenario struct {
	Topology string // "2c", "4c", "8c", "asym", or a wide "64c".."1024c"
	Workload string // "uniform", "bursty", "hotspot", "coupling", "ring", "openloop"
	Failure  string // "none", "crash", "corr", "churn", "storm"
	Network  string // "lan", "wan", "jitter", "trace"
}

// Name renders the scenario as "topology/workload/failure/network".
func (s Scenario) Name() string {
	return strings.Join([]string{s.Topology, s.Workload, s.Failure, s.Network}, "/")
}

// ParseScenario is the inverse of Name. It validates every dimension
// value, so Name/ParseScenario round-trip exactly over the matrix.
func ParseScenario(name string) (Scenario, error) {
	parts := strings.Split(name, "/")
	if len(parts) != 4 {
		return Scenario{}, fmt.Errorf("experiments: scenario %q: want topology/workload/failure/network", name)
	}
	s := Scenario{Topology: parts[0], Workload: parts[1], Failure: parts[2], Network: parts[3]}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// The matrix axes, in Scenario field order.
const (
	axisTopology = iota
	axisWorkload
	axisFailure
	axisNetwork
)

var axisNames = [4]string{"topology", "workload", "failure", "network"}

// values lists the scenario's dimension values in axis order.
func (s Scenario) values() [4]string {
	return [4]string{s.Topology, s.Workload, s.Failure, s.Network}
}

// Validate checks each dimension value against the axes of the
// scenario's tier.
func (s Scenario) Validate() error {
	t := s.tier()
	for a, v := range s.values() {
		if !slices.Contains(t.axes[a], v) {
			return fmt.Errorf("experiments: unknown %s %q (have %v)", axisNames[a], v, t.axes[a])
		}
	}
	return nil
}

// Tier names the tier the scenario belongs to ("classic", "wide",
// "chaos" or "trace").
func (s Scenario) Tier() string { return s.tier().name }

func (s Scenario) tier() *tier { return tierOf(s.values()) }

// MatrixProtocols lists the protocols classic and wide scenarios run
// under: HC3I plus the three baseline protocols.
var MatrixProtocols = []string{"hc3i", "global-coordinated", "hier-coordinated", "pessimistic-log"}

// ChaosProtocols lists the chaos tier's protocols: HC3I alone — the
// baselines make no inter-cluster consistency claims for the oracle to
// check.
var ChaosProtocols = []string{"hc3i"}

// A tier is one family of matrix scenarios: the cross product of its
// four axes, run under its protocols with its run settings. Every
// tier-dependent decision — validation, filter inference, protocol
// lists, -list output, federation options — reads the tiers table.
type tier struct {
	name string
	// axes holds the tier's values per dimension, in axis order. A
	// value no classic axis holds ("64c", "storm", "trace", ...) marks
	// its tier (see tierOf).
	axes      [4][]string
	protocols []string
	// quickRun and fullRun are the virtual run length at each scale.
	quickRun, fullRun sim.Duration
	// quickNodes and fullNodes, when set, size the tier's clusters
	// uniformly, their count read off the topology name ("64c");
	// otherwise clusterShapes sizes them.
	quickNodes, fullNodes int
	// clcEvery is every cluster's unforced checkpoint period.
	clcEvery sim.Duration
	// transitive runs HC3I with the §7 transitive (whole-DDV) extension.
	transitive bool
	// chaos attaches the adversarial scheduler and the oracle and runs
	// garbage collection; the tier's rows sweep chaos seeds.
	chaos bool
	// linkTrace replays a link schedule over the inter-cluster links;
	// the tier's rows carry stable-delivery latency percentiles.
	linkTrace bool
	// about is the tier's -list text after its axes and protocols.
	about string
}

// tiers is the scenario matrix, one row per tier; the classic tier
// comes first.
var tiers = []tier{{
	// The classic matrix: every combination is a valid scenario, run
	// under HC3I and all three baselines.
	name: "classic",
	axes: [4][]string{
		{"2c", "4c", "8c", "asym"},
		{"uniform", "bursty", "hotspot", "coupling"},
		{"none", "crash", "corr", "churn"},
		{"lan", "wan", "jitter"},
	},
	protocols: MatrixProtocols,
	quickRun:  90 * sim.Minute,
	fullRun:   6 * sim.Hour,
	clcEvery:  20 * sim.Minute,
}, {
	// The wide-federation tier: 64–1024 clusters, where dependency-
	// vector width is the scaling axis under test. The workload is a
	// sparse ring (local chatter, a ring neighbour, one long-haul
	// partner) — a dense all-pairs rate matrix at this width would
	// swamp the run with inter-cluster traffic. Clusters are uniform
	// and small (the axis is federation width, not cluster depth) and
	// the virtual run short, since event volume grows with width.
	// Frequent unforced checkpoints keep neighbour SNs moving, so wide
	// runs continually exercise the width-sensitive forced-CLC
	// machinery rather than idling between rare commits. HC3I runs with
	// the transitive extension: whole-DDV piggybacks are exactly the
	// O(width) per-message cost the sparse piggyback exists to flatten
	// (baseline protocols ignore the flag).
	name: "wide",
	axes: [4][]string{
		{"64c", "128c", "256c", "1024c"},
		{"ring"},
		{"none", "crash"},
		{"lan"},
	},
	protocols:  MatrixProtocols,
	quickRun:   30 * sim.Minute,
	fullRun:    2 * sim.Hour,
	quickNodes: 2,
	fullNodes:  3,
	clcEvery:   10 * sim.Minute,
	transitive: true,
}, {
	// The chaos tier: classic topology shapes driven by the seeded
	// adversarial scheduler (internal/chaos) with the protocol
	// invariant oracle (internal/oracle) attached. Crashes are injected
	// by the scheduler into protocol-sensitive windows (mid-2PC,
	// mid-rollback-wave, mid-GC-round) rather than scheduled up front,
	// the jitter network gives the reordering envelope, and every run
	// is replayable from its (seed, chaos seed) pair. Runs trade
	// virtual length for schedule density: short commit timers
	// multiply the 2PC windows the crash injector aims at, and keep
	// fresh checkpoints committing between crash waves (the
	// one-fault-at-a-time model assumes recovery completes before the
	// next fault).
	name: "chaos",
	axes: [4][]string{
		{"2c", "4c", "8c"},
		{"uniform", "bursty"},
		{"storm"},
		{"jitter"},
	},
	protocols: ChaosProtocols,
	quickRun:  sim.Hour,
	fullRun:   3 * sim.Hour,
	clcEvery:  4 * sim.Minute,
	chaos:     true,
	about: ", oracle-checked,\n" +
		"  adversarial schedules replayable via -chaos-seed (sweep width via -chaos-seeds)",
}, {
	// The trace tier: open-loop heavy traffic on trace-driven links. A
	// population of millions of users issues requests open-loop
	// (arrivals never wait for the system), Zipf-skewed across
	// destination clusters, while a measured (latency, jitter, loss)
	// schedule replays over every inter-cluster link (hc3ibench
	// -trace-file, or the embedded mobile-broadband fixture). The
	// headline metric is user-perceived stable-delivery latency —
	// arrival to first covering committed CLC — defined by HC3I's
	// commit wave, so HC3I runs alone; a short commit period keeps the
	// distribution about the protocol and the link schedule, not about
	// an idle timer.
	name: "trace",
	axes: [4][]string{
		{"2c", "4c"},
		{"openloop"},
		{"none", "crash"},
		{"trace"},
	},
	protocols: []string{"hc3i"},
	quickRun:  90 * sim.Minute,
	fullRun:   6 * sim.Hour,
	clcEvery:  5 * sim.Minute,
	linkTrace: true,
	about: ",\n" +
		"  open-loop user arrivals over trace-driven links (-trace-file), p50/p99/p999 stable-delivery latency",
}}

// tierOf returns the tier a set of axis values belongs to: the first
// tier holding one of the values where the classic axis does not (its
// marker: "64c", "ring", "storm", "openloop", "trace"), else the
// classic tier. Empty values — axes a filter leaves open — mark
// nothing.
func tierOf(vals [4]string) *tier {
	classic := &tiers[0]
	for i := range tiers[1:] {
		t := &tiers[i+1]
		for a, v := range vals {
			if v != "" && slices.Contains(t.axes[a], v) && !slices.Contains(classic.axes[a], v) {
				return t
			}
		}
	}
	return classic
}

// tierNames lists the tiers in table order.
func tierNames() []string {
	names := make([]string, len(tiers))
	for i, t := range tiers {
		names[i] = t.name
	}
	return names
}

// tierNamed returns the named tier, nil if there is none.
func tierNamed(name string) *tier {
	for i := range tiers {
		if tiers[i].name == name {
			return &tiers[i]
		}
	}
	return nil
}

// scenarios enumerates the tier's cross product in axis order.
func (t *tier) scenarios() []Scenario {
	var out []Scenario
	for _, topo := range t.axes[axisTopology] {
		for _, wl := range t.axes[axisWorkload] {
			for _, fl := range t.axes[axisFailure] {
				for _, net := range t.axes[axisNetwork] {
					out = append(out, Scenario{Topology: topo, Workload: wl, Failure: fl, Network: net})
				}
			}
		}
	}
	return out
}

// Matrix returns the classic tier's cross product, in axis order.
func Matrix() []Scenario { return tiers[0].scenarios() }

// ChaosMatrix returns the chaos tier's cross product, in axis order.
func ChaosMatrix() []Scenario { return tierNamed("chaos").scenarios() }

// MatrixScenarios returns the scenarios selected by a filter: a
// comma-separated list of dim=value constraints ("topology=2c,
// failure=churn"), where dim is topology, workload, failure, network
// or tier. Without a tier constraint, a tier's marker value (say
// topology=64c or failure=storm) selects that tier; otherwise the
// classic matrix is searched. An empty filter selects the whole
// classic matrix.
func MatrixScenarios(filter string) ([]Scenario, error) {
	want := map[string]string{}
	if strings.TrimSpace(filter) != "" {
		for _, part := range strings.Split(filter, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("experiments: matrix filter %q: want dim=value", part)
			}
			dim := strings.ToLower(strings.TrimSpace(kv[0]))
			if dim != "tier" && !slices.Contains(axisNames[:], dim) {
				return nil, fmt.Errorf("experiments: matrix filter: unknown key %q (valid keys: %s, tier; valid tiers: %s)",
					kv[0], strings.Join(axisNames[:], ", "), strings.Join(tierNames(), ", "))
			}
			if _, dup := want[dim]; dup {
				return nil, fmt.Errorf("experiments: matrix filter names %s twice", dim)
			}
			want[dim] = strings.TrimSpace(kv[1])
		}
	}
	var vals [4]string
	for a, name := range axisNames {
		vals[a] = want[name]
	}
	t := tierOf(vals)
	if name := want["tier"]; name != "" {
		if t = tierNamed(name); t == nil {
			return nil, fmt.Errorf("experiments: unknown tier %q (have %s)", name, strings.Join(tierNames(), ", "))
		}
	}
	// Reject unknown axis values up front, so a typo like topology=3c
	// reports the axis and its values instead of "selects no scenarios".
	for a, name := range axisNames {
		if v, ok := want[name]; ok && !slices.Contains(t.axes[a], v) {
			return nil, fmt.Errorf("experiments: unknown %s %q (have %v)", name, v, t.axes[a])
		}
	}
	var out []Scenario
scan:
	for _, s := range t.scenarios() {
		for a, v := range s.values() {
			if w, ok := want[axisNames[a]]; ok && w != v {
				continue scan
			}
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: matrix filter %q selects no scenarios", filter)
	}
	return out, nil
}

// clusterShapes sizes the classic topologies (which the chaos and trace
// tiers reuse): per-cluster node counts at quick and full scale. Quick
// mode keeps the full matrix in the tens of seconds; full mode stresses
// the protocols at a heavier scale.
var clusterShapes = map[string]struct{ quick, full []int }{
	"2c":   {quick: []int{4, 4}, full: []int{20, 20}},
	"4c":   {quick: []int{4, 4, 4, 4}, full: []int{12, 12, 12, 12}},
	"8c":   {quick: []int{3, 3, 3, 3, 3, 3, 3, 3}, full: []int{8, 8, 8, 8, 8, 8, 8, 8}},
	"asym": {quick: []int{2, 4, 6}, full: []int{4, 8, 16}},
}

// scale returns the per-cluster node counts for one of the tier's
// topologies and the virtual run length.
func (t *tier) scale(quick bool, topo string) (sizes []int, total sim.Duration, err error) {
	per := t.fullNodes
	total = t.fullRun
	if quick {
		per, total = t.quickNodes, t.quickRun
	}
	if per == 0 {
		d, ok := clusterShapes[topo]
		if !ok {
			return nil, 0, fmt.Errorf("experiments: unknown matrix topology %q", topo)
		}
		if quick {
			return d.quick, total, nil
		}
		return d.full, total, nil
	}
	n, err := strconv.Atoi(strings.TrimSuffix(topo, "c"))
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: unknown matrix topology %q", topo)
	}
	if n >= 1024 {
		// A quarter of the virtual time keeps the widest rung's event
		// volume (which grows with width) near the 256c rung's.
		total /= 4
	}
	sizes = make([]int, n)
	for i := range sizes {
		sizes[i] = per
	}
	return sizes, total, nil
}

// matrixTopology assembles the federation for a scenario: cluster
// shapes from the topology dimension, inter-cluster links from the
// network profile. trace is the link schedule of trace-tier scenarios
// (nil elsewhere): its minimum latency becomes the inter links' static
// latency — so the perturber's surplus is never negative — with zero
// static jitter, since all variation comes from the trace replay.
func matrixTopology(sizes []int, network string, trace *netsim.LinkTrace) (*topology.Federation, error) {
	clusters := make([]topology.Cluster, len(sizes))
	for i, n := range sizes {
		clusters[i] = topology.Cluster{
			Name:  fmt.Sprintf("cluster%d", i),
			Nodes: n,
			Intra: topology.MyrinetLike(),
		}
	}
	fed := topology.New(clusters...)
	switch network {
	case "lan":
		fed.SetAllInterLinks(topology.EthernetLike())
	case "wan":
		fed.SetAllInterLinks(topology.WANLike())
	case "jitter":
		fed.SetAllInterLinks(topology.HighJitterWAN())
	case "trace":
		if trace == nil {
			return nil, fmt.Errorf("experiments: network %q needs a link trace", network)
		}
		fed.SetAllInterLinks(topology.Link{
			Latency:   trace.MinLatency(),
			Bandwidth: topology.Mbps(10),
		})
	default:
		return nil, fmt.Errorf("experiments: unknown matrix network %q", network)
	}
	return fed, nil
}

// matrixWorkload builds the workload for a scenario.
func matrixWorkload(kind string, n int, total sim.Duration) (*app.Workload, error) {
	const (
		intra = 240.0 // aggregate intra-cluster messages per hour
		inter = 24.0  // aggregate messages per hour per cluster pair
	)
	var wl *app.Workload
	switch kind {
	case "uniform":
		wl = app.Uniform(n, intra, inter, total)
	case "bursty":
		wl = app.Uniform(n, intra, inter, total)
		wl.Burst = &app.Burst{Period: 30 * sim.Minute, Duty: 0.25}
	case "hotspot":
		// Every cluster hammers cluster 0 (a shared service); the rest
		// of the inter-cluster fabric stays almost idle.
		rates := make([][]float64, n)
		for i := range rates {
			rates[i] = make([]float64, n)
			rates[i][i] = intra
			if i != 0 {
				rates[i][0] = 2 * inter
				rates[0][i] = inter / 4
			}
		}
		wl = &app.Workload{
			TotalTime:     total,
			RatesPerHour:  rates,
			MsgSize:       4096,
			MeanCompute:   2 * sim.Second,
			Deterministic: true,
		}
	case "coupling":
		// The paper's Figure 1 pipeline: simulation -> treatment ->
		// display, heavy inside each stage, a directed flow along it.
		wl = app.Pipeline(n, intra, inter, total)
	case "openloop":
		// Open-loop heavy traffic: two million users, each issuing
		// requests at a tiny independent rate, destinations Zipf-skewed
		// across the clusters. Poisson superposition compiles the
		// population exactly into a per-cluster-pair rate matrix, so
		// millions of users cost nothing at run time; arrivals never
		// wait for the system (the open-loop property under test).
		wl = app.NewOpenLoop(n, 2_000_000, 3e-4, 1.1, total)
	case "ring":
		// The wide tier's sparse pattern: local chatter, a ring
		// neighbour and one long-haul partner per cluster — the
		// paper's "rare inter-cluster communication" premise at scale.
		// Note the ring closes a dependency cycle, so every unforced
		// checkpoint seeds a forced-CLC wave that circulates for the
		// rest of the run: wide runs exercise sustained width-wide
		// dependency churn, not just quiescent pipes.
		rates := make([][]float64, n)
		for i := range rates {
			rates[i] = make([]float64, n)
			rates[i][i] = 60
			rates[i][(i+1)%n] = 60
			rates[i][(i+n/2)%n] = 15
		}
		wl = &app.Workload{
			TotalTime:     total,
			RatesPerHour:  rates,
			MsgSize:       4096,
			MeanCompute:   2 * sim.Second,
			Deterministic: true,
		}
		wl.StateSize = 64 << 10
		return wl, nil
	default:
		return nil, fmt.Errorf("experiments: unknown matrix workload %q", kind)
	}
	wl.StateSize = 256 << 10
	return wl, nil
}

// matrixFailures builds the crash schedule and the replication degree a
// failure pattern needs.
func matrixFailures(kind string, sizes []int, total sim.Duration) (crashes []federation.Crash, replicas int, err error) {
	replicas = 1
	switch kind {
	case "storm":
		// Chaos tier: crashes are injected by the adversarial
		// scheduler into protocol-sensitive windows at run time, not
		// scheduled here. Replication degree 2 keeps every state
		// recoverable when a fuse hits a node that is itself mid-
		// recovery.
		replicas = 2
	case "none":
	case "crash":
		// One fail-stop crash mid-run.
		crashes = []federation.Crash{
			{At: sim.Time(total / 2), Node: topology.NodeID{Cluster: 0, Index: 1}},
		}
	case "corr":
		// Correlated cluster failure: a shared-infrastructure event
		// (power, backbone) takes one node down in two different
		// clusters one second apart — the §7 simultaneous-faults case.
		// Replication degree 2 keeps every state recoverable.
		if len(sizes) < 2 {
			return nil, 0, fmt.Errorf("experiments: correlated failure needs >= 2 clusters")
		}
		last := topology.ClusterID(len(sizes) - 1)
		at := sim.Time(total / 2)
		crashes = []federation.Crash{
			{At: at, Node: topology.NodeID{Cluster: 0, Index: 1}},
			{At: at.Add(sim.Second), Node: topology.NodeID{Cluster: last, Index: 1}},
		}
		replicas = 2
	case "churn":
		// Repeated single crashes spread through the run, round-robin
		// over the clusters, well separated so each rollback completes.
		const waves = 4
		for k := 0; k < waves; k++ {
			c := k % len(sizes)
			crashes = append(crashes, federation.Crash{
				At:   sim.Time(total * sim.Duration(k+1) / (waves + 2)),
				Node: topology.NodeID{Cluster: topology.ClusterID(c), Index: 1},
			})
		}
	default:
		return nil, 0, fmt.Errorf("experiments: unknown matrix failure pattern %q", kind)
	}
	return crashes, replicas, nil
}

// ScenarioOptions assembles the federation options for one scenario
// under one protocol (any federation.ProtocolNames entry), the
// configuration's run-wide switches included. Exported for callers that
// run the federation themselves: ChaosRun, the benchmark's chaos count
// pass, tests asserting worker isolation of sim.Stats.
func ScenarioOptions(cfg Config, sc Scenario, protocol string) (federation.Options, error) {
	if err := sc.Validate(); err != nil {
		return federation.Options{}, err
	}
	t := sc.tier()
	sizes, total, err := t.scale(cfg.Quick, sc.Topology)
	if err != nil {
		return federation.Options{}, err
	}
	var trace *netsim.LinkTrace
	if t.linkTrace {
		if trace, err = cfg.linkTrace(); err != nil {
			return federation.Options{}, err
		}
	}
	fed, err := matrixTopology(sizes, sc.Network, trace)
	if err != nil {
		return federation.Options{}, err
	}
	wl, err := matrixWorkload(sc.Workload, len(sizes), total)
	if err != nil {
		return federation.Options{}, err
	}
	crashes, replicas, err := matrixFailures(sc.Failure, sizes, total)
	if err != nil {
		return federation.Options{}, err
	}
	factory, err := federation.ProtocolFactory(protocol)
	if err != nil {
		return federation.Options{}, fmt.Errorf("experiments: %w", err)
	}
	periods := make([]sim.Duration, len(sizes))
	for i := range periods {
		periods[i] = t.clcEvery
	}
	opts := federation.Options{
		Topology:    fed,
		Workload:    wl,
		CLCPeriods:  periods,
		Replicas:    replicas,
		Seed:        cfg.Seed,
		Crashes:     crashes,
		Transitive:  t.transitive,
		NodeFactory: factory,
		LinkTrace:   trace,
	}
	cfg.apply(&opts)
	if t.chaos {
		// Garbage collection runs so its §3.5 safety rule is under
		// fire too; the oracle is always attached — an un-checked
		// hostile schedule proves nothing.
		opts.GCPeriod = 10 * sim.Minute
		opts.Oracle = true
		opts.Chaos = &chaos.Config{Seed: cfg.chaosSeed(), OpBudget: cfg.ChaosOps}
	}
	return opts, nil
}

// linkTrace resolves the trace tier's link schedule: the configured
// -trace-file when set, the embedded mobile-broadband fixture
// otherwise.
func (c Config) linkTrace() (*netsim.LinkTrace, error) {
	if c.TraceFile == "" {
		return netsim.DefaultTrace(), nil
	}
	f, err := os.Open(c.TraceFile)
	if err != nil {
		return nil, fmt.Errorf("experiments: link trace: %w", err)
	}
	defer f.Close()
	t, err := netsim.ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("experiments: link trace %s: %w", c.TraceFile, err)
	}
	return t, nil
}

// RunScenario executes one scenario under one protocol and returns the
// raw federation result.
func RunScenario(cfg Config, sc Scenario, protocol string) (*federation.Result, error) {
	opts, err := ScenarioOptions(cfg, sc, protocol)
	if err != nil {
		return nil, err
	}
	res, err := cfg.runFed(opts)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", sc.Name(), protocol, err)
	}
	return res, nil
}

// ProtocolsFor lists the protocols a scenario runs under: its tier's.
func ProtocolsFor(sc Scenario) []string { return sc.tier().protocols }

// RunChaosScenario runs one chaos-tier scenario across the
// configuration's chaos-seed budget (cfg.ChaosSeeds schedules from
// the base chaos seed) and returns the per-seed results in seed order.
// Any oracle violation or harness invariant failure aborts with a
// *ChaosFailure holding the run that reproduces it.
func RunChaosScenario(cfg Config, sc Scenario, protocol string) ([]*federation.Result, error) {
	seeds := cfg.ChaosSeeds
	if seeds < 1 {
		seeds = 1
	}
	base := cfg.chaosSeed()
	out := make([]*federation.Result, 0, seeds)
	for k := 0; k < seeds; k++ {
		run := ChaosRun{Scenario: sc, Protocol: protocol, Config: cfg}
		run.Config.ChaosSeed = base + uint64(k)
		res, err := RunScenario(run.Config, sc, protocol)
		if err != nil {
			// hc3ibench unwraps the failure to print the one-command
			// replay instead of a bare error.
			return nil, &ChaosFailure{ChaosRun: run, Err: err}
		}
		out = append(out, res)
	}
	return out, nil
}

// RunMatrix executes every scenario under its tier's protocols through
// the worker pool and renders one table, rows in (scenario, protocol)
// order. The unit of parallelism is one federation run, so -parallel N
// keeps N runs in flight regardless of how the matrix is shaped.
// Chaos-tier rows aggregate across the configured chaos-seed budget.
func RunMatrix(cfg Config, scenarios []Scenario) (*Table, error) {
	if scenarios == nil {
		scenarios = Matrix()
	}
	cfg = cfg.pooled()
	type runKey struct {
		sc    int
		proto string
	}
	var runs []runKey
	for i, sc := range scenarios {
		for _, p := range ProtocolsFor(sc) {
			runs = append(runs, runKey{sc: i, proto: p})
		}
	}
	// Trace-tier tables carry the tier's headline metric — the
	// stable-delivery latency percentiles — as extra columns. Tiers
	// never mix inside one MatrixScenarios selection, so the classic,
	// wide and chaos tables (and their goldens) keep their shape.
	traceTier := len(scenarios) > 0
	for _, sc := range scenarios {
		traceTier = traceTier && sc.tier().linkTrace
	}
	t := &Table{
		ID:    "MX",
		Title: fmt.Sprintf("Scenario matrix (%d scenarios, %d runs)", len(scenarios), len(runs)),
		Headers: []string{"scenario", "protocol", "forced", "unforced", "rollbacks",
			"failures", "max_log", "events"},
	}
	if traceTier {
		t.Headers = append(t.Headers, "p50_ms", "p99_ms", "p999_ms")
	}
	rows := make([]Row, len(runs))
	err := forEach(cfg.Workers, len(runs), func(i int) error {
		sc, proto := scenarios[runs[i].sc], runs[i].proto
		var results []*federation.Result
		var err error
		if sc.tier().chaos {
			results, err = RunChaosScenario(cfg, sc, proto)
		} else {
			var res *federation.Result
			res, err = RunScenario(cfg, sc, proto)
			results = []*federation.Result{res}
		}
		if err != nil {
			return err
		}
		var forced, unforced, rollbacks, failures, events uint64
		maxLog := 0
		for _, res := range results {
			for _, c := range res.Clusters {
				forced += c.Forced
				unforced += c.Unforced
				rollbacks += c.Rollbacks
			}
			failures += res.Failures
			events += res.Events
			if res.MaxLoggedMessages > maxLog {
				maxLog = res.MaxLoggedMessages
			}
		}
		row := Row{sc.Name(), proto, forced, unforced, rollbacks,
			failures, maxLog, events}
		if traceTier {
			lat := &sim.Histogram{}
			for _, res := range results {
				lat.Merge(res.Stats.Histogram(federation.StableLatencyMetric))
			}
			row = append(row,
				lat.Quantile(0.50)*1e3, lat.Quantile(0.99)*1e3, lat.Quantile(0.999)*1e3)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"shape: HC3I's forced CLCs track inter-cluster chatter; coordinated",
		"baselines roll every cluster back on any failure; the message log",
		"high-water mark bounds the volatile memory the protocol pins")
	return t, nil
}

// MatrixAxes summarizes the axes for -list style output: the classic
// tier one line per dimension, values sorted, then one entry per other
// tier.
func MatrixAxes() string {
	var b strings.Builder
	sorted := func(vals []string) string {
		vals = slices.Clone(vals)
		slices.Sort(vals)
		return strings.Join(vals, " ")
	}
	classic := &tiers[0]
	for a, name := range axisNames {
		fmt.Fprintf(&b, "%-9s %s\n", name, sorted(classic.axes[a]))
	}
	fmt.Fprintf(&b, "%-9s %s\n", "protocol", sorted(classic.protocols))
	fmt.Fprintf(&b, "%-9s %s\n", "tier", sorted(tierNames()))
	for _, t := range tiers[1:] {
		fmt.Fprintf(&b, "%s tier (tier=%s): %s x %s x %s x %s", t.name, t.name,
			strings.Join(t.axes[axisTopology], "/"), strings.Join(t.axes[axisWorkload], "/"),
			strings.Join(t.axes[axisFailure], "/"), strings.Join(t.axes[axisNetwork], "/"))
		if !slices.Equal(t.protocols, classic.protocols) {
			fmt.Fprintf(&b, " under %s", strings.Join(t.protocols, "/"))
		}
		fmt.Fprintf(&b, "%s\n", t.about)
	}
	return b.String()
}
