package experiments

import (
	"fmt"
	"os"
	"sort"
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
	Topology string // "2c", "4c", "8c", "asym"
	Workload string // "uniform", "bursty", "hotspot", "coupling"
	Failure  string // "none", "crash", "corr", "churn"
	Network  string // "lan", "wan", "jitter"
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

// Validate checks each dimension value against the axes of the
// scenario's tier (classic, wide or chaos).
func (s Scenario) Validate() error {
	dims := []struct {
		dim, val string
		all      []string
	}{
		{"topology", s.Topology, MatrixTopologies},
		{"workload", s.Workload, MatrixWorkloads},
		{"failure", s.Failure, MatrixFailures},
		{"network", s.Network, MatrixNetworks},
	}
	if s.Wide() {
		dims[0].all = WideTopologies
		dims[1].all = WideWorkloads
		dims[2].all = WideFailures
		dims[3].all = WideNetworks
	}
	if s.ChaosTier() {
		dims[0].all = ChaosTopologies
		dims[1].all = ChaosWorkloads
		dims[2].all = ChaosFailures
		dims[3].all = ChaosNetworks
	}
	if s.TraceTier() {
		dims[0].all = TraceTopologies
		dims[1].all = TraceWorkloads
		dims[2].all = TraceFailures
		dims[3].all = TraceNetworks
	}
	for _, d := range dims {
		found := false
		for _, v := range d.all {
			if v == d.val {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("experiments: unknown %s %q (have %v)", d.dim, d.val, d.all)
		}
	}
	return nil
}

// The classic matrix axes. Every combination is a valid scenario.
var (
	MatrixTopologies = []string{"2c", "4c", "8c", "asym"}
	MatrixWorkloads  = []string{"uniform", "bursty", "hotspot", "coupling"}
	MatrixFailures   = []string{"none", "crash", "corr", "churn"}
	MatrixNetworks   = []string{"lan", "wan", "jitter"}
)

// The wide-federation tier: 64–256 clusters, where dependency-vector
// width is the scaling axis under test. The workload is a sparse ring
// (local chatter, a ring neighbour, one long-haul partner) — a dense
// all-pairs rate matrix at this width would swamp the run with
// inter-cluster traffic — and runs under HC3I with the transitive
// (whole-DDV) extension plus all three baselines, so the piggyback,
// commit, force and alert paths all scale with width. Selected with
// the filter `tier=wide` (or by naming a wide topology); the classic
// matrix and its goldens are untouched.
var (
	WideTopologies = []string{"64c", "128c", "256c", "1024c"}
	WideWorkloads  = []string{"ring"}
	WideFailures   = []string{"none", "crash"}
	WideNetworks   = []string{"lan"}
)

// wideTopology reports whether topo names a wide-tier topology.
func wideTopology(topo string) bool {
	for _, t := range WideTopologies {
		if t == topo {
			return true
		}
	}
	return false
}

// Wide reports whether the scenario belongs to the wide-federation
// tier.
func (s Scenario) Wide() bool { return wideTopology(s.Topology) }

// The chaos tier: classic topology shapes driven by the seeded
// adversarial scheduler (internal/chaos) with the protocol invariant
// oracle (internal/oracle) attached. The failure dimension value
// "storm" marks the tier: crashes are injected by the scheduler into
// protocol-sensitive windows (mid-2PC, mid-rollback-wave,
// mid-GC-round) rather than scheduled up front, the jitter network
// gives the reordering envelope, garbage collection runs so its
// safety rule is under fire, and every run is replayable from a
// single chaos seed (hc3ibench -chaos-seed). Chaos scenarios run
// under HC3I only — the baselines make no inter-cluster consistency
// claims for the oracle to check.
var (
	ChaosTopologies = []string{"2c", "4c", "8c"}
	ChaosWorkloads  = []string{"uniform", "bursty"}
	ChaosFailures   = []string{"storm"}
	ChaosNetworks   = []string{"jitter"}
	ChaosProtocols  = []string{"hc3i"}
)

// ChaosTier reports whether the scenario belongs to the chaos tier
// (its failure dimension is the tier marker: chaos topologies reuse
// the classic shapes).
func (s Scenario) ChaosTier() bool { return s.Failure == "storm" }

// The trace tier: open-loop heavy-traffic scenarios on trace-driven
// links. The workload is a population of millions of users issuing
// requests open-loop (arrivals never wait for the system), Zipf-skewed
// across destination clusters; the network dimension value "trace"
// marks the tier and replays a measured (latency, jitter, loss)
// schedule over every inter-cluster link (hc3ibench -trace-file, or
// the embedded mobile-broadband fixture). The tier's headline metric
// is user-perceived stable-delivery latency — arrival to first
// covering committed CLC — reported as p50/p99/p999 columns. Trace
// scenarios run under HC3I only: stable delivery is defined by the
// commit wave, which the baselines either don't have or trivialize.
var (
	TraceTopologies = []string{"2c", "4c"}
	TraceWorkloads  = []string{"openloop"}
	TraceFailures   = []string{"none", "crash"}
	TraceNetworks   = []string{"trace"}
	TraceProtocols  = []string{"hc3i"}
)

// TraceTier reports whether the scenario belongs to the trace tier
// (its network dimension is the tier marker: trace topologies reuse
// the classic shapes).
func (s Scenario) TraceTier() bool { return s.Network == "trace" }

// crossProduct enumerates one tier's scenarios in axis order.
func crossProduct(topologies, workloads, failures, networks []string) []Scenario {
	var out []Scenario
	for _, topo := range topologies {
		for _, wl := range workloads {
			for _, fl := range failures {
				for _, net := range networks {
					out = append(out, Scenario{Topology: topo, Workload: wl, Failure: fl, Network: net})
				}
			}
		}
	}
	return out
}

// TraceMatrix returns the trace tier's cross product, in axis order.
func TraceMatrix() []Scenario {
	return crossProduct(TraceTopologies, TraceWorkloads, TraceFailures, TraceNetworks)
}

// ChaosMatrix returns the chaos tier's cross product, in axis order.
func ChaosMatrix() []Scenario {
	return crossProduct(ChaosTopologies, ChaosWorkloads, ChaosFailures, ChaosNetworks)
}

// WideMatrix returns the wide tier's cross product, in axis order.
func WideMatrix() []Scenario {
	return crossProduct(WideTopologies, WideWorkloads, WideFailures, WideNetworks)
}

// MatrixProtocols lists the protocols every scenario runs under:
// HC3I plus the three baseline protocols.
var MatrixProtocols = []string{"hc3i", "global-coordinated", "hier-coordinated", "pessimistic-log"}

// Matrix returns the full cross product of the axes, in axis order.
func Matrix() []Scenario {
	return crossProduct(MatrixTopologies, MatrixWorkloads, MatrixFailures, MatrixNetworks)
}

// MatrixScenarios returns the scenarios selected by a filter: a
// comma-separated list of dim=value constraints ("topology=2c,
// failure=churn"), where dim is topology, workload, failure, network
// or tier. The filter value tier=wide (or naming a wide topology)
// selects from the wide-federation tier; otherwise the classic matrix
// is searched. An empty filter selects the whole classic matrix.
func MatrixScenarios(filter string) ([]Scenario, error) {
	want := map[string]string{}
	if strings.TrimSpace(filter) != "" {
		for _, part := range strings.Split(filter, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("experiments: matrix filter %q: want dim=value", part)
			}
			dim := strings.ToLower(strings.TrimSpace(kv[0]))
			switch dim {
			case "topology", "workload", "failure", "network", "tier":
				if _, dup := want[dim]; dup {
					return nil, fmt.Errorf("experiments: matrix filter names %s twice", dim)
				}
				want[dim] = strings.TrimSpace(kv[1])
			default:
				return nil, fmt.Errorf("experiments: matrix filter: unknown key %q (valid keys: topology, workload, failure, network, tier; valid tiers: classic, wide, chaos, trace)", kv[0])
			}
		}
	}
	universe := Matrix
	probe := Scenario{Topology: MatrixTopologies[0], Workload: MatrixWorkloads[0],
		Failure: MatrixFailures[0], Network: MatrixNetworks[0]}
	tier := want["tier"]
	if tier == "" {
		// Infer the tier from unambiguous axis values, so e.g.
		// topology=64c, failure=storm or network=trace select their
		// tier directly.
		switch {
		case wideTopology(want["topology"]):
			tier = "wide"
		case want["failure"] == ChaosFailures[0]:
			tier = "chaos"
		case want["network"] == TraceNetworks[0] || want["workload"] == TraceWorkloads[0]:
			tier = "trace"
		default:
			tier = "classic"
		}
	}
	switch tier {
	case "classic":
	case "wide":
		universe = WideMatrix
		probe = Scenario{Topology: WideTopologies[0], Workload: WideWorkloads[0],
			Failure: WideFailures[0], Network: WideNetworks[0]}
	case "chaos":
		universe = ChaosMatrix
		probe = Scenario{Topology: ChaosTopologies[0], Workload: ChaosWorkloads[0],
			Failure: ChaosFailures[0], Network: ChaosNetworks[0]}
	case "trace":
		universe = TraceMatrix
		probe = Scenario{Topology: TraceTopologies[0], Workload: TraceWorkloads[0],
			Failure: TraceFailures[0], Network: TraceNetworks[0]}
	default:
		return nil, fmt.Errorf("experiments: unknown tier %q (have classic, wide, chaos, trace)", tier)
	}
	delete(want, "tier")
	// Reject unknown axis values up front, so a typo like topology=3c
	// reports the axis and its values instead of "selects no scenarios".
	for dim, val := range want {
		p := probe
		switch dim {
		case "topology":
			p.Topology = val
		case "workload":
			p.Workload = val
		case "failure":
			p.Failure = val
		case "network":
			p.Network = val
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	var out []Scenario
	for _, s := range universe() {
		if v, ok := want["topology"]; ok && v != s.Topology {
			continue
		}
		if v, ok := want["workload"]; ok && v != s.Workload {
			continue
		}
		if v, ok := want["failure"]; ok && v != s.Failure {
			continue
		}
		if v, ok := want["network"]; ok && v != s.Network {
			continue
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: matrix filter %q selects no scenarios", filter)
	}
	return out, nil
}

// matrixScale returns the per-cluster node counts for a topology and
// the run duration. Quick mode keeps the full matrix in the tens of
// seconds; full mode stresses the protocols at a heavier scale. Wide
// topologies (64–256 clusters) use uniform small clusters — the axis
// under test is federation width, not cluster depth — and a shorter
// virtual run, since event volume grows with width.
func matrixScale(cfg Config, topo string) (sizes []int, total sim.Duration, err error) {
	if n, ok := map[string]int{"64c": 64, "128c": 128, "256c": 256, "1024c": 1024}[topo]; ok {
		per := 3
		total := 2 * sim.Hour
		if cfg.Quick {
			per = 2
			total = 30 * sim.Minute
		}
		if n >= 1024 {
			// A quarter of the virtual time keeps the widest rung's
			// event volume (which grows with width) near the 256c
			// rung's.
			total /= 4
		}
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = per
		}
		return sizes, total, nil
	}
	type dims struct{ quick, full []int }
	shapes := map[string]dims{
		"2c":   {quick: []int{4, 4}, full: []int{20, 20}},
		"4c":   {quick: []int{4, 4, 4, 4}, full: []int{12, 12, 12, 12}},
		"8c":   {quick: []int{3, 3, 3, 3, 3, 3, 3, 3}, full: []int{8, 8, 8, 8, 8, 8, 8, 8}},
		"asym": {quick: []int{2, 4, 6}, full: []int{4, 8, 16}},
	}
	d, ok := shapes[topo]
	if !ok {
		return nil, 0, fmt.Errorf("experiments: unknown matrix topology %q", topo)
	}
	if cfg.Quick {
		return d.quick, 90 * sim.Minute, nil
	}
	return d.full, 6 * sim.Hour, nil
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
	sizes, total, err := matrixScale(cfg, sc.Topology)
	if err != nil {
		return federation.Options{}, err
	}
	if sc.ChaosTier() {
		// Chaos runs trade virtual length for schedule density: the
		// crash cooldown and short CLC timers pack the run with
		// protocol-sensitive windows.
		total = 3 * sim.Hour
		if cfg.Quick {
			total = sim.Hour
		}
	}
	var trace *netsim.LinkTrace
	if sc.TraceTier() {
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
	clcEvery := 20 * sim.Minute
	if sc.Wide() {
		// Frequent unforced checkpoints keep neighbour SNs moving, so
		// wide runs continually exercise the width-sensitive forced-CLC
		// machinery rather than idling between rare commits.
		clcEvery = 10 * sim.Minute
	}
	if sc.ChaosTier() {
		// Short commit timers multiply the 2PC windows the crash
		// injector aims at, and keep fresh checkpoints committing
		// between crash waves (the one-fault-at-a-time model assumes
		// recovery completes before the next fault).
		clcEvery = 4 * sim.Minute
	}
	if sc.TraceTier() {
		// Stable-delivery latency is dominated by the wait for the next
		// committed CLC wave; a short commit period keeps the reported
		// distribution about the protocol and the link schedule, not
		// about an idle timer.
		clcEvery = 5 * sim.Minute
	}
	for i := range periods {
		periods[i] = clcEvery
	}
	opts := federation.Options{
		Topology:   fed,
		Workload:   wl,
		CLCPeriods: periods,
		Replicas:   replicas,
		Seed:       cfg.Seed,
		Crashes:    crashes,
		// The wide tier runs HC3I with the §7 transitive extension:
		// whole-DDV piggybacks are exactly the O(width) per-message
		// cost the delta wire representation exists to flatten, and
		// wide federations are where the difference shows. Baseline
		// protocols ignore the flag.
		Transitive:  sc.Wide(),
		NodeFactory: factory,
	}
	cfg.apply(&opts)
	if sc.ChaosTier() {
		// Garbage collection runs so its §3.5 safety rule is under
		// fire too; the oracle is always attached — an un-checked
		// hostile schedule proves nothing.
		opts.GCPeriod = 10 * sim.Minute
		opts.Oracle = true
		seed := cfg.ChaosSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		opts.Chaos = &chaos.Config{Seed: seed, OpBudget: cfg.ChaosOps}
	}
	if sc.TraceTier() {
		opts.LinkTrace = trace
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

// ProtocolsFor lists the protocols a scenario runs under: HC3I plus
// the three baselines on the classic and wide tiers, HC3I alone on the
// chaos tier (the baselines make no inter-cluster consistency claims
// for the oracle to check) and on the trace tier (stable delivery is
// defined by HC3I's commit wave).
func ProtocolsFor(sc Scenario) []string {
	if sc.ChaosTier() {
		return ChaosProtocols
	}
	if sc.TraceTier() {
		return TraceProtocols
	}
	return MatrixProtocols
}

// RunChaosScenario runs one chaos-tier scenario across the
// configuration's chaos-seed budget (cfg.ChaosSeeds schedules, base
// seed cfg.ChaosSeed or cfg.Seed) and returns the per-seed results in
// seed order. Any oracle violation or harness invariant failure
// aborts with an error naming the chaos seed that reproduces it.
func RunChaosScenario(cfg Config, sc Scenario, protocol string) ([]*federation.Result, error) {
	seeds := cfg.ChaosSeeds
	if seeds < 1 {
		seeds = 1
	}
	base := cfg.ChaosSeed
	if base == 0 {
		base = cfg.Seed
	}
	out := make([]*federation.Result, 0, seeds)
	for k := 0; k < seeds; k++ {
		runCfg := cfg
		runCfg.ChaosSeed = base + uint64(k)
		res, err := RunScenario(runCfg, sc, protocol)
		if err != nil {
			// The typed wrapper names the exact (scenario, seed) that
			// reproduces the failure; hc3ibench unwraps it to print the
			// one-command replay instead of a bare error.
			return nil, &ChaosFailure{
				ChaosRun: ChaosRun{Scenario: sc, Protocol: protocol, Seed: base + uint64(k),
					Quick: runCfg.Quick, OpBudget: runCfg.ChaosOps, Timeout: runCfg.RunTimeout},
				Err: err,
			}
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
		traceTier = traceTier && sc.TraceTier()
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
		if sc.ChaosTier() {
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

// MatrixAxes summarizes the axes for -list style output, one line per
// dimension, values sorted.
func MatrixAxes() string {
	var b strings.Builder
	dims := []struct {
		name string
		vals []string
	}{
		{"topology", MatrixTopologies},
		{"workload", MatrixWorkloads},
		{"failure", MatrixFailures},
		{"network", MatrixNetworks},
		{"protocol", MatrixProtocols},
	}
	for _, d := range dims {
		vals := append([]string(nil), d.vals...)
		sort.Strings(vals)
		fmt.Fprintf(&b, "%-9s %s\n", d.name, strings.Join(vals, " "))
	}
	fmt.Fprintf(&b, "%-9s %s\n", "tier", "chaos classic trace wide")
	fmt.Fprintf(&b, "wide tier (tier=wide): %s x %s x %s x %s\n",
		strings.Join(WideTopologies, "/"), strings.Join(WideWorkloads, "/"),
		strings.Join(WideFailures, "/"), strings.Join(WideNetworks, "/"))
	fmt.Fprintf(&b, "chaos tier (tier=chaos): %s x %s x %s x %s under %s, oracle-checked,\n",
		strings.Join(ChaosTopologies, "/"), strings.Join(ChaosWorkloads, "/"),
		strings.Join(ChaosFailures, "/"), strings.Join(ChaosNetworks, "/"),
		strings.Join(ChaosProtocols, "/"))
	fmt.Fprintf(&b, "  adversarial schedules replayable via -chaos-seed (sweep width via -chaos-seeds)\n")
	fmt.Fprintf(&b, "trace tier (tier=trace): %s x %s x %s x %s under %s,\n",
		strings.Join(TraceTopologies, "/"), strings.Join(TraceWorkloads, "/"),
		strings.Join(TraceFailures, "/"), strings.Join(TraceNetworks, "/"),
		strings.Join(TraceProtocols, "/"))
	fmt.Fprintf(&b, "  open-loop user arrivals over trace-driven links (-trace-file), p50/p99/p999 stable-delivery latency\n")
	return b.String()
}
