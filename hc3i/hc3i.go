// Package hc3i is the public API of the HC3I reproduction: it
// configures and runs simulated cluster federations under the paper's
// hierarchical checkpointing protocol (or one of the baseline
// protocols), and exposes the experiment registry that regenerates
// every table and figure of the paper's evaluation.
//
// A minimal run:
//
//	res, err := hc3i.Run(hc3i.Config{
//		Clusters:     []hc3i.Cluster{{Name: "sim", Nodes: 16}, {Name: "viz", Nodes: 16}},
//		TotalTime:    time.Hour,
//		RatesPerHour: [][]float64{{600, 20}, {5, 600}},
//		CLCPeriods:   []time.Duration{10 * time.Minute, 10 * time.Minute},
//	})
//
// All times are *virtual*: simulations of 10-hour executions finish in
// seconds of wall-clock time.
//
// The registry and matrix entry points (RunExperiments, RunMatrix) take
// RunnerOptions and return ExperimentResult tables; both are the types
// the internal runner itself works with (aliases, not copies), so the
// facade adds no second description of a run. A Protocol constant is a
// name in the one protocol registry (internal/federation).
package hc3i

import (
	"fmt"
	"io"
	"time"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Protocol selects the checkpointing protocol under test.
type Protocol string

// Available protocols.
const (
	// HC3I is the paper's hierarchical protocol (default).
	HC3I Protocol = "hc3i"
	// ForceAll forces a cluster checkpoint on every inter-cluster
	// message (the paper's Figure 4 strawman).
	ForceAll Protocol = "force-all"
	// Independent never forces checkpoints; rollbacks may domino.
	Independent Protocol = "independent"
	// GlobalCoordinated runs one two-phase commit over the whole
	// federation.
	GlobalCoordinated Protocol = "global-coordinated"
	// HierCoordinated is the hierarchical coordinated protocol of the
	// paper's reference [9].
	HierCoordinated Protocol = "hier-coordinated"
	// PessimisticLog is MPICH-V-style message logging (reference [3]).
	PessimisticLog Protocol = "pessimistic-log"
)

// Forever disables a timer (e.g. a cluster that never takes unforced
// checkpoints, as in the paper's Figure 7).
const Forever = time.Duration(sim.Forever)

// Link describes a network class.
type Link struct {
	Latency       time.Duration
	BandwidthMbps float64
}

// Cluster describes one cluster of the federation. A zero SAN gets the
// paper's Myrinet-like defaults (10 µs, 80 Mb/s).
type Cluster struct {
	Name  string
	Nodes int
	SAN   Link
}

// Crash schedules a fail-stop node crash.
type Crash struct {
	At      time.Duration // virtual time from the start of the run
	Cluster int
	Node    int
}

// Config describes a full simulation: architecture, application and
// protocol tuning — the union of the paper simulator's three input
// files.
type Config struct {
	// Clusters lists the federation's clusters (>= 1).
	Clusters []Cluster
	// Inter is the inter-cluster link class; zero gets the paper's
	// Ethernet-like defaults (150 µs, 100 Mb/s).
	Inter Link
	// MTBF enables Poisson fail-stop crashes when MTBFFailures is set.
	MTBF time.Duration

	// TotalTime is the application's (virtual) execution time.
	TotalTime time.Duration
	// RatesPerHour[i][j] is the application traffic from cluster i to
	// cluster j in messages per hour.
	RatesPerHour [][]float64
	// MessageSize and StateSize size application messages and per-node
	// checkpoint states in bytes (defaults: 4 KiB and 4 MiB).
	MessageSize int
	StateSize   int
	// NonDeterministicReplay makes post-rollback re-execution draw a
	// fresh schedule; HC3I must stay consistent regardless (no PWD
	// assumption).
	NonDeterministicReplay bool

	// Protocol selects the protocol (default HC3I).
	Protocol Protocol
	// CLCPeriods is the per-cluster delay between unforced CLCs
	// (default 30 min each; use Forever to disable).
	CLCPeriods []time.Duration
	// GCPeriod enables periodic garbage collection (0 = off).
	GCPeriod time.Duration
	// GCMemoryThreshold makes nodes demand a collection once their
	// fault-tolerance memory exceeds this many bytes (0 = off) — the
	// paper's "when a node memory saturates" trigger.
	GCMemoryThreshold uint64
	// RingGC selects the distributed collector.
	RingGC bool
	// TransitiveDDV piggybacks whole DDVs instead of single SNs.
	TransitiveDDV bool
	// Replicas is the stable-storage replication degree (default 1).
	Replicas int

	// Seed makes runs reproducible; same config + seed = same result.
	Seed uint64
	// Crashes schedules explicit failures; MTBFFailures adds random
	// ones at the configured MTBF.
	Crashes      []Crash
	MTBFFailures bool
	// DetectionDelay is the failure-detector latency (default 2 s).
	DetectionDelay time.Duration

	// Trace, when non-nil, receives the simulator's trace output at
	// TraceLevel ("info", "debug" or "all").
	Trace      io.Writer
	TraceLevel string
}

// ClusterReport is the per-cluster outcome of a run.
type ClusterReport struct {
	Name      string
	Forced    uint64 // committed forced CLCs
	Unforced  uint64 // committed unforced CLCs
	Committed uint64 // total committed CLCs
	Stored    int    // CLCs stored at the end
	Rollbacks uint64
}

// GCReport is one garbage collection's effect (per cluster).
type GCReport struct {
	At     time.Duration
	Before []int
	After  []int
}

// Result reports a finished run.
type Result struct {
	Clusters []ClusterReport
	// AppMessages[i][j] counts application messages sent from cluster
	// i to cluster j (the paper's Table 1 quantity).
	AppMessages [][]uint64
	// GCRounds lists garbage collections (the paper's Tables 2/3).
	GCRounds []GCRound
	// MaxLoggedMessages is the log's high-water mark on any node.
	MaxLoggedMessages int
	// Failures counts injected crashes; Events the simulation events.
	Failures uint64
	Events   uint64
	// EndTime is the virtual time at which the run finished.
	EndTime time.Duration
	// Counter gives access to every raw statistic of the run.
	Counter func(name string) uint64
}

// GCRound is one garbage collection's before/after pair per cluster.
type GCRound = GCReport

func (c *Config) defaults() {
	if c.Inter == (Link{}) {
		c.Inter = Link{Latency: 150 * time.Microsecond, BandwidthMbps: 100}
	}
	for i := range c.Clusters {
		if c.Clusters[i].SAN == (Link{}) {
			c.Clusters[i].SAN = Link{Latency: 10 * time.Microsecond, BandwidthMbps: 80}
		}
	}
	if c.MessageSize == 0 {
		c.MessageSize = 4096
	}
	if c.StateSize == 0 {
		c.StateSize = 4 << 20
	}
	if c.Protocol == "" {
		c.Protocol = HC3I
	}
}

// Run executes one simulation to completion and reports the results.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("hc3i: no clusters configured")
	}

	clusters := make([]topology.Cluster, len(cfg.Clusters))
	for i, c := range cfg.Clusters {
		clusters[i] = topology.Cluster{
			Name:  c.Name,
			Nodes: c.Nodes,
			Intra: topology.Link{
				Latency:   sim.Duration(c.SAN.Latency),
				Bandwidth: topology.Mbps(c.SAN.BandwidthMbps),
			},
		}
	}
	fed := topology.New(clusters...)
	fed.SetAllInterLinks(topology.Link{
		Latency:   sim.Duration(cfg.Inter.Latency),
		Bandwidth: topology.Mbps(cfg.Inter.BandwidthMbps),
	})
	fed.MTBF = sim.Duration(cfg.MTBF)

	wl := &app.Workload{
		TotalTime:     sim.Duration(cfg.TotalTime),
		RatesPerHour:  cfg.RatesPerHour,
		MsgSize:       cfg.MessageSize,
		StateSize:     cfg.StateSize,
		MeanCompute:   2 * sim.Second,
		Deterministic: !cfg.NonDeterministicReplay,
	}

	opts := federation.Options{
		Topology:          fed,
		Workload:          wl,
		GCPeriod:          sim.Duration(cfg.GCPeriod),
		GCMemoryThreshold: cfg.GCMemoryThreshold,
		RingGC:            cfg.RingGC,
		Transitive:        cfg.TransitiveDDV,
		Replicas:          cfg.Replicas,
		Seed:              cfg.Seed,
		MTBFFailures:      cfg.MTBFFailures,
		DetectionDelay:    sim.Duration(cfg.DetectionDelay),
	}
	if cfg.CLCPeriods != nil {
		opts.CLCPeriods = make([]sim.Duration, len(cfg.CLCPeriods))
		for i, d := range cfg.CLCPeriods {
			opts.CLCPeriods[i] = sim.Duration(d)
		}
	}
	for _, cr := range cfg.Crashes {
		opts.Crashes = append(opts.Crashes, federation.Crash{
			At:   sim.Time(cr.At),
			Node: topology.NodeID{Cluster: topology.ClusterID(cr.Cluster), Index: cr.Node},
		})
	}
	if cfg.Trace != nil {
		lvl, err := sim.ParseTraceLevel(cfg.TraceLevel)
		if err != nil {
			return nil, err
		}
		if lvl == sim.TraceOff {
			lvl = sim.TraceInfo
		}
		opts.TraceWriter = cfg.Trace
		opts.TraceLevel = lvl
	}
	factory, err := federation.ProtocolFactory(string(cfg.Protocol))
	if err != nil {
		return nil, fmt.Errorf("hc3i: %w", err)
	}
	opts.NodeFactory = factory

	f, err := federation.New(opts)
	if err != nil {
		return nil, err
	}
	res, err := f.Run()
	if err != nil {
		return nil, err
	}
	return convert(cfg, res), nil
}

func convert(cfg Config, res *federation.Result) *Result {
	out := &Result{
		AppMessages:       res.AppMsgs,
		MaxLoggedMessages: res.MaxLoggedMessages,
		Failures:          res.Failures,
		Events:            res.Events,
		EndTime:           time.Duration(res.EndTime),
		Counter:           res.Stats.CounterValue,
	}
	for i, c := range res.Clusters {
		out.Clusters = append(out.Clusters, ClusterReport{
			Name:      cfg.Clusters[i].Name,
			Forced:    c.Forced,
			Unforced:  c.Unforced,
			Committed: c.Committed,
			Stored:    c.Stored,
			Rollbacks: c.Rollbacks,
		})
	}
	for _, r := range res.GCRounds {
		out.GCRounds = append(out.GCRounds, GCReport{
			At:     time.Duration(r.At),
			Before: r.Before,
			After:  r.After,
		})
	}
	return out
}
