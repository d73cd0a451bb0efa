package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Ablations: the paper's §7 future-work items and the design choices
// DESIGN.md calls out, each measured against the base protocol.

func init() {
	register(Experiment{
		ID:    "A1",
		Title: "Transitive dependency tracking (whole-DDV piggybacking)",
		Description: "§7: 'sending the whole DDV instead of the SN' lets a " +
			"cluster learn checkpoints transitively, avoiding forced CLCs on " +
			"later direct messages.",
		Run: runA1,
	})
	register(Experiment{
		ID:    "A2",
		Title: "Naive CIC: force a CLC on every inter-cluster message",
		Description: "The Figure 4 strawman against HC3I's dependency-driven " +
			"forcing, on the Table 1 workload.",
		Run: runA2,
	})
	register(Experiment{
		ID:    "A3",
		Title: "Stable-storage replication degree",
		Description: "§7: configurable replication degree inside a cluster; " +
			"protocol bytes and memory grow with the degree.",
		Run: runA3,
	})
	register(Experiment{
		ID:    "A4",
		Title: "Rollback scope across protocols",
		Description: "Clusters dragged back by one failure: HC3I vs independent " +
			"checkpointing (domino), global coordinated, hierarchical " +
			"coordinated [9] and MPICH-V-style logging [3].",
		Run: runA4,
	})
	register(Experiment{
		ID:    "A5",
		Title: "Centralized vs distributed (ring) garbage collection",
		Description: "§7: 'the garbage collector could be more distributed'; " +
			"inter-cluster message cost per completed round.",
		Run: runA5,
	})
	register(Experiment{
		ID:    "A7",
		Title: "Checkpoint cost: freeze window vs state size and cluster size",
		Description: "The 2PC freezes application traffic while states " +
			"replicate to neighbour memory over the SAN (§3.1); the window " +
			"scales with the per-node state size, not with the node count " +
			"(transfers are parallel).",
		Run: runA7,
	})
	register(Experiment{
		ID:    "A8",
		Title: "Protocol overhead with checkpointing disabled",
		Description: "§5.2: 'If no CLC is initiated, the only protocol cost " +
			"consists in logging optimistically in volatile memory " +
			"inter-cluster messages and transmitting an integer (SN) with " +
			"them' — measured as bytes per application byte.",
		Run: runA8,
	})
	register(Experiment{
		ID:    "A9",
		Title: "Memory footprint: no GC vs periodic vs saturation-triggered",
		Description: "§3.5: 'Periodically, or when a node memory saturates, a " +
			"garbage collection is initiated' — high-water checkpoint memory " +
			"per node under the three policies.",
		Run: runA9,
	})
	register(Experiment{
		ID:    "A6",
		Title: "Simultaneous faults in different clusters",
		Description: "§7: the protocol extended to tolerate concurrent faults " +
			"in distinct clusters (epoch-tagged cascades).",
		Run: runA6,
	})
}

// ablationScale is a smaller-than-paper scale: ablations compare
// protocols rather than reproduce figures.
func ablationScale(cfg Config) (nodes int, total sim.Duration) {
	if cfg.Quick {
		return 4, 2 * sim.Hour
	}
	return 20, 6 * sim.Hour
}

func runA1(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:      "A1",
		Title:   "Forced CLCs and rollback depth with/without transitive DDVs",
		Headers: []string{"variant", "forced_total", "rollback_depth", "alerts"},
	}
	err := sweep(cfg, t, []bool{false, true}, func(transitive bool) ([]Row, error) {
		fed := topology.Small(3, nodes)
		// A triangle: c0 -> c1 -> c2 plus a direct c0 -> c2 flow whose
		// forces the transitive variant can avoid.
		wl := app.Pipeline(3, 300, 40, total)
		wl.RatesPerHour[0][2] = 40
		wl.StateSize = 256 << 10
		opts := federation.Options{
			Topology:   fed,
			Workload:   wl,
			CLCPeriods: []sim.Duration{20 * sim.Minute, 20 * sim.Minute, 20 * sim.Minute},
			Transitive: transitive,
			Seed:       cfg.Seed,
			Crashes: []federation.Crash{
				{At: sim.Time(total / 2), Node: topology.NodeID{Cluster: 1, Index: 0}},
			},
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, err
		}
		var forced, rolled uint64
		for _, c := range res.Clusters {
			forced += c.Forced
			if c.Rollbacks > 0 {
				rolled++
			}
		}
		name := "base (SN piggyback)"
		if transitive {
			name = "transitive (DDV piggyback)"
		}
		return []Row{{name, forced, rolled, res.Stats.CounterValue("rollback.alerts_sent")}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: the transitive variant avoids forces on direct edges whose",
		"dependency was already learned through the pipeline")
	return t, nil
}

func runA2(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:      "A2",
		Title:   "HC3I vs force-on-every-message",
		Headers: []string{"variant", "forced_total", "total_clcs", "proto_mbytes"},
	}
	err := sweep(cfg, t, []string{"hc3i", "force-all"},
		func(proto string) ([]Row, error) {
			factory, err := federation.ProtocolFactory(proto)
			if err != nil {
				return nil, err
			}
			fed := topology.Small(2, nodes)
			wl := app.PaperTable1()
			wl.TotalTime = total
			wl.StateSize = 256 << 10
			opts := federation.Options{
				Topology:    fed,
				Workload:    wl,
				CLCPeriods:  []sim.Duration{30 * sim.Minute, 30 * sim.Minute},
				Seed:        cfg.Seed,
				NodeFactory: factory,
			}
			res, err := cfg.runFed(opts)
			if err != nil {
				return nil, err
			}
			var forced, totalCLCs uint64
			for _, c := range res.Clusters {
				forced += c.Forced
				totalCLCs += c.Total()
			}
			return []Row{{proto, forced, totalCLCs,
				float64(res.Stats.CounterValue("net.bytes.proto")) / 1e6}}, nil
		})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: force-all takes a CLC per inter-cluster message — 'the",
		"overhead would be huge as it would force useless checkpoints' (§3.2)")
	return t, nil
}

func runA3(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:      "A3",
		Title:   "Replication degree in stable storage",
		Headers: []string{"replicas", "proto_mbytes", "replica_copies", "survives_2_faults"},
	}
	err := sweep(cfg, t, []int{1, 2, 3}, func(repl int) ([]Row, error) {
		fed := topology.Small(2, nodes)
		wl := app.Uniform(2, 300, 10, total)
		wl.StateSize = 256 << 10
		opts := federation.Options{
			Topology:   fed,
			Workload:   wl,
			CLCPeriods: []sim.Duration{20 * sim.Minute, 20 * sim.Minute},
			Replicas:   repl,
			Seed:       cfg.Seed,
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, err
		}
		copies := res.Stats.CounterValue("net.sent.proto") // includes replicas
		return []Row{{repl,
			float64(res.Stats.CounterValue("net.bytes.proto")) / 1e6,
			copies, repl >= 2}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: protocol bytes scale with the replication degree; degree k",
		"tolerates k simultaneous faults inside one cluster (§7)")
	return t, nil
}

func runA4(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:    "A4",
		Title: "Rollback scope for one failure",
		Headers: []string{"protocol", "clusters_rolled_back", "lost_work_hours",
			"forced_clcs", "proto_mbytes", "notes"},
	}
	// proto is the registry name; cite is the paper reference the row
	// label carries after it.
	type variant struct{ proto, cite, note string }
	variants := []variant{
		{"hc3i", "", "rolls back only dependent clusters"},
		{"independent", "", "domino: falls behind every dependency"},
		{"global-coordinated", "", "whole federation freezes and rolls back"},
		{"hier-coordinated", "[9]", "whole federation rolls to last line"},
		{"pessimistic-log", "[3]", "only the failed node, but needs PWD"},
	}
	err := sweep(cfg, t, variants, func(v variant) ([]Row, error) {
		name := v.proto + v.cite
		factory, err := federation.ProtocolFactory(v.proto)
		if err != nil {
			return nil, err
		}
		fed := topology.Small(2, nodes)
		wl := app.Uniform(2, 300, 30, total)
		wl.StateSize = 256 << 10
		opts := federation.Options{
			Topology:    fed,
			Workload:    wl,
			CLCPeriods:  []sim.Duration{20 * sim.Minute, 20 * sim.Minute},
			Seed:        cfg.Seed,
			NodeFactory: factory,
			Crashes: []federation.Crash{
				{At: sim.Time(total * 3 / 4), Node: topology.NodeID{Cluster: 0, Index: 1}},
			},
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		var rolled, forced uint64
		for _, c := range res.Clusters {
			if c.Rollbacks > 0 {
				rolled++
			}
			forced += c.Forced
		}
		lost := res.Stats.Summary("app.lost_work_seconds")
		lostHours := lost.Mean() * float64(lost.N()) / 3600
		return []Row{{name, rolled, fmt.Sprintf("%.2f", lostHours), forced,
			float64(res.Stats.CounterValue("net.bytes.proto")) / 1e6, v.note}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: HC3I's forced checkpoints sit just before each dependency, so",
		"its cascades discard little work; independent checkpointing dominos;",
		"coordinated baselines drag every node back; message logging limits",
		"the scope to one node but needs the PWD assumption (§6)")
	return t, nil
}

func runA5(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:      "A5",
		Title:   "Garbage collector topology",
		Headers: []string{"collector", "rounds_completed", "gc_messages", "clcs_removed"},
	}
	err := sweep(cfg, t, []bool{false, true}, func(ring bool) ([]Row, error) {
		// Four clusters: at N=3 the star (3(N-1)=6) and the ring
		// (2N=6) happen to cost the same; N=4 separates them (9 vs 8).
		fed := topology.Small(4, nodes)
		wl := app.Uniform(4, 300, 15, total)
		wl.StateSize = 256 << 10
		opts := federation.Options{
			Topology: fed,
			Workload: wl,
			CLCPeriods: []sim.Duration{
				15 * sim.Minute, 15 * sim.Minute, 15 * sim.Minute, 15 * sim.Minute,
			},
			GCPeriod: total / 4,
			RingGC:   ring,
			Seed:     cfg.Seed,
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, err
		}
		name := "centralized (paper §3.5)"
		if ring {
			name = "ring (paper §7)"
		}
		return []Row{{name,
			res.Stats.CounterValue("gc.rounds_completed"),
			res.Stats.CounterValue("gc.messages"),
			res.Stats.CounterValue("gc.clcs_removed")}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: both collectors reclaim the same checkpoints; the ring",
		"replaces 3(N-1) star messages with 2N token hops")
	return t, nil
}

func runA7(cfg Config) (*Table, error) {
	_, total := ablationScale(cfg)
	t := &Table{
		ID:      "A7",
		Title:   "Mean CLC freeze window",
		Headers: []string{"state_size", "nodes_per_cluster", "mean_freeze_s", "clcs"},
	}
	sizes := []int{1 << 20, 4 << 20, 16 << 20}
	nodeCounts := []int{10, 50}
	if cfg.Quick {
		sizes = []int{1 << 20, 8 << 20}
		nodeCounts = []int{4, 12}
	}
	type point struct{ stateSize, nodes int }
	var points []point
	for _, stateSize := range sizes {
		for _, nodes := range nodeCounts {
			points = append(points, point{stateSize, nodes})
		}
	}
	err := sweep(cfg, t, points, func(p point) ([]Row, error) {
		fed := topology.Small(2, p.nodes)
		wl := app.Uniform(2, 200, 5, total)
		wl.StateSize = p.stateSize
		opts := federation.Options{
			Topology:   fed,
			Workload:   wl,
			CLCPeriods: []sim.Duration{15 * sim.Minute, 15 * sim.Minute},
			Seed:       cfg.Seed,
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, err
		}
		s := res.Stats.Series("clc.freeze_seconds.c0")
		var mean float64
		for _, v := range s.Values {
			mean += v
		}
		if s.Len() > 0 {
			mean /= float64(s.Len())
		}
		return []Row{{fmt.Sprintf("%dMB", p.stateSize>>20), p.nodes,
			fmt.Sprintf("%.3f", mean), res.Clusters[0].Total()}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: the freeze window tracks the state-transfer time (size/SAN",
		"bandwidth) and is nearly flat in the node count — replication is",
		"pairwise-parallel; only the 2PC fan-in adds a small per-node cost")
	return t, nil
}

func runA8(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:    "A8",
		Title: "Protocol cost relative to application traffic",
		Headers: []string{"clc_timers", "proto_msgs", "proto_kb", "app_mb",
			"overhead_pct", "max_log"},
	}
	variants := []struct {
		label    string
		period   sim.Duration
		replicas int
	}{
		// The paper's claim concerns the pure message path: no unforced
		// CLCs and no stable-storage traffic, leaving only acks, the
		// piggybacked SN and the volatile log.
		{"disabled, no stable storage", sim.Forever, -1}, // -1 = zero replicas
		{"disabled (first-contact forces only)", sim.Forever, 1},
		{"30 minutes", 30 * sim.Minute, 1},
	}
	err := sweep(cfg, t, variants, func(v struct {
		label    string
		period   sim.Duration
		replicas int
	}) ([]Row, error) {
		fed := topology.Small(2, nodes)
		wl := app.PaperTable1()
		wl.TotalTime = total
		wl.StateSize = 256 << 10
		opts := federation.Options{
			Topology:   fed,
			Workload:   wl,
			CLCPeriods: []sim.Duration{v.period, v.period},
			Replicas:   v.replicas,
			Seed:       cfg.Seed,
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, err
		}
		protoBytes := res.Stats.CounterValue("net.bytes.proto")
		appBytes := res.Stats.CounterValue("net.bytes.app")
		overhead := 100 * float64(protoBytes) / float64(appBytes)
		return []Row{{v.label,
			res.Stats.CounterValue("net.sent.proto"),
			float64(protoBytes) / 1e3,
			float64(appBytes) / 1e6,
			fmt.Sprintf("%.2f", overhead),
			res.MaxLoggedMessages}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: with timers disabled the protocol sends only inter-cluster",
		"acks plus the piggybacked SN — a fraction of a percent of the",
		"application bytes; enabling checkpoints adds the 2PC and the state",
		"replication to neighbour memory, the real (and tunable) cost")
	return t, nil
}

func runA9(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:    "A9",
		Title: "Checkpoint memory per node (cluster 0 leader)",
		Headers: []string{"policy", "high_water_mb", "final_mb", "gc_rounds",
			"demand_rounds"},
	}
	const stateSize = 256 << 10
	policies := []struct {
		label     string
		period    sim.Duration
		threshold uint64
	}{
		{"no GC", sim.Forever, 0},
		{"periodic (total/4)", total / 4, 0},
		{"saturation (8 states)", sim.Forever, 8 * stateSize},
	}
	err := sweep(cfg, t, policies, func(p struct {
		label     string
		period    sim.Duration
		threshold uint64
	}) ([]Row, error) {
		fed := topology.Small(2, nodes)
		wl := app.Uniform(2, 300, 25, total)
		wl.StateSize = stateSize
		opts := federation.Options{
			Topology:          fed,
			Workload:          wl,
			CLCPeriods:        []sim.Duration{10 * sim.Minute, 10 * sim.Minute},
			GCPeriod:          p.period,
			GCMemoryThreshold: p.threshold,
			Seed:              cfg.Seed,
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, err
		}
		s := res.Stats.Series("storage.bytes.c0")
		var high, final float64
		for _, v := range s.Values {
			if v > high {
				high = v
			}
			final = v
		}
		return []Row{{p.label,
			fmt.Sprintf("%.1f", high/1e6),
			fmt.Sprintf("%.1f", final/1e6),
			res.Stats.CounterValue("gc.rounds_completed"),
			res.Stats.CounterValue("gc.demand_rounds")}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: without collection memory grows linearly with committed CLCs",
		"(own states + neighbour replicas); both GC policies bound it, the",
		"saturation trigger exactly at its threshold (§3.5)")
	return t, nil
}

func runA6(cfg Config) (*Table, error) {
	nodes, total := ablationScale(cfg)
	t := &Table{
		ID:    "A6",
		Title: "Simultaneous faults",
		Headers: []string{"scenario", "gap", "replicas", "failures",
			"rollbacks_total", "recovered"},
	}
	type scenario struct {
		name     string
		gap      sim.Duration
		replicas int
		second   topology.NodeID
	}
	scenarios := []scenario{
		{"different clusters", 0, 1, topology.NodeID{Cluster: 1, Index: 1}},
		{"different clusters", sim.Second, 1, topology.NodeID{Cluster: 1, Index: 1}},
		{"different clusters", 30 * sim.Second, 1, topology.NodeID{Cluster: 1, Index: 1}},
		// Two nodes of the SAME cluster down at once: needs replication
		// degree 2 so both states survive on other holders (§7).
		{"same cluster", sim.Second, 2, topology.NodeID{Cluster: 0, Index: 2}},
	}
	err := sweep(cfg, t, scenarios, func(sc scenario) ([]Row, error) {
		fed := topology.Small(3, nodes)
		wl := app.Uniform(3, 300, 15, total)
		wl.StateSize = 256 << 10
		at := sim.Time(total / 2)
		opts := federation.Options{
			Topology:   fed,
			Workload:   wl,
			CLCPeriods: []sim.Duration{15 * sim.Minute, 15 * sim.Minute, 15 * sim.Minute},
			Replicas:   sc.replicas,
			Seed:       cfg.Seed,
			Crashes: []federation.Crash{
				{At: at, Node: topology.NodeID{Cluster: 0, Index: 1}},
				{At: at.Add(sc.gap), Node: sc.second},
			},
		}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, fmt.Errorf("%s gap %v: %w", sc.name, sc.gap, err)
		}
		var rollbacks uint64
		for _, c := range res.Clusters {
			rollbacks += c.Rollbacks
		}
		return []Row{{sc.name, sc.gap.String(), sc.replicas, res.Failures, rollbacks, true}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: concurrent faults in different clusters recover through the",
		"epoch-tagged cascades; same-cluster simultaneity recovers when the",
		"replication degree covers it — the second detection restarts the",
		"cluster rollback under a fresh epoch (§7)")
	return t, nil
}
