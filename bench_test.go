package repro

// One benchmark per table and figure of the paper's evaluation (§5)
// plus one per ablation: each measures the wall-clock cost of
// regenerating that artifact end-to-end (full federation simulation,
// protocol included). Benchmarks run the reduced "quick" scale so the
// whole suite stays fast; `go run ./cmd/hc3ibench` regenerates
// everything at the paper's scale (100-node clusters, 10 virtual
// hours) and prints the rows.

import (
	"fmt"
	"testing"

	"repro/hc3i"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := hc3i.RunExperiment(id, uint64(i+1), true)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: application message counts per
// cluster pair under the §5.2 code-coupling workload.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkFigure6 regenerates Figure 6: forced/unforced CLCs in
// cluster 0 as its unforced-CLC timer sweeps (cluster 1 at infinity).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "F6") }

// BenchmarkFigure7 regenerates Figure 7: the same sweep observed from
// cluster 1 (only forced CLCs, proportional to cluster 0's).
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "F7") }

// BenchmarkFigure8 regenerates Figure 8: cluster 0's CLC count stays
// flat as cluster 1's timer sweeps.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "F8") }

// BenchmarkFigure9 regenerates Figure 9: forced CLCs vs the number of
// cluster 1 -> cluster 0 messages.
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "F9") }

// BenchmarkTable2 regenerates Table 2: stored CLCs before/after each
// garbage collection, two clusters.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkTable3 regenerates Table 3: garbage collection with three
// clusters.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkAblationTransitiveDDV measures the §7 transitive-dependency
// extension against the base protocol (A1).
func BenchmarkAblationTransitiveDDV(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkAblationForceAll measures HC3I against the force-on-every-
// message strawman of Figure 4 (A2).
func BenchmarkAblationForceAll(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkAblationReplication measures stable-storage replication
// degrees (A3).
func BenchmarkAblationReplication(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkAblationRollbackDepth measures rollback scope across the
// five protocols (A4).
func BenchmarkAblationRollbackDepth(b *testing.B) { benchExperiment(b, "A4") }

// BenchmarkAblationDistributedGC measures the centralized vs ring
// garbage collectors (A5).
func BenchmarkAblationDistributedGC(b *testing.B) { benchExperiment(b, "A5") }

// BenchmarkAblationMultiFault measures recovery under simultaneous
// faults in different clusters (A6).
func BenchmarkAblationMultiFault(b *testing.B) { benchExperiment(b, "A6") }

// BenchmarkAblationFreezeWindow measures the checkpoint freeze window
// vs state size and cluster size (A7).
func BenchmarkAblationFreezeWindow(b *testing.B) { benchExperiment(b, "A7") }

// BenchmarkAblationOverhead measures the protocol's byte overhead with
// checkpointing disabled vs enabled (A8, the §5.2 cost claim).
func BenchmarkAblationOverhead(b *testing.B) { benchExperiment(b, "A8") }

// BenchmarkAblationMemory measures checkpoint memory under no GC,
// periodic GC and the §3.5 saturation trigger (A9).
func BenchmarkAblationMemory(b *testing.B) { benchExperiment(b, "A9") }

// BenchmarkRegistrySequential runs the whole experiment registry on one
// worker — the seed's original execution mode, kept as the baseline the
// parallel runner is measured against.
func BenchmarkRegistrySequential(b *testing.B) {
	benchRegistry(b, 1)
}

// BenchmarkRegistryParallel runs the whole registry through the bounded
// worker pool (one worker per CPU); output is byte-identical to the
// sequential run, only the wall clock changes.
func BenchmarkRegistryParallel(b *testing.B) {
	benchRegistry(b, hc3i.DefaultWorkers())
}

func benchRegistry(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		opts := hc3i.RunnerOptions{Workers: workers, Seed: uint64(i + 1), Quick: true}
		for _, r := range hc3i.RunExperiments(opts, nil) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
	}
}

// BenchmarkMatrixSlice runs one topology slice of the scenario matrix
// (every workload x failure x network combination under all four
// protocols) through the parallel runner.
func BenchmarkMatrixSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := hc3i.RunnerOptions{Workers: hc3i.DefaultWorkers(), Seed: uint64(i + 1), Quick: true}
		res, err := hc3i.RunMatrix(opts, "topology=2c")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("matrix produced no rows")
		}
	}
}

// BenchmarkMatrixSliceOracle runs the same 2c matrix slice with the
// protocol invariant oracle attached to every federation — the
// BenchmarkMatrixSlice pair prices the oracle's online checking
// (shadow-history patching at commits, delivery recording) so the
// checker's overhead is tracked and gated like any
// other path. Results are byte-identical to the plain slice; only the
// observation cost differs.
func BenchmarkMatrixSliceOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := hc3i.RunnerOptions{Workers: hc3i.DefaultWorkers(), Seed: uint64(i + 1), Quick: true,
			Oracle: true}
		res, err := hc3i.RunMatrix(opts, "topology=2c")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("matrix produced no rows")
		}
	}
}

// BenchmarkChaosScenario runs one adversarial schedule (4 clusters,
// storm failure pattern, oracle attached) end-to-end: the chaos tier's
// unit of work, priced so seed-sweep budgets stay predictable.
func BenchmarkChaosScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := hc3i.RunnerOptions{Workers: 1, Seed: uint64(i + 1), Quick: true,
			ChaosSeed: uint64(i + 1)}
		res, err := hc3i.RunMatrix(opts, "tier=chaos,topology=4c,workload=uniform")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("chaos scenario produced no rows")
		}
	}
}

// BenchmarkEndToEndLarge measures simulator throughput at federation
// scale: 64 clusters of 2 nodes (128 protocol nodes, 64-entry DDVs) on
// a ring-plus-local traffic pattern, one full run per iteration. This
// is the configuration the DDV arena and the ladder queue are sized
// for: wide dependency vectors and a deep standing event population.
func BenchmarkEndToEndLarge(b *testing.B) {
	const nc = 64
	clusters := make([]hc3i.Cluster, nc)
	rates := make([][]float64, nc)
	for i := range clusters {
		clusters[i] = hc3i.Cluster{Name: fmt.Sprintf("c%d", i), Nodes: 2}
		rates[i] = make([]float64, nc)
		rates[i][i] = 120           // local chatter
		rates[i][(i+1)%nc] = 6      // ring neighbour
		rates[i][(i+nc/2)%nc] = 1.5 // a long-haul dependency
	}
	for i := 0; i < b.N; i++ {
		res, err := hc3i.Run(hc3i.Config{
			Clusters:     clusters,
			TotalTime:    1800e9, // half a virtual hour
			RatesPerHour: rates,
			StateSize:    64 << 10,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("empty run")
		}
		b.ReportMetric(float64(res.Events), "events/run")
	}
}

// BenchmarkEndToEndSimulation measures raw simulator throughput on the
// paper's base configuration: one full 2-cluster run per iteration.
func BenchmarkEndToEndSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := hc3i.Run(hc3i.Config{
			Clusters: []hc3i.Cluster{
				{Name: "c0", Nodes: 8},
				{Name: "c1", Nodes: 8},
			},
			TotalTime:    3600e9, // one virtual hour
			RatesPerHour: [][]float64{{292, 14.5}, {1.1, 249.7}},
			CLCPeriods:   nil, // defaults
			StateSize:    256 << 10,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("empty run")
		}
		b.ReportMetric(float64(res.Events), "events/run")
	}
}

// BenchmarkWideSlice runs the wide-federation matrix tier's 64-cluster
// slice (ring workload, none+crash failures, HC3I with transitive
// piggybacking plus all three baselines) through the parallel runner —
// the macro counterpart of core's width-parameterized
// BenchmarkPiggybackMessage. (The wide benchmarks close the file: their runs allocate tens of MB each, and
// the GC debt would otherwise bleed into the benchmarks after them.)
func BenchmarkWideSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := hc3i.RunnerOptions{Workers: hc3i.DefaultWorkers(), Seed: uint64(i + 1), Quick: true}
		res, err := hc3i.RunMatrix(opts, "tier=wide,topology=64c")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("wide slice produced no rows")
		}
	}
}

// BenchmarkWideSliceOracle is BenchmarkWideSlice with the invariant
// oracle attached: the transitive runs' commits, deliveries and GC
// rounds feed its checks, so what the checker costs at width is tracked
// and gated.
func BenchmarkWideSliceOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := hc3i.RunnerOptions{Workers: hc3i.DefaultWorkers(), Seed: uint64(i + 1), Quick: true,
			Oracle: true}
		res, err := hc3i.RunMatrix(opts, "tier=wide,topology=64c")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("wide slice produced no rows")
		}
	}
}

// BenchmarkWideSlice1024 runs the widest matrix rung — 1024 clusters,
// 2048 protocol nodes, 1024-entry DDVs, both wide failure patterns
// under all four protocols — as a real benchmark rather than the
// smoke-only run it used to be. This is the configuration wire
// batching, the chunk-strided DDV kernels and the incremental GC scan
// exist for.
func BenchmarkWideSlice1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := hc3i.RunnerOptions{
			Workers: hc3i.DefaultWorkers(), Seed: uint64(i + 1), Quick: true,
		}
		res, err := hc3i.RunMatrix(opts, "tier=wide,topology=1024c")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("1024c slice produced no rows")
		}
	}
}

// BenchmarkPerMessage256 / BenchmarkPerMessage1024 price one
// application message end-to-end (simulation cost per app message,
// protocol and piggybacking included) on the sparse ring pattern at
// the two widest scales. The pair is the flatness gate for wire
// batching: the reported ns/msg at 1024 clusters should stay within
// ~1.3x of the 256-cluster figure — without batching every same-pipe
// message pays its own schedule and codec pass and the ratio drifts
// with width.
func BenchmarkPerMessage256(b *testing.B)  { benchPerMessage(b, 256) }
func BenchmarkPerMessage1024(b *testing.B) { benchPerMessage(b, 1024) }

func benchPerMessage(b *testing.B, nc int) {
	clusters := make([]hc3i.Cluster, nc)
	rates := make([][]float64, nc)
	for i := range clusters {
		clusters[i] = hc3i.Cluster{Name: fmt.Sprintf("c%d", i), Nodes: 2}
		rates[i] = make([]float64, nc)
		rates[i][i] = 120           // local chatter
		rates[i][(i+1)%nc] = 6      // ring neighbour
		rates[i][(i+nc/2)%nc] = 1.5 // a long-haul dependency
	}
	b.ResetTimer()
	var msgs uint64
	for i := 0; i < b.N; i++ {
		res, err := hc3i.Run(hc3i.Config{
			Clusters:      clusters,
			TotalTime:     7200e9, // two virtual hours: messages amortize the O(width^2) federation setup
			RatesPerHour:  rates,
			StateSize:     64 << 10,
			TransitiveDDV: true,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.AppMessages {
			for _, v := range row {
				msgs += v
			}
		}
		b.ReportMetric(float64(res.Events), "events/run")
	}
	if msgs == 0 {
		b.Fatal("no application messages sent")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}
