package federation_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// wideRingOptions is the benchmark's wide_ring federation: 1024
// two-node clusters, each talking to itself, to its ring neighbour and
// to one long-haul partner, transitive piggybacks, and one crash
// halfway through.
func wideRingOptions() federation.Options {
	const n = 1024
	clusters := make([]topology.Cluster, n)
	for i := range clusters {
		clusters[i] = topology.Cluster{Nodes: 2, Intra: topology.MyrinetLike()}
	}
	topo := topology.New(clusters...)
	topo.SetAllInterLinks(topology.EthernetLike())
	rates := make([][]float64, n)
	periods := make([]sim.Duration, n)
	for i := range rates {
		rates[i] = make([]float64, n)
		rates[i][i] = 120
		rates[i][(i+1)%n] = 6
		rates[i][(i+n/2)%n] = 1.5
		periods[i] = 10 * sim.Minute
	}
	total := 2 * sim.Hour
	return federation.Options{
		Topology: topo,
		Workload: &app.Workload{
			TotalTime: total, RatesPerHour: rates, MsgSize: 4096, StateSize: 64 << 10,
			MeanCompute: 2 * sim.Second, Deterministic: true,
		},
		CLCPeriods: periods,
		GCPeriod:   30 * sim.Minute,
		Transitive: true,
		Crashes:    []federation.Crash{{At: sim.Time(total / 2), Node: topology.NodeID{Cluster: 0, Index: 1}}},
		Seed:       1,
	}
}

// BenchmarkFederationNewWide assembles the 1024-cluster ring: per-node
// protocol state, applications and timers, and whatever per-pair state
// assembly allocates. Run with -benchmem: B/op is the set-up memory a
// wide run holds before its first message.
func BenchmarkFederationNewWide(b *testing.B) {
	opts := wideRingOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if wideFed, err = federation.New(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// wideFed keeps the benchmark's result reachable.
var wideFed *federation.Fed
