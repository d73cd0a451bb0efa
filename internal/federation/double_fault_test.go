package federation_test

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// doubleFaultOptions builds a 2-cluster run whose cluster 1 loses the
// given nodes at the same instant, 30 minutes in.
func doubleFaultOptions(nodesPer int, victims ...int) federation.Options {
	wl := app.Uniform(2, 600, 12, sim.Hour)
	wl.StateSize = 64 << 10
	opts := federation.Options{
		Topology:   topology.Small(2, nodesPer),
		Workload:   wl,
		CLCPeriods: []sim.Duration{10 * sim.Minute, 10 * sim.Minute},
		Seed:       5,
		Oracle:     true,
	}
	for _, v := range victims {
		opts.Crashes = append(opts.Crashes, federation.Crash{
			At:   sim.Time(30 * sim.Minute),
			Node: topology.NodeID{Cluster: 1, Index: v},
		})
	}
	return opts
}

// TestDoubleFaultInOneCluster: two nodes of one cluster crash at the
// same instant. The detection of the second victim must not be handed
// to the first, which has restarted but not recovered and holds no
// checkpoint to roll back to. With replication degree 2 a surviving
// node coordinates both recoveries; when the whole cluster is down no
// node can, and the run reports it instead of panicking.
func TestDoubleFaultInOneCluster(t *testing.T) {
	t.Run("replicated", func(t *testing.T) {
		opts := doubleFaultOptions(3, 0, 1)
		opts.Replicas = 2
		res := mustRun(t, opts)
		if res.Failures != 2 {
			t.Fatalf("failures = %d, want 2", res.Failures)
		}
		if res.Clusters[1].Rollbacks == 0 {
			t.Fatal("cluster 1 never rolled back")
		}
	})
	t.Run("whole cluster", func(t *testing.T) {
		f, err := federation.New(doubleFaultOptions(2, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Run()
		if err == nil || !strings.Contains(err.Error(), "failures had no surviving coordinator") {
			t.Fatalf("err = %v, want no surviving coordinator", err)
		}
	})
}
