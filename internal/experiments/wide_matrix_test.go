package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Wide-federation tier coverage: filter/axis plumbing, a pinned
// determinism golden for the 64-cluster slice (sequential and through
// the worker pool — the suite runs under -race in CI), a pinned digest
// at width 256, and a smoke run of the remaining widths.

func TestWideMatrixSelection(t *testing.T) {
	scs, err := MatrixScenarios("tier=wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(tierNamed("wide").axes[axisTopology])*len(tierNamed("wide").axes[axisFailure]) {
		t.Fatalf("tier=wide selected %d scenarios", len(scs))
	}
	for _, s := range scs {
		if s.Tier() != "wide" {
			t.Errorf("scenario %s not wide", s.Name())
		}
		if _, err := ParseScenario(s.Name()); err != nil {
			t.Errorf("round-trip of %s: %v", s.Name(), err)
		}
	}
	// Naming a wide topology implies the tier.
	scs, err = MatrixScenarios("topology=128c,failure=none")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || scs[0].Topology != "128c" {
		t.Fatalf("topology=128c selected %v", scs)
	}
	// The classic matrix must not leak wide scenarios and vice versa.
	if scs, _ := MatrixScenarios(""); len(scs) != 192 {
		t.Fatalf("classic matrix changed size: %d", len(scs))
	}
	if _, err := MatrixScenarios("tier=wide,workload=uniform"); err == nil {
		t.Fatal("uniform workload accepted in the wide tier")
	}
	if _, err := MatrixScenarios("tier=classic,topology=64c"); err == nil {
		t.Fatal("64c accepted in the classic tier")
	}
	if !strings.Contains(MatrixAxes(), "tier") {
		t.Fatal("MatrixAxes does not mention the wide tier")
	}
}

// wideCSV renders the 64c wide slice for the pinned seed.
func wideCSV(t *testing.T, workers int) string {
	t.Helper()
	scs, err := MatrixScenarios("tier=wide,topology=64c")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := RunMatrix(Config{Workers: workers, Seed: 11, Quick: true}, scs)
	if err != nil {
		t.Fatal(err)
	}
	return tab.CSV()
}

// TestWideMatrixGolden pins the 64-cluster wide slice byte-for-byte,
// sequentially and through the worker pool (the wide tier runs the
// transitive extension, so this pins its whole-vector piggybacks at
// federation scale). Re-record with -update-golden.
func TestWideMatrixGolden(t *testing.T) {
	path := goldenPath("wide")
	seq := wideCSV(t, 1)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden once): %v", err)
	}
	if seq != string(want) {
		t.Errorf("sequential wide CSV diverged:\n--- got\n%s--- want\n%s", seq, want)
	}
	if par := wideCSV(t, 8); par != string(want) {
		t.Errorf("parallel wide CSV diverged:\n--- got\n%s--- want\n%s", par, want)
	}
}

// TestWide256Differential runs the widest classic-sized scenario under
// HC3I, its 256-entry vectors riding every inter-cluster message, and
// pins the statistics dump by its SHA-256 digest. The digest was
// recorded when transitive piggybacks still rode per-pipe delta codecs,
// which gave the same dump as the whole-vector form.
func TestWide256Differential(t *testing.T) {
	if testing.Short() {
		t.Skip("256-cluster run skipped in -short mode")
	}
	sc := Scenario{Topology: "256c", Workload: "ring", Failure: "crash", Network: "lan"}
	res, err := RunScenario(Config{Seed: 7, Quick: true}, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 99538 {
		t.Errorf("%d events, want 99538", res.Events)
	}
	const want = "0f46fa28ebfa8c4dbcb77c3bc94cf244c2a119a52ee5726b3dcc5da749f43f2b"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Stats.Dump()))); got != want {
		t.Errorf("256c stats dump digest %s, want %s", got, want)
	}
}

// TestWideSmoke runs one scenario of each remaining width end-to-end
// under every protocol (the 64c slice is covered by the golden).
func TestWideSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wide smoke skipped in -short mode")
	}
	for _, topo := range []string{"128c", "256c"} {
		sc := Scenario{Topology: topo, Workload: "ring", Failure: "crash", Network: "lan"}
		for _, proto := range MatrixProtocols {
			res, err := RunScenario(Config{Seed: 3, Quick: true}, sc, proto)
			if err != nil {
				t.Fatalf("%s under %s: %v", sc.Name(), proto, err)
			}
			if res.Events == 0 {
				t.Fatalf("%s under %s: empty run", sc.Name(), proto)
			}
		}
	}
}

// TestWide1024Smoke assembles and runs the widest rung — 1024
// clusters, 1024-entry DDVs — with the oracle attached and a crash and
// recovery in flight. The virtual time is cut to one minute so the
// rung fits the suite; the full quick duration runs through `hc3ibench
// -matrix -filter topology=1024c` and BenchmarkWideSlice1024.
func TestWide1024Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-cluster smoke skipped in -short mode")
	}
	sc := Scenario{Topology: "1024c", Workload: "ring", Failure: "crash", Network: "lan"}
	opts, err := ScenarioOptions(Config{Seed: 3, Quick: true}, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	opts.Workload.TotalTime = sim.Minute
	opts.Crashes = []federation.Crash{
		{At: sim.Time(0).Add(30 * sim.Second), Node: topology.NodeID{Cluster: 0, Index: 1}},
	}
	opts.Oracle = true
	res, err := runFed(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1024 {
		t.Fatalf("expected 1024 cluster results, got %d", len(res.Clusters))
	}
	if res.Failures != 1 {
		t.Fatalf("expected the scheduled crash, got %d failures", res.Failures)
	}
}
