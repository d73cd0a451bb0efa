package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// traceCSV renders the full trace tier (both topologies, both failure
// patterns, HC3I only) for the pinned golden seed.
func traceCSV(t *testing.T, rc Config) string {
	t.Helper()
	scs, err := MatrixScenarios("tier=trace")
	if err != nil {
		t.Fatal(err)
	}
	rc.Seed = 11
	rc.Quick = true
	tab, err := RunMatrix(rc, scs)
	if err != nil {
		t.Fatal(err)
	}
	return tab.CSV()
}

// TestTraceMatrixGolden pins the trace tier's CSV — including the
// p50/p99/p999 stable-delivery latency columns — byte-for-byte,
// sequentially and through the worker pool.
func TestTraceMatrixGolden(t *testing.T) {
	seq := traceCSV(t, Config{Workers: 1})
	if *updateGolden {
		if err := os.WriteFile(goldenPath("trace"), []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath("trace"))
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden once): %v", err)
	}
	if seq != string(want) {
		t.Errorf("sequential trace CSV diverged:\n--- got\n%s--- want\n%s", seq, want)
	}
	par := traceCSV(t, Config{Workers: 8})
	if par != string(want) {
		t.Errorf("parallel trace CSV diverged:\n--- got\n%s--- want\n%s", par, want)
	}
}

// TestTraceLatencyIdentityAcrossExecutionModes is the tier's
// acceptance gate: the latency percentile columns (and everything
// else) are byte-identical across batched vs unbatched wire, and with
// or without the invariant oracle.
func TestTraceLatencyIdentityAcrossExecutionModes(t *testing.T) {
	base := traceCSV(t, Config{Workers: 1})
	variants := []struct {
		name string
		rc   Config
	}{
		{"unbatched", Config{Workers: 1, UnbatchedWire: true}},
		{"oracle", Config{Workers: 1, Oracle: true}},
		{"unbatched-oracle", Config{Workers: 1, UnbatchedWire: true, Oracle: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			if got := traceCSV(t, v.rc); got != base {
				t.Errorf("%s diverged from the batched reference:\n--- got\n%s--- want\n%s", v.name, got, base)
			}
		})
	}
}

func TestMatrixScenariosTraceTier(t *testing.T) {
	scs, err := MatrixScenarios("tier=trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(tierNamed("trace").axes[axisTopology])*len(tierNamed("trace").axes[axisFailure]) {
		t.Fatalf("trace tier selected %d scenarios", len(scs))
	}
	for _, sc := range scs {
		if sc.Tier() != "trace" || sc.Workload != "openloop" || sc.Network != "trace" {
			t.Fatalf("non-trace scenario selected: %v", sc.Name())
		}
		if got := ProtocolsFor(sc); len(got) != 1 || got[0] != "hc3i" {
			t.Fatalf("trace protocols = %v", got)
		}
	}
	// The tier is inferred from its unambiguous axis values too.
	for _, filter := range []string{"network=trace", "workload=openloop"} {
		inferred, err := MatrixScenarios(filter)
		if err != nil {
			t.Fatalf("%s: %v", filter, err)
		}
		if len(inferred) != len(scs) {
			t.Fatalf("%s inferred %d scenarios, want %d", filter, len(inferred), len(scs))
		}
	}
	if _, err := MatrixScenarios("tier=trace,topology=8c"); err == nil {
		t.Fatal("8c accepted on the trace tier")
	}
	if _, err := MatrixScenarios("tier=classic,network=trace"); err == nil {
		t.Fatal("network=trace accepted on the classic tier")
	}
	if _, err := ParseScenario("2c/openloop/none/trace"); err != nil {
		t.Fatalf("trace scenario name round-trip: %v", err)
	}
}

func TestScenarioOptionsTrace(t *testing.T) {
	sc := Scenario{Topology: "2c", Workload: "openloop", Failure: "none", Network: "trace"}
	opts, err := ScenarioOptions(Config{Quick: true, Seed: 1}, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	if opts.LinkTrace == nil {
		t.Fatal("trace scenario built without a link trace")
	}
	if opts.Workload.OpenLoop == nil {
		t.Fatal("trace scenario workload is not open-loop")
	}
	if opts.CLCPeriods[0] != 5*sim.Minute {
		t.Fatalf("trace CLC period = %v", opts.CLCPeriods[0])
	}
	// The inter links carry the trace minimum so the perturber's
	// surplus is never negative.
	if got := opts.Topology.InterLink(0, 1).Latency; got != opts.LinkTrace.MinLatency() {
		t.Fatalf("inter latency %v != trace min %v", got, opts.LinkTrace.MinLatency())
	}
	if opts.Topology.InterLink(0, 1).Jitter != 0 {
		t.Fatal("trace links must not add static jitter on top of the replay")
	}
}

// TestScenarioOptionsTraceFile points the tier at a custom schedule
// and checks it displaces the embedded fixture.
func TestScenarioOptionsTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "custom.jsonl")
	custom := `{"t_ms": 0, "latency_ms": 5, "jitter_ms": 0, "loss": 0}
{"t_ms": 1000, "latency_ms": 9, "jitter_ms": 1, "loss": 0}
`
	if err := os.WriteFile(path, []byte(custom), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Topology: "2c", Workload: "openloop", Failure: "none", Network: "trace"}
	opts, err := ScenarioOptions(Config{Quick: true, Seed: 1, TraceFile: path}, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.LinkTrace.MinLatency(); got != 5*sim.Millisecond {
		t.Fatalf("custom trace min latency = %v", got)
	}
	if _, err := ScenarioOptions(Config{Quick: true, Seed: 1, TraceFile: filepath.Join(t.TempDir(), "absent.jsonl")}, sc, "hc3i"); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestRunMatrixTraceHeaders: the latency columns appear on trace-tier
// tables only, so the classic/wide/chaos goldens keep their shape.
func TestRunMatrixTraceHeaders(t *testing.T) {
	scs, err := MatrixScenarios("tier=trace,topology=2c,failure=none")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := RunMatrix(Config{Workers: 1, Seed: 3, Quick: true}, scs)
	if err != nil {
		t.Fatal(err)
	}
	h := strings.Join(tab.Headers, ",")
	for _, want := range []string{"p50_ms", "p99_ms", "p999_ms"} {
		if !strings.Contains(h, want) {
			t.Fatalf("trace headers missing %s: %v", want, tab.Headers)
		}
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Fatalf("row width %d != header width %d", len(row), len(tab.Headers))
		}
		p50 := row[len(row)-3]
		if p50 == "0.0" || p50 == "" {
			t.Fatalf("empty latency column in %v", row)
		}
	}
	classic, err := MatrixScenarios("topology=2c,workload=uniform,failure=none,network=lan")
	if err != nil {
		t.Fatal(err)
	}
	ctab, err := RunMatrix(Config{Workers: 1, Seed: 3, Quick: true}, classic)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(ctab.Headers, ","), "p50_ms") {
		t.Fatalf("classic table grew latency columns: %v", ctab.Headers)
	}
}
