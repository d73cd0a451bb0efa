package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/sim"
)

func TestMatrixCrossProduct(t *testing.T) {
	all := Matrix()
	want := 1
	for _, axis := range tierNamed("classic").axes {
		want *= len(axis)
	}
	if len(all) != want {
		t.Fatalf("matrix has %d scenarios, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name()] {
			t.Fatalf("duplicate scenario %s", s.Name())
		}
		seen[s.Name()] = true
	}
}

func TestScenarioNameRoundTrip(t *testing.T) {
	for _, s := range Matrix() {
		back, err := ParseScenario(s.Name())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if back != s {
			t.Fatalf("round trip changed %v into %v", s, back)
		}
	}
}

func TestParseScenarioErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"2c/uniform/none",
		"2c/uniform/none/lan/extra",
		"3c/uniform/none/lan",
		"2c/spiky/none/lan",
		"2c/uniform/meteor/lan",
		"2c/uniform/none/avian",
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted", bad)
		}
	}
}

func TestMatrixScenariosFilter(t *testing.T) {
	all, err := MatrixScenarios("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Matrix()) {
		t.Fatalf("empty filter selected %d of %d", len(all), len(Matrix()))
	}
	some, err := MatrixScenarios("topology=2c, failure=churn")
	if err != nil {
		t.Fatal(err)
	}
	classic := tierNamed("classic")
	want := len(classic.axes[axisWorkload]) * len(classic.axes[axisNetwork])
	if len(some) != want {
		t.Fatalf("filter selected %d, want %d", len(some), want)
	}
	for _, s := range some {
		if s.Topology != "2c" || s.Failure != "churn" {
			t.Fatalf("filter leaked %s", s.Name())
		}
	}
	for _, bad := range []string{"topology", "color=red", "topology=3c", "workload=spiky"} {
		if _, err := MatrixScenarios(bad); err == nil {
			t.Errorf("filter %q accepted", bad)
		}
	}
}

func TestScenarioOptionsBuildEverywhere(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	for _, s := range Matrix() {
		for _, p := range MatrixProtocols {
			opts, err := ScenarioOptions(cfg, s, p)
			if err != nil {
				t.Fatalf("%s under %s: %v", s.Name(), p, err)
			}
			if opts.Topology == nil || opts.Workload == nil {
				t.Fatalf("%s under %s: incomplete options", s.Name(), p)
			}
			if err := opts.Workload.Validate(opts.Topology); err != nil {
				t.Fatalf("%s: workload invalid: %v", s.Name(), err)
			}
		}
	}
	if _, err := ScenarioOptions(cfg, Scenario{Topology: "2c", Workload: "uniform", Failure: "none", Network: "lan"}, "quantum"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestScenarioOptionsApplyWholeConfig: every run-wide switch of the
// Config reaches the federation options ScenarioOptions returns —
// callers that assemble here and run the federation themselves
// (ChaosRun, the benchmark's chaos count pass) must not get half a
// configuration.
func TestScenarioOptionsApplyWholeConfig(t *testing.T) {
	sc := Scenario{Topology: "2c", Workload: "uniform", Failure: "none", Network: "lan"}
	cases := []struct {
		field string
		cfg   Config
		got   func(federation.Options) bool
	}{
		{"unbatchedWire", Config{unbatchedWire: true}, func(o federation.Options) bool { return o.UnbatchedWire }},
		{"Oracle", Config{Oracle: true}, func(o federation.Options) bool { return o.Oracle }},
		{"RunTimeout", Config{RunTimeout: time.Minute}, func(o federation.Options) bool { return o.Watchdog == time.Minute }},
	}
	base, err := ScenarioOptions(Config{Seed: 1, Quick: true}, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if tc.got(base) {
			t.Fatalf("%s already set by a zero Config; the case proves nothing", tc.field)
		}
		tc.cfg.Seed, tc.cfg.Quick = 1, true
		opts, err := ScenarioOptions(tc.cfg, sc, "hc3i")
		if err != nil {
			t.Fatal(err)
		}
		if !tc.got(opts) {
			t.Errorf("ScenarioOptions dropped Config.%s", tc.field)
		}
	}
}

// TestMatrixParallelDeterminism proves the acceptance property on a
// matrix slice: parallel execution renders byte-identical output to
// sequential execution for a fixed seed, and repeats reproduce it.
func TestMatrixParallelDeterminism(t *testing.T) {
	scs, err := MatrixScenarios("topology=2c,workload=uniform,network=lan")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		tab, err := RunMatrix(Config{Workers: workers, Seed: 5, Quick: true}, scs)
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("matrix parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
	if again := render(8); again != par {
		t.Fatal("two parallel matrix runs with the same seed differ")
	}
	if !strings.Contains(seq, "hc3i") || !strings.Contains(seq, "pessimistic-log") {
		t.Fatal("matrix table misses protocols")
	}
}

// TestMatrixFailurePatterns runs one scenario per failure pattern under
// HC3I and checks the pattern injected what it promises.
func TestMatrixFailurePatterns(t *testing.T) {
	cfg := Config{Seed: 2, Quick: true}
	wantFailures := map[string]uint64{"none": 0, "crash": 1, "corr": 2, "churn": 4}
	for _, fl := range tierNamed("classic").axes[axisFailure] {
		sc := Scenario{Topology: "4c", Workload: "uniform", Failure: fl, Network: "lan"}
		res, err := RunScenario(cfg, sc, "hc3i")
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if res.Failures != wantFailures[fl] {
			t.Errorf("%s injected %d failures, want %d", fl, res.Failures, wantFailures[fl])
		}
		var rollbacks uint64
		for _, c := range res.Clusters {
			rollbacks += c.Rollbacks
		}
		if fl == "none" && rollbacks != 0 {
			t.Errorf("failure-free scenario rolled back %d times", rollbacks)
		}
		if fl != "none" && rollbacks == 0 {
			t.Errorf("%s produced no rollbacks", fl)
		}
	}
}

// TestMatrixBurstyWorkloadBunches checks the bursty workload carries a
// real on-off envelope (the per-send behaviour is tested in
// internal/app).
func TestMatrixBurstyWorkloadBunches(t *testing.T) {
	wl, err := matrixWorkload("bursty", 2, 90*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Burst == nil {
		t.Fatal("bursty workload has no burst envelope")
	}
	on := wl.Burst.Warp(wl.TotalTime)
	if on >= wl.TotalTime {
		t.Fatalf("burst envelope is always on: on-time %v of %v", on, wl.TotalTime)
	}
}
