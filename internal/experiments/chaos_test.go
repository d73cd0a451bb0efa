package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/federation"
	"repro/internal/sim"
)

// The chaos-tier suite: adversarial schedules (bounded reordering,
// duplicate deliveries, crash injection into protocol-sensitive
// windows) with the invariant oracle attached. This discipline has
// already paid for itself: the seed sweeps surfaced three real
// protocol bugs — rollback alerts deferred during crash recovery were
// dropped on the floor (never deciding the cascade, leaving orphan
// deliveries); reexamineHeld could deliver a held message inside the
// *next* checkpoint's freeze window, breaking the ack convention that
// a delivery at SN k is captured by checkpoint k+1 (a crash plus
// rollback to that checkpoint then lost the message permanently); and
// the cascade-suppression memo silenced a genuinely new rollback to a
// repeated target, leaving covered post-restore deliveries as
// permanent orphans (fixed by the post-restore anchor CLC).

// chaosSeedBudget returns how many adversarial schedules the sweep
// runs: 1000 by default (the tier's acceptance budget), a quick
// fraction in -short mode, or whatever CHAOS_SEED_BUDGET asks for
// (the nightly CI job raises it). Parsing and the >= 1 validation live
// in ChaosSeedBudget, so a malformed override fails here, up front,
// with the accepted forms — not after the sweep already started.
func chaosSeedBudget(t *testing.T) int {
	fallback := 1000
	if testing.Short() {
		fallback = 60
	}
	n, err := ChaosSeedBudget(fallback)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestChaosTierSeeds sweeps the seed budget across the chaos tier,
// weighted toward the cheap topologies so the default budget stays in
// seconds: every run must finish with the oracle clean and every
// harness invariant (message completeness, SN/DDV agreement) intact.
// A failure names the chaos seed: replay it with
// `hc3ibench -quick -matrix -filter tier=chaos,... -chaos-seed N`.
func TestChaosTierSeeds(t *testing.T) {
	budget := chaosSeedBudget(t)
	type slice struct {
		sc     Scenario
		weight int // per mille of the budget
	}
	// Seeds are 1000*(slice index)+k, so the three scenarios listed
	// twice draw a second, disjoint seed range — distinct adversarial
	// schedules, not repeats.
	slices := []slice{
		{Scenario{"2c", "uniform", "storm", "jitter"}, 220},
		{Scenario{"2c", "bursty", "storm", "jitter"}, 220},
		{Scenario{"4c", "uniform", "storm", "jitter"}, 180},
		{Scenario{"4c", "bursty", "storm", "jitter"}, 180},
		{Scenario{"8c", "uniform", "storm", "jitter"}, 50},
		{Scenario{"8c", "bursty", "storm", "jitter"}, 50},
		{Scenario{"4c", "uniform", "storm", "jitter"}, 40},
		{Scenario{"4c", "bursty", "storm", "jitter"}, 30},
		{Scenario{"8c", "uniform", "storm", "jitter"}, 30},
	}
	type run struct {
		sc   Scenario
		seed uint64
	}
	var runs []run
	for si, s := range slices {
		n := budget * s.weight / 1000
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			runs = append(runs, run{sc: s.sc, seed: uint64(1000*si + k + 1)})
		}
	}
	err := forEach(DefaultWorkers(), len(runs), func(i int) error {
		cfg := Config{Seed: runs[i].seed, Quick: true, ChaosSeed: runs[i].seed}
		_, err := RunScenario(cfg, runs[i].sc, "hc3i")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d adversarial schedules clean", len(runs))
}

// TestChaosReplayDeterminism: one chaos seed is one schedule — the
// whole run (every statistic, every event) replays identically.
func TestChaosReplayDeterminism(t *testing.T) {
	sc := Scenario{Topology: "4c", Workload: "uniform", Failure: "storm", Network: "jitter"}
	cfg := Config{Seed: 21, Quick: true, ChaosSeed: 77}
	a, err := RunScenario(cfg, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(cfg, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Fatalf("replay diverged: %d vs %d events", a.Events, b.Events)
	}
	if d1, d2 := a.Stats.Dump(), b.Stats.Dump(); d1 != d2 {
		t.Errorf("replay diverged in stats:\n--- first\n%s\n--- second\n%s", d1, d2)
	}
	if a.Failures == 0 {
		t.Error("chaos run injected no crashes; the schedule is not adversarial")
	}
}

// TestOracleGoldenByteIdentity re-runs the pinned golden slices —
// every classic failure pattern and the 64-cluster wide slice (whose
// transitive piggybacks exercise the pipe-lockstep check) — with the
// oracle attached: the CSV must stay byte-identical to the recordings,
// proving the oracle is pure observation. A 128-cluster transitive run
// with garbage collection on, where the oracle checks every GC round,
// must match its oracle-off twin statistic for statistic.
func TestOracleGoldenByteIdentity(t *testing.T) {
	for _, failure := range tierNamed("classic").axes[axisFailure] {
		failure := failure
		t.Run(failure, func(t *testing.T) {
			scs, err := MatrixScenarios("topology=2c,workload=uniform,network=lan,failure=" + failure)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := RunMatrix(Config{Workers: 4, Seed: 11, Quick: true, Oracle: true}, scs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(failure))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got := tab.CSV(); got != string(want) {
				t.Errorf("oracle-attached matrix CSV diverged from the golden:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
	t.Run("wide", func(t *testing.T) {
		if testing.Short() {
			t.Skip("wide oracle identity skipped in -short mode")
		}
		scs, err := MatrixScenarios("tier=wide,topology=64c")
		if err != nil {
			t.Fatal(err)
		}
		tab, err := RunMatrix(Config{Workers: 8, Seed: 11, Quick: true, Oracle: true}, scs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(goldenPath("wide"))
		if err != nil {
			t.Fatalf("missing golden: %v", err)
		}
		if got := tab.CSV(); got != string(want) {
			t.Errorf("oracle-attached wide CSV diverged from the golden:\n--- got\n%s--- want\n%s", got, want)
		}
	})
	t.Run("wide-gc", func(t *testing.T) {
		// 128 clusters, transitive piggybacks, garbage collection on:
		// the oracle checks every round's drops, and the run's
		// statistics must not notice.
		if testing.Short() {
			t.Skip("wide GC oracle identity skipped in -short mode")
		}
		sc := Scenario{Topology: "128c", Workload: "ring", Failure: "crash", Network: "lan"}
		run := func(attach bool) *federation.Result {
			opts, err := ScenarioOptions(Config{Seed: 11, Quick: true}, sc, "hc3i")
			if err != nil {
				t.Fatal(err)
			}
			if !opts.Transitive {
				t.Fatal("the wide tier no longer runs transitive piggybacks")
			}
			opts.GCPeriod = 5 * sim.Minute
			opts.Oracle = attach
			res, err := runFed(opts)
			if err != nil {
				t.Fatalf("oracle=%v: %v", attach, err)
			}
			return res
		}
		off, on := run(false), run(true)
		if len(on.GCRounds) == 0 {
			t.Fatal("no GC round completed: the drops went unchecked")
		}
		t.Logf("%d GC rounds, %d events, %d failures", len(on.GCRounds), on.Events, on.Failures)
		if a, b := off.Stats.Dump(), on.Stats.Dump(); a != b || off.Events != on.Events {
			t.Errorf("oracle-attached run diverged: %d vs %d events\n--- off\n%s--- on\n%s", off.Events, on.Events, a, b)
		}
	})
}

// TestChaosTierSelection covers the tier's filter plumbing: explicit
// tier=chaos, inference from failure=storm, and the chaos axes'
// validation errors.
func TestChaosTierSelection(t *testing.T) {
	scs, err := MatrixScenarios("tier=chaos")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(ChaosMatrix()) {
		t.Fatalf("tier=chaos selected %d scenarios, want %d", len(scs), len(ChaosMatrix()))
	}
	for _, sc := range scs {
		if sc.Tier() != "chaos" {
			t.Fatalf("non-chaos scenario %s in the chaos tier", sc.Name())
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("chaos scenario %s invalid: %v", sc.Name(), err)
		}
	}
	inferred, err := MatrixScenarios("failure=storm,topology=2c")
	if err != nil {
		t.Fatal(err)
	}
	if len(inferred) != 2 {
		t.Fatalf("failure=storm inference selected %d scenarios, want 2", len(inferred))
	}
	if _, err := MatrixScenarios("tier=chaos,failure=crash"); err == nil {
		t.Fatal("classic failure accepted on the chaos tier")
	}
	if _, err := MatrixScenarios("tier=chaos,network=lan"); err == nil {
		t.Fatal("chaos tier must demand the jitter network (the reorder envelope)")
	}
}

// TestMatrixFilterUnknownKeyErrors pins the -filter error contract: an
// unknown key must not silently match nothing — it errors listing the
// valid keys and tiers, and unknown values keep listing their axis.
func TestMatrixFilterUnknownKeyErrors(t *testing.T) {
	_, err := MatrixScenarios("topo=2c")
	if err == nil {
		t.Fatal("unknown filter key accepted")
	}
	for _, want := range []string{"unknown key", "topology", "workload", "failure", "network", "tier", "classic", "wide", "chaos"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-key error %q does not list %q", err, want)
		}
	}
	if _, err := MatrixScenarios("tier=quantum"); err == nil ||
		!strings.Contains(err.Error(), "classic, wide, chaos") {
		t.Errorf("unknown tier error must list the tiers, got: %v", err)
	}
	if _, err := MatrixScenarios("topology=3c"); err == nil ||
		!strings.Contains(err.Error(), "2c") {
		t.Errorf("unknown topology error must list the axis values, got: %v", err)
	}
	if _, err := MatrixScenarios("topology=2c,topology=4c"); err == nil {
		t.Error("duplicate key accepted")
	}
}

// TestChaosRejectsDeltaTransitive pins the three combinations
// federation.New refuses, each with its message: chaos and trace links
// together (both claim the network's perturbation hook), and either one
// on delta-encoded transitive piggybacks (duplicates or reordered exits
// would desync the per-pipe codecs).
func TestChaosRejectsDeltaTransitive(t *testing.T) {
	chaosSc := Scenario{Topology: "2c", Workload: "uniform", Failure: "storm", Network: "jitter"}
	traceSc := Scenario{Topology: "2c", Workload: "openloop", Failure: "none", Network: "trace"}
	cases := []struct {
		name string
		sc   Scenario
		edit func(*federation.Options)
		want string
	}{
		{"trace with chaos", traceSc, func(o *federation.Options) { o.Chaos = &chaos.Config{Seed: 1} },
			"federation: LinkTrace and Chaos both claim the network perturbation hook; run them separately"},
		{"trace on delta transitive", traceSc, func(o *federation.Options) { o.Transitive = true },
			"federation: trace-driven links cannot run on delta-encoded transitive piggybacks (reordered exits would desync the pipe codecs); set NoPipeCodecs"},
		{"chaos on delta transitive", chaosSc, func(o *federation.Options) { o.Transitive = true },
			"federation: chaos scheduling cannot run on delta-encoded transitive piggybacks (duplicate deliveries would desync the pipe codecs); set NoPipeCodecs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, err := ScenarioOptions(Config{Seed: 1, Quick: true}, tc.sc, "hc3i")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runFed(opts); err != nil {
				t.Fatalf("the unedited scenario must run: %v", err)
			}
			tc.edit(&opts)
			if _, err := runFed(opts); err == nil || err.Error() != tc.want {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}

// TestDenseWireRunsTransitiveChaosAndTrace: the escape the refusals
// name — the codec-free reference wire — runs every chaos-tier and
// trace-tier scenario in transitive mode with the oracle clean and the
// harness invariants intact.
func TestDenseWireRunsTransitiveChaosAndTrace(t *testing.T) {
	chaosSeeds, traceSeeds := 20, 3
	if testing.Short() {
		chaosSeeds, traceSeeds = 2, 1
	}
	type run struct {
		sc   Scenario
		seed uint64
	}
	var runs []run
	for _, sc := range ChaosMatrix() {
		for k := 1; k <= chaosSeeds; k++ {
			runs = append(runs, run{sc, uint64(k)})
		}
	}
	traces, err := MatrixScenarios("tier=trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range traces {
		for k := 1; k <= traceSeeds; k++ {
			runs = append(runs, run{sc, uint64(k)})
		}
	}
	err = forEach(DefaultWorkers(), len(runs), func(i int) error {
		r := runs[i]
		cfg := Config{Seed: r.seed, Quick: true, ChaosSeed: r.seed, Oracle: true, noPipeCodecs: true}
		opts, err := ScenarioOptions(cfg, r.sc, "hc3i")
		if err != nil {
			return err
		}
		opts.Transitive = true
		if _, err := runFed(opts); err != nil {
			return fmt.Errorf("%s seed %d: %w", r.sc.Name(), r.seed, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
