package experiments

import (
	"os"
	"testing"
)

// The batching differential suite: batched pipe deliveries (the
// default) must be observationally byte-identical to the per-message
// reference (Config.unbatchedWire), because a batch only coalesces the
// *mechanics* of same-tick deliveries — every member still fires at its
// own (arrival, key) position in the global event order. The classic
// goldens pin the claim per failure pattern, the wide slice pins it at
// width 64, and the chaos leg pins it under adversarial perturbation
// (perturbed messages leave the batch path entirely and must not
// disturb members that stayed on it).

// unbatchedCSV renders a golden slice with per-message deliveries.
func unbatchedCSV(t *testing.T, filter string, oracle bool) string {
	t.Helper()
	scs, err := MatrixScenarios(filter)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := RunMatrix(Config{
		Workers: 4, Seed: 11, Quick: true,
		Oracle: oracle, unbatchedWire: true,
	}, scs)
	if err != nil {
		t.Fatal(err)
	}
	return tab.CSV()
}

// TestUnbatchedWireMatchesGoldenSlices runs every classic failure
// pattern with per-message deliveries: the CSVs must match the pinned
// goldens that the batched default also reproduces
// (TestMatrixCSVMatchesSeedGolden), so batched == unbatched == golden
// byte-for-byte.
func TestUnbatchedWireMatchesGoldenSlices(t *testing.T) {
	for _, failure := range tierNamed("classic").axes[axisFailure] {
		failure := failure
		t.Run(failure, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(failure))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			filter := "topology=2c,workload=uniform,network=lan,failure=" + failure
			if got := unbatchedCSV(t, filter, false); got != string(want) {
				t.Errorf("unbatched CSV diverged from the golden:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
	t.Run("wide", func(t *testing.T) {
		if testing.Short() {
			t.Skip("wide unbatched differential skipped in -short mode")
		}
		want, err := os.ReadFile(goldenPath("wide"))
		if err != nil {
			t.Fatalf("missing golden: %v", err)
		}
		if got := unbatchedCSV(t, "tier=wide,topology=64c", false); got != string(want) {
			t.Errorf("unbatched wide CSV diverged from the golden:\n--- got\n%s--- want\n%s", got, want)
		}
	})
}

// TestUnbatchedWireOracleGoldenIdentity is the oracle leg: the
// invariant checker attached to an unbatched run must stay pure
// observation, exactly as it does on the batched default.
func TestUnbatchedWireOracleGoldenIdentity(t *testing.T) {
	for _, failure := range tierNamed("classic").axes[axisFailure] {
		failure := failure
		t.Run(failure, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(failure))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			filter := "topology=2c,workload=uniform,network=lan,failure=" + failure
			if got := unbatchedCSV(t, filter, true); got != string(want) {
				t.Errorf("oracle-attached unbatched CSV diverged from the golden:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

// TestChaosBatchingDifferential compares the full statistics registry
// between batched and unbatched chaos runs: adversarial reordering,
// duplication and crash injection route individual messages off the
// batch path (perturbed copies deliver standalone), and every routing
// split must leave the observable run untouched. Schedules are
// deterministic per seed, so the dumps must match per seed. The runs
// are the chaos tier's own at traffic seed 1 (hc3ibench -matrix
// -filter tier=chaos -chaos-seeds n): chaos seeds 1..n, where n is 3
// (1 in -short mode) unless CHAOS_SEED_BUDGET sets it.
func TestChaosBatchingDifferential(t *testing.T) {
	fallback := 3
	if testing.Short() {
		fallback = 1
	}
	n, err := ChaosSeedBudget(fallback)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Scenario{
		{"2c", "uniform", "storm", "jitter"},
		{"4c", "bursty", "storm", "jitter"},
		{"4c", "uniform", "storm", "jitter"},
	}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= uint64(n); seed++ {
				cfg := Config{Seed: 1, Quick: true, ChaosSeed: seed, Oracle: true}
				ref, err := RunScenario(cfg, sc, "hc3i")
				if err != nil {
					t.Fatalf("seed %d (batched): %v", seed, err)
				}
				cfg.unbatchedWire = true
				raw, err := RunScenario(cfg, sc, "hc3i")
				if err != nil {
					t.Fatalf("seed %d (unbatched): %v", seed, err)
				}
				if ref.Events != raw.Events {
					t.Errorf("seed %d: batched ran %d events, unbatched %d", seed, ref.Events, raw.Events)
				}
				if b, u := ref.Stats.Dump(), raw.Stats.Dump(); b != u {
					t.Errorf("seed %d stats dump diverged:\n--- batched\n%s--- unbatched\n%s", seed, b, u)
				}
			}
		})
	}
}
