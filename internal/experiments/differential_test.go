package experiments

import (
	"os"
	"testing"
)

// The delta-vs-dense differential suite: the delta DDV wire encoding
// (the default) must be observationally identical to the dense
// reference encoding — same CSV bytes for every table — because both
// are priced at the dense width and the delta form reconstructs every
// vector exactly. The matrix goldens cover the piggyback/commit paths
// across all four failure patterns; the ablation runs cover the
// transitive codec (A1), the garbage collectors (T2, A5) and — under
// the full seed sweep — the crash/recovery/cascade machinery (A4, A6).

// TestDenseWireMatchesGoldenSlices runs the golden matrix slices with
// the dense reference encoding: both encodings must reproduce the
// pre-refactor recordings byte-for-byte (the delta run is asserted by
// TestMatrixCSVMatchesSeedGolden).
func TestDenseWireMatchesGoldenSlices(t *testing.T) {
	for _, failure := range tierNamed("classic").axes[axisFailure] {
		failure := failure
		t.Run(failure, func(t *testing.T) {
			scs, err := MatrixScenarios("topology=2c,workload=uniform,network=lan,failure=" + failure)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := RunMatrix(Config{Workers: 4, Seed: 11, Quick: true, DenseWire: true}, scs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(failure))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got := tab.CSV(); got != string(want) {
				t.Errorf("dense-wire matrix CSV diverged from the golden:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

// runBothEncodings renders one experiment under both encodings and
// asserts byte-identical CSV output.
func runBothEncodings(t *testing.T, id string, seed uint64) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	delta, err := e.Run(Config{Seed: seed, Quick: true})
	if err != nil {
		t.Fatalf("%s seed %d (delta): %v", id, seed, err)
	}
	dense, err := e.Run(Config{Seed: seed, Quick: true, DenseWire: true})
	if err != nil {
		t.Fatalf("%s seed %d (dense): %v", id, seed, err)
	}
	if d, s := delta.CSV(), dense.CSV(); d != s {
		t.Errorf("%s seed %d: delta and dense encodings diverged:\n--- delta\n%s--- dense\n%s", id, seed, d, s)
	}
}

// TestDeltaWireDifferentialQuick covers one seed of the encoding-
// sensitive experiments: the transitive piggyback codec (A1), the
// centralized and ring garbage collectors' chain-delta reports (T2,
// A5) and the saturation-triggered collector (A9).
func TestDeltaWireDifferentialQuick(t *testing.T) {
	for _, id := range []string{"A1", "T2", "A5", "A9"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runBothEncodings(t, id, 11)
		})
	}
}

// TestDeltaWireDifferentialRecoverySweeps sweeps the failure-heavy
// ablations (rollback cascades under all five protocols, simultaneous
// multi-cluster faults) across 25 seeds under both encodings: every
// crash/rollback/recovery alignment must produce identical tables.
func TestDeltaWireDifferentialRecoverySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("differential seed sweep skipped in -short mode")
	}
	for _, id := range []string{"A4", "A6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 25; seed++ {
				runBothEncodings(t, id, seed)
			}
		})
	}
}
