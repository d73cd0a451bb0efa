package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The determinism regression suite: the scenario-matrix CSV output for a
// fixed seed is pinned byte-for-byte in testdata/, one golden file per
// failure pattern (the four patterns exercise disjoint protocol paths:
// quiescent runs, single rollback, simultaneous faults, repeated churn).
// The goldens were recorded from the seed implementation, before the
// allocation-slim engine and the pooled-DDV core landed; any divergence
// means an "optimization" changed simulation behaviour. Run with
// -update-golden to re-record after an intentional semantic change.
//
// The suite runs under `go test -race` in CI, so parallel execution of
// the matrix is also exercised with the race detector watching.

var updateGolden = flag.Bool("update-golden", false,
	"re-record the matrix determinism goldens from the current implementation")

func goldenPath(failure string) string {
	return filepath.Join("testdata", "matrix_golden_"+failure+".csv")
}

// matrixCSV renders the golden slice (2c/uniform/<failure>/lan under all
// four protocols) for the pinned seed with the given worker count.
func matrixCSV(t *testing.T, failure string, workers int) string {
	t.Helper()
	scs, err := MatrixScenarios("topology=2c,workload=uniform,network=lan,failure=" + failure)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := RunMatrix(Config{Workers: workers, Seed: 11, Quick: true}, scs)
	if err != nil {
		t.Fatal(err)
	}
	return tab.CSV()
}

// TestMatrixCSVMatchesSeedGolden asserts byte-identical matrix CSV
// output against the pre-refactor recordings, for at least one scenario
// per failure pattern, both sequentially and through the worker pool.
func TestMatrixCSVMatchesSeedGolden(t *testing.T) {
	for _, failure := range tierNamed("classic").axes[axisFailure] {
		failure := failure
		t.Run(failure, func(t *testing.T) {
			seq := matrixCSV(t, failure, 1)
			if *updateGolden {
				if err := os.WriteFile(goldenPath(failure), []byte(seq), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath(failure))
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden once): %v", err)
			}
			if seq != string(want) {
				t.Errorf("sequential matrix CSV diverged from the seed recording:\n--- got\n%s--- want\n%s", seq, want)
			}
			par := matrixCSV(t, failure, 8)
			if par != string(want) {
				t.Errorf("parallel matrix CSV diverged from the seed recording:\n--- got\n%s--- want\n%s", par, want)
			}
		})
	}
}
