package experiments

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestForEachSequentialAndParallel(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var mu sync.Mutex
		seen := map[int]int{}
		err := forEach(workers, 10, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != 10 {
			t.Fatalf("workers=%d: ran %d of 10 tasks", workers, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := forEach(4, 8, func(i int) error {
		switch i {
		case 3:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the error of the lowest index", err)
	}
}

func TestSweepKeepsPointOrder(t *testing.T) {
	cfg := Config{Workers: 8}
	tab := &Table{Headers: []string{"point", "sq"}}
	points := make([]int, 20)
	for i := range points {
		points[i] = i
	}
	err := sweep(cfg, tab, points, func(p int) ([]Row, error) {
		return []Row{{p, p * p}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		if row[0] != fmt.Sprint(i) {
			t.Fatalf("row %d holds point %s; parallel sweep must keep input order", i, row[0])
		}
	}
}

func TestRunUnknownIDReportsWithoutAborting(t *testing.T) {
	out := Run(Config{Workers: 2, Seed: 1, Quick: true}, []string{"nope", "F6"})
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].Err == nil {
		t.Fatal("unknown ID must error")
	}
	if out[1].Err != nil || out[1].Result == nil {
		t.Fatalf("valid ID alongside an unknown one must still run: %v", out[1].Err)
	}
}

// TestWorkersShareNoStats runs many federations concurrently and fails
// if any two of them hand back the same sim.Stats registry — the
// isolation property the whole parallel runner rests on. Running it
// under `go test -race` additionally catches any shared mutable state
// inside the simulations themselves.
func TestWorkersShareNoStats(t *testing.T) {
	cfg := Config{Seed: 7, Quick: true}
	scs, err := MatrixScenarios("topology=2c,workload=uniform")
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		sc    Scenario
		proto string
	}
	var runs []run
	for _, sc := range scs {
		for _, p := range MatrixProtocols {
			runs = append(runs, run{sc, p})
		}
	}
	stats := make([]*sim.Stats, len(runs))
	err = forEach(8, len(runs), func(i int) error {
		res, err := RunScenario(cfg, runs[i].sc, runs[i].proto)
		if err != nil {
			return err
		}
		stats[i] = res.Stats
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*sim.Stats]int{}
	for i, s := range stats {
		if s == nil {
			t.Fatalf("run %d returned no stats", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("runs %d and %d share one sim.Stats registry", prev, i)
		}
		seen[s] = i
	}
}

// TestRegistryParallelDeterminism is the determinism regression test:
// for a fixed seed, the rendered tables of a parallel run must be
// byte-identical to a sequential run, and two repeated parallel runs
// must be byte-identical to each other.
func TestRegistryParallelDeterminism(t *testing.T) {
	ids := []string{"F6", "F8", "A5"}
	render := func(workers int) string {
		var out string
		for _, r := range Run(Config{Workers: workers, Seed: 3, Quick: true}, ids) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			out += r.Result.Render()
		}
		return out
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
	if again := render(8); again != par {
		t.Fatal("two parallel runs with the same seed differ")
	}
}
