package federation_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/sim"
)

// The mutation catalogue: each core.Mutate flag breaks one protocol
// rule, and a battery of the project's checks must catch every one of
// them — a checker that stays silent while the protocol is broken
// proves nothing. The battery runs, in order, up to its first failure:
//
//  1. the quick chaos tier on diagonal seeds (traffic seed = schedule
//     seed = 1..catalogueSeeds, every scenario), oracle attached, with
//     the harness's end-of-run checks (message completeness, SN/DDV
//     agreement);
//  2. the classic golden matrix slices (internal/experiments/testdata);
//  3. the independent protocol's stats-dump golden (testdata/).
//
// The wire flags (DropCommitPair, DropAckPair, DropForcePair) stand in
// for the dense twins the checkpoint round's control messages used to
// be checked against: a delta that loses a pair must not pass.

// catalogueSeeds is how many diagonal seeds the battery runs per chaos
// scenario.
const catalogueSeeds = 20

// A finding is the battery's first failure: the step that failed, its
// error, and the virtual time it was seen at (the violation's instant,
// or the end of the run for the end-of-run checks and the goldens).
type finding struct {
	step string
	at   string
	err  error
}

func TestMutationCatalogue(t *testing.T) {
	rows := []struct {
		name  string
		flags core.MutationFlags
		// caught is a substring of the first failure; "" means the
		// battery must stay clean.
		caught string
	}{
		{"none", core.MutationFlags{}, ""},
		{"AcceptStaleEpoch", core.MutationFlags{AcceptStaleEpoch: true}, "oracle:"},
		{"GCOverCollect", core.MutationFlags{GCOverCollect: true}, "gc safety"},
		{"DropCommitPair", core.MutationFlags{DropCommitPair: true}, "commit agreement"},
		{"DropAckPair", core.MutationFlags{DropAckPair: true}, "DDV disagreement"},
		{"DropForcePair", core.MutationFlags{DropForcePair: true}, "lost"},
		{"SkipCICHold", core.MutationFlags{SkipCICHold: true}, "orphan:"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			core.Mutate = r.flags
			defer func() { core.Mutate = core.MutationFlags{} }()
			f := runBattery(t)
			switch {
			case f == nil && r.caught == "":
				t.Logf("battery clean: %d diagonal seeds of the chaos tier, the classic goldens, the independent stats dump", catalogueSeeds)
			case f == nil:
				t.Fatalf("no check caught %s", r.name)
			case r.caught == "":
				t.Fatalf("%s failed at %s with every flag off: %v", f.step, f.at, f.err)
			case !strings.Contains(f.err.Error(), r.caught):
				t.Fatalf("first caught by %s at %s, not by the expected check (%q): %v", f.step, f.at, r.caught, f.err)
			default:
				t.Logf("first caught by %s at %s: %v", f.step, f.at, f.err)
			}
		})
	}
}

// runBattery runs the catalogue's battery under whatever core.Mutate
// holds and returns its first failure, nil if every step passes.
func runBattery(t *testing.T) *finding {
	t.Helper()
	chaos, err := experiments.MatrixScenarios("tier=chaos")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= catalogueSeeds; seed++ {
		for _, sc := range chaos {
			opts, err := experiments.ScenarioOptions(experiments.Config{Seed: seed, Quick: true, ChaosSeed: seed}, sc, "hc3i")
			if err != nil {
				t.Fatal(err)
			}
			if _, at, err := runAt(t, opts); err != nil {
				return &finding{step: fmt.Sprintf("chaos %s seed %d", sc.Name(), seed), at: at.String(), err: err}
			}
		}
	}

	classic, err := experiments.MatrixScenarios("topology=2c,workload=uniform,network=lan")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range classic {
		golden := filepath.Join("..", "experiments", "testdata", "matrix_golden_"+sc.Failure+".csv")
		step := "golden " + sc.Name()
		tab, err := experiments.RunMatrix(experiments.Config{Workers: 2, Seed: 11, Quick: true}, []experiments.Scenario{sc})
		if err != nil {
			return &finding{step: step, at: "end of run", err: err}
		}
		if err := sameAsGolden(t, golden, tab.CSV()); err != nil {
			return &finding{step: step, at: "end of run", err: err}
		}
	}

	res, at, err := runAt(t, protocolDumpOptions("independent")())
	if err == nil {
		err = sameAsGolden(t, filepath.Join("testdata", "stats_dump_independent.golden"), res.Stats.Dump())
	}
	if err != nil {
		return &finding{step: "stats dump independent", at: at.String(), err: err}
	}
	return nil
}

// runAt runs one federation and returns its result or error together
// with the virtual time the run stopped at: a violation stops it at the
// offending event.
func runAt(t *testing.T, opts federation.Options) (*federation.Result, sim.Time, error) {
	t.Helper()
	f, err := federation.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	return res, f.Engine().Now(), err
}

// sameAsGolden compares got with the golden file at path and names the
// first line that differs.
func sameAsGolden(t *testing.T, path, got string) error {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			return fmt.Errorf("%s line %d: got %q, want %q", filepath.Base(path), i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("%s: got %d lines, want %d", filepath.Base(path), len(g), len(w))
}
