package oracle_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/oracle"
)

// TestGCCacheMatchesUncached holds the cached garbage-collection check
// against the uncached reference: every chaos scenario, 20 adversarial
// schedules each, clean and with each seeded protocol break armed. A
// schedule is one deterministic event stream, so running it once under
// each check drives both with the same events; both must come out
// clean, or both stop at the same first violation.
func TestGCCacheMatchesUncached(t *testing.T) {
	schedules := uint64(20)
	if testing.Short() {
		schedules = 4
	}
	mutations := []struct {
		name string
		arm  func()
	}{
		{"none", func() {}},
		{"AcceptStaleEpoch", func() { core.Mutate.AcceptStaleEpoch = true }},
		{"GCOverCollect", func() { core.Mutate.GCOverCollect = true }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			m.arm()
			defer func() { core.Mutate = core.MutationFlags{} }()
			violating := 0
			for _, sc := range experiments.ChaosMatrix() {
				for seed := uint64(1); seed <= schedules; seed++ {
					cached := firstViolation(t, sc, seed, false)
					uncached := firstViolation(t, sc, seed, true)
					if cached != uncached {
						t.Fatalf("%s schedule %d: cached check %q, uncached reference %q", sc.Name(), seed, cached, uncached)
					}
					if cached != "" {
						violating++
					}
				}
			}
			if m.name == "GCOverCollect" && violating == 0 {
				t.Fatal("no schedule reached the over-collecting GC: the comparison proved nothing")
			}
			t.Logf("%d schedules violating under both checks", violating)
		})
	}
}

// firstViolation runs one chaos schedule with the oracle attached,
// uncached or not, and returns its first violation ("" when clean).
func firstViolation(t *testing.T, sc experiments.Scenario, seed uint64, uncached bool) string {
	t.Helper()
	opts, err := experiments.ScenarioOptions(experiments.Config{Seed: seed, Quick: true, ChaosSeed: seed}, sc, "hc3i")
	if err != nil {
		t.Fatal(err)
	}
	f, err := federation.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if uncached {
		oracle.SetUncachedGC(f.Oracle())
	}
	// A violation or a harness failure both end the run: only the
	// oracle's record is compared.
	_, _ = f.Run()
	if err := f.Oracle().Err(); err != nil {
		return fmt.Sprint(err)
	}
	return ""
}
