package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestChaosRunBudgetIdentity: capping the schedule at exactly the op
// count the unlimited run applied must change nothing — the budget is
// a true prefix, so budget == len(schedule) is the whole schedule.
// Budgets beyond it are equally inert.
func TestChaosRunBudgetIdentity(t *testing.T) {
	sc := Scenario{Topology: "4c", Workload: "uniform", Failure: "storm", Network: "jitter"}
	base := ChaosRun{Scenario: sc, Protocol: "hc3i", Config: Config{Seed: 77, Quick: true}}
	full := base.Run()
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	if full.Ops == 0 {
		t.Fatal("unlimited chaos run applied no perturbations; nothing to budget")
	}
	for _, budget := range []int{full.Ops, full.Ops + 1000} {
		capped := base
		capped.Config.ChaosOps = budget
		got := capped.Run()
		if got.Err != nil {
			t.Fatalf("budget %d: %v", budget, got.Err)
		}
		if got.Ops != full.Ops {
			t.Fatalf("budget %d applied %d ops, unlimited applied %d", budget, got.Ops, full.Ops)
		}
		if got.Result.Events != full.Result.Events {
			t.Fatalf("budget %d diverged: %d vs %d events", budget, got.Result.Events, full.Result.Events)
		}
		if d1, d2 := got.Result.Stats.Dump(), full.Result.Stats.Dump(); d1 != d2 {
			t.Errorf("budget %d diverged in stats:\n--- budgeted\n%s\n--- unlimited\n%s", budget, d1, d2)
		}
	}
	// A tight budget must actually truncate (the run stays clean — the
	// protocol tolerates any legal schedule — but applies fewer ops).
	capped := base
	capped.Config.ChaosOps = full.Ops / 2
	got := capped.Run()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Ops != full.Ops/2 {
		t.Fatalf("budget %d applied %d ops", full.Ops/2, got.Ops)
	}
}

// TestRunTimeoutWatchdog: a wall-clock timeout no simulation can meet
// kills the run with an error wrapping sim.ErrInterrupted, classified
// as "watchdog" — instead of hanging its worker.
func TestRunTimeoutWatchdog(t *testing.T) {
	// Full scale: the run takes long enough that the 1ns timer always
	// fires mid-simulation (a quick run can finish before the watchdog
	// goroutine is even scheduled).
	sc := Scenario{Topology: "4c", Workload: "uniform", Failure: "storm", Network: "jitter"}
	run := ChaosRun{Scenario: sc, Protocol: "hc3i", Config: Config{Seed: 3, RunTimeout: time.Nanosecond}}
	out := run.Run()
	if out.Err == nil {
		t.Fatal("1ns watchdog let the run finish")
	}
	if !errors.Is(out.Err, sim.ErrInterrupted) {
		t.Fatalf("watchdog kill does not wrap sim.ErrInterrupted: %v", out.Err)
	}
	if got := CheckName(out.Err); got != "watchdog" {
		t.Fatalf("CheckName(%v) = %q, want watchdog", out.Err, got)
	}
}

// TestChaosFailureShape: a failing sweep seed surfaces as *ChaosFailure
// with the seed, the check name and a paste-ready replay command, while
// the error text keeps the oracle diagnostic older tooling greps for.
func TestChaosFailureShape(t *testing.T) {
	core.Mutate.AcceptStaleEpoch = true
	defer func() { core.Mutate = core.MutationFlags{} }()
	sc := Scenario{Topology: "4c", Workload: "uniform", Failure: "storm", Network: "jitter"}
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := Config{Seed: seed, Quick: true, ChaosSeed: seed}
		_, err := RunChaosScenario(cfg, sc, "hc3i")
		if err == nil {
			continue
		}
		var cf *ChaosFailure
		if !errors.As(err, &cf) {
			t.Fatalf("chaos failure is not a *ChaosFailure: %v", err)
		}
		if cf.Config.Seed != seed || cf.Config.ChaosSeed != seed {
			t.Fatalf("failure names seeds (%d, %d), sweep ran (%d, %d)",
				cf.Config.Seed, cf.Config.ChaosSeed, seed, seed)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("chaos seed %d:", seed)) ||
			!strings.Contains(err.Error(), "oracle:") {
			t.Fatalf("failure text lost the grep-able diagnostic: %v", err)
		}
		if !strings.HasPrefix(cf.Check(), "oracle: ") {
			t.Fatalf("Check() = %q, want an oracle check name", cf.Check())
		}
		cmd := cf.ReplayCommand()
		for _, want := range []string{"-quick", "-matrix", "topology=4c", "workload=uniform",
			"failure=storm", "network=jitter", fmt.Sprintf("-seed %d -chaos-seed %d", seed, seed)} {
			if !strings.Contains(cmd, want) {
				t.Fatalf("replay command %q misses %q", cmd, want)
			}
		}
		return
	}
	t.Fatal("mutation never failed within 40 seeds (the oracle smoke test expects it to)")
}

// TestCheckName pins the failure classifier the soak ledger and the
// minimizer predicate key on.
func TestCheckName(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("chaos seed 9: oracle: t=1h3m0.2s gc safety: cluster 2 collected CLC 5"), "oracle: gc safety"},
		{fmt.Errorf("oracle: t=4s commit agreement: leaders disagree"), "oracle: commit agreement"},
		{fmt.Errorf("wrapped: %w", fmt.Errorf("federation: watchdog: run exceeded 1ns wall clock: %w", sim.ErrInterrupted)), "watchdog"},
		{fmt.Errorf("federation: 3 rollback targets missing (GC unsafe)"), "federation invariant"},
		{fmt.Errorf("something else entirely"), "error"},
	}
	for _, tc := range cases {
		if got := CheckName(tc.err); got != tc.want {
			t.Errorf("CheckName(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestParseSeedBudget pins the accepted forms and the parse-time
// validation of the CHAOS_SEED_BUDGET override.
func TestParseSeedBudget(t *testing.T) {
	good := map[string]int{
		"1":      1,
		"250":    250,
		"5_000":  5000,
		"5k":     5000,
		"5K":     5000,
		"2M":     2_000_000,
		" 250 ":  250,
		"1_2_3":  123,
		"10_00k": 1_000_000,
	}
	for in, want := range good {
		n, err := ParseSeedBudget(in)
		if err != nil || n != want {
			t.Errorf("ParseSeedBudget(%q) = %d, %v; want %d", in, n, err, want)
		}
	}
	for _, in := range []string{"", "0", "-3", "abc", "1.5", "k", "0k", "10x", "1e6"} {
		n, err := ParseSeedBudget(in)
		if err == nil {
			t.Errorf("ParseSeedBudget(%q) = %d, want error", in, n)
			continue
		}
		for _, form := range []string{"250", "5_000", "5k"} {
			if !strings.Contains(err.Error(), form) {
				t.Errorf("ParseSeedBudget(%q) error does not show accepted form %q: %v", in, form, err)
			}
		}
	}

	t.Setenv("CHAOS_SEED_BUDGET", "")
	if n, err := ChaosSeedBudget(42); err != nil || n != 42 {
		t.Errorf("unset env: got %d, %v; want fallback 42", n, err)
	}
	t.Setenv("CHAOS_SEED_BUDGET", "3k")
	if n, err := ChaosSeedBudget(42); err != nil || n != 3000 {
		t.Errorf("env 3k: got %d, %v; want 3000", n, err)
	}
	t.Setenv("CHAOS_SEED_BUDGET", "zero")
	if _, err := ChaosSeedBudget(42); err == nil || !strings.Contains(err.Error(), "CHAOS_SEED_BUDGET") {
		t.Errorf("bad env value must name the variable: %v", err)
	}
}
