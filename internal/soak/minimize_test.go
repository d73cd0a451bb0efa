package soak

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestMinimizeShrinksMutationFailure: with a seeded protocol break
// armed (core.Mutate), the sweep finds failing schedules within a
// bounded seed budget — and the minimizer must shrink at least one of
// them to a strictly shorter reproducing prefix: replaying with
// -chaos-ops <min> still violates the same check, using fewer
// perturbation actions than the original failing run applied.
func TestMinimizeShrinksMutationFailure(t *testing.T) {
	core.Mutate.AcceptStaleEpoch = true
	defer func() { core.Mutate = core.MutationFlags{} }()
	sc := experiments.Scenario{Topology: "4c", Workload: "uniform", Failure: "storm", Network: "jitter"}
	failures, shrunk := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		run := experiments.ChaosRun{Scenario: sc, Protocol: "hc3i",
			Config: experiments.Config{Seed: seed, ChaosSeed: seed, Quick: true}}
		out := run.Run()
		if out.Err == nil {
			continue
		}
		failures++
		min := Minimize(run, out.Err, out.Ops)
		if min.OpBudget == 0 {
			continue // this failure is not budget-reducible
		}
		if min.OpBudget > out.Ops {
			t.Fatalf("seed %d: minimized budget %d exceeds the %d ops the failing run applied",
				seed, min.OpBudget, out.Ops)
		}
		// The minimized budget is a real repro, not an extrapolation.
		short := run
		short.Config.ChaosOps = min.OpBudget
		rep := short.Run()
		if rep.Err == nil || experiments.CheckName(rep.Err) != min.Check {
			t.Fatalf("seed %d: minimized budget %d does not reproduce check %q: %v",
				seed, min.OpBudget, min.Check, rep.Err)
		}
		if min.OpBudget < out.Ops {
			shrunk++
			t.Logf("seed %d: %d ops -> %d (%d probes, check %q)",
				seed, out.Ops, min.OpBudget, min.Probes, min.Check)
		}
		if failures >= 3 && shrunk >= 1 {
			break // enough evidence; keep the suite fast
		}
	}
	if failures == 0 {
		t.Fatal("mutation never failed within 40 seeds; the sweep is not adversarial enough")
	}
	if shrunk == 0 {
		t.Fatalf("no failing schedule (of %d) shrank to a strictly shorter prefix", failures)
	}
}
