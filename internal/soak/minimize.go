package soak

import (
	"repro/internal/experiments"
)

// Minimized is the shrink result for one failing chaos schedule.
type Minimized struct {
	// OpBudget is the smallest perturbation-prefix budget found that
	// still reproduces the failure (0 = minimization failed; the
	// unlimited schedule is the repro).
	OpBudget int
	// Check is the check the minimized prefix violates (it must match
	// the original failure's).
	Check string
	// Probes is how many replays the search spent.
	Probes int
}

// maxMinimizeProbes bounds the search: exponential ramp plus binary
// search over op counts that are at most a few thousand per quick run
// stays far below this; the cap only guards a pathological predicate.
const maxMinimizeProbes = 64

// Minimize shrinks a failing chaos schedule to a short reproducing
// prefix: the failing run is replayed under a perturbation op budget
// (chaos.Config.OpBudget — a budget-B run applies exactly the first B
// actions of the unlimited schedule), ramping the budget exponentially
// until the failure reproduces and then binary-searching the boundary.
// The result is the smallest budget the search visited that reproduces
// the same check — a true repro by construction (the final budget was
// re-run, not extrapolated), and in practice a schedule orders of
// magnitude shorter than the unlimited one.
//
// run must be the failing run (Config.ChaosOps 0); failure its
// error. fullOps, when > 0, seeds the upper bound with the op count
// the failing run actually applied; at 0 the ramp discovers the bound.
func Minimize(run experiments.ChaosRun, failure error, fullOps int) Minimized {
	want := experiments.CheckName(failure)
	m := Minimized{Check: want}
	reproduces := func(budget int) bool {
		m.Probes++
		probe := run
		probe.Config.ChaosOps = budget
		out := probe.Run()
		return out.Err != nil && experiments.CheckName(out.Err) == want
	}

	// Ramp: find the first power-of-two budget that reproduces. fullOps
	// caps the ramp — budgets past the ops the failing run applied
	// cannot change the schedule.
	lo, hi := 0, 0
	for b := 1; m.Probes < maxMinimizeProbes; b *= 2 {
		if fullOps > 0 && b > fullOps {
			b = fullOps
		}
		if reproduces(b) {
			hi = b
			break
		}
		lo = b
		if fullOps > 0 && b >= fullOps {
			break // even the full prefix missed: not budget-reducible
		}
		if b >= 1<<20 {
			break // schedule applies at most ~1e6 ops in any quick run
		}
	}
	if hi == 0 {
		return m // minimization failed; keep the unlimited repro
	}

	// Binary search (lo, hi]: lo never reproduced, hi did.
	for hi-lo > 1 && m.Probes < maxMinimizeProbes {
		mid := lo + (hi-lo)/2
		if reproduces(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	m.OpBudget = hi
	return m
}
