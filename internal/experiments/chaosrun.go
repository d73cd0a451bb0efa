package experiments

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/federation"
	"repro/internal/sim"
)

// This file is the chaos tier's single-run re-entry surface: one
// chaos run replayed on demand, outside the matrix table machinery.
// The soak service (internal/soak, cmd/hc3isoak) drives it for every
// sweep run and for every minimizer probe, and hc3ibench renders its
// failures as one-command repros.

// ChaosRun names one adversarial run: a chaos-tier scenario, the
// protocol, and the configuration that replays it — Config.Seed drives
// the traffic, Config.ChaosSeed the schedule, Config.ChaosOps truncates
// the schedule to a prefix and Config.RunTimeout arms the watchdog.
type ChaosRun struct {
	Scenario Scenario
	Protocol string
	Config   Config
}

// ChaosOutcome is one replay's result. Ops is the number of
// perturbation actions the schedule applied and is valid on failing
// runs too (the minimizer reads it off the failure it shrinks).
type ChaosOutcome struct {
	Result *federation.Result // nil when Err != nil
	Ops    int
	Err    error
}

// Run executes the run once.
func (r ChaosRun) Run() ChaosOutcome {
	opts, err := ScenarioOptions(r.Config, r.Scenario, r.Protocol)
	if err != nil {
		return ChaosOutcome{Err: err}
	}
	// Hold the Fed so the op count is readable whether the run finished
	// or aborted on a violation.
	f, err := federation.New(opts)
	if err != nil {
		return ChaosOutcome{Err: err}
	}
	res, err := f.Run()
	out := ChaosOutcome{Result: res, Ops: f.ChaosOps(), Err: err}
	f.Release()
	return out
}

// ReplayCommand renders the exact hc3ibench invocation that replays
// this run: the scenario filter and every Config field that changes
// what runs — the scale, the traffic seed, the chaos seed and (when it
// truncates the schedule) the op budget.
func (r ChaosRun) ReplayCommand() string {
	var b strings.Builder
	b.WriteString("go run ./cmd/hc3ibench")
	if r.Config.Quick {
		b.WriteString(" -quick")
	}
	sc := r.Scenario
	fmt.Fprintf(&b, " -matrix -filter topology=%s,workload=%s,failure=%s,network=%s -seed %d -chaos-seed %d",
		sc.Topology, sc.Workload, sc.Failure, sc.Network, r.Config.Seed, r.Config.chaosSeed())
	if r.Config.ChaosOps > 0 {
		fmt.Fprintf(&b, " -chaos-ops %d", r.Config.ChaosOps)
	}
	return b.String()
}

// ChaosFailure is a failing run of a chaos-tier seed sweep: the exact
// run (scenario, protocol and the whole Config, traffic and chaos seed
// included) that reproduces it, with its replay command. Its Error
// text keeps the inner diagnostic (tests match on the oracle check
// name); callers that want structure unwrap with errors.As.
type ChaosFailure struct {
	ChaosRun
	Err error
}

func (e *ChaosFailure) Error() string {
	return fmt.Sprintf("chaos seed %d: %v", e.Config.chaosSeed(), e.Err)
}

func (e *ChaosFailure) Unwrap() error { return e.Err }

// Check names the violated check (see CheckName).
func (e *ChaosFailure) Check() string { return CheckName(e.Err) }

// CheckName classifies a run failure: the oracle check that fired
// ("oracle: commit agreement"), a watchdog kill ("watchdog"), an
// end-of-run harness invariant ("federation invariant"), or "error".
func CheckName(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, sim.ErrInterrupted) {
		return "watchdog"
	}
	msg := err.Error()
	if i := strings.Index(msg, "oracle: "); i >= 0 {
		msg = msg[i+len("oracle: "):]
		// Skip the "t=<virtual time>" context token if present.
		if strings.HasPrefix(msg, "t=") {
			if sp := strings.IndexByte(msg, ' '); sp >= 0 {
				msg = msg[sp+1:]
			}
		}
		if c := strings.IndexByte(msg, ':'); c > 0 {
			return "oracle: " + msg[:c]
		}
		return "oracle"
	}
	if strings.Contains(msg, "federation: ") {
		return "federation invariant"
	}
	return "error"
}

// ParseSeedBudget parses a seed-budget value: a positive decimal count,
// with underscores allowed as digit separators and an optional k/K
// (x1000) or m/M (x1e6) suffix — "250", "5_000" and "5k" all work. The
// budget must be at least 1; zero, negative and malformed values are
// rejected here, at parse time, with the accepted forms in the message.
func ParseSeedBudget(s string) (int, error) {
	t := strings.ReplaceAll(strings.TrimSpace(s), "_", "")
	mult := 1
	switch {
	case strings.HasSuffix(t, "k"), strings.HasSuffix(t, "K"):
		mult, t = 1_000, t[:len(t)-1]
	case strings.HasSuffix(t, "m"), strings.HasSuffix(t, "M"):
		mult, t = 1_000_000, t[:len(t)-1]
	}
	n := 0
	ok := t != ""
	for _, c := range t {
		if c < '0' || c > '9' || n > 1<<40 {
			ok = false
			break
		}
		n = n*10 + int(c-'0')
	}
	if !ok || n*mult < 1 {
		return 0, fmt.Errorf(
			"seed budget %q: want a positive seed count — accepted forms: a decimal count (\"250\"), underscore separators (\"5_000\"), or a k/m multiplier suffix (\"5k\", \"2M\")", s)
	}
	return n * mult, nil
}

// ChaosSeedBudget resolves the chaos sweep's seed budget: the
// CHAOS_SEED_BUDGET environment override when set (the nightly job
// raises it), otherwise fallback.
func ChaosSeedBudget(fallback int) (int, error) {
	s := os.Getenv("CHAOS_SEED_BUDGET")
	if s == "" {
		return fallback, nil
	}
	n, err := ParseSeedBudget(s)
	if err != nil {
		return 0, fmt.Errorf("CHAOS_SEED_BUDGET: %w", err)
	}
	return n, nil
}
