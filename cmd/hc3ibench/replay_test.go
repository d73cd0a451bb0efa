package main

import (
	"context"
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/hc3i"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/soak"
)

// TestReplayCommandsReproduce: every replay command a chaos failure
// prints — hc3ibench's sweep report and the soak journal alike — parses
// with exactly the flags main binds and reruns the run that failed.
// The sweep holds the traffic seed at 3, so a command that drops -seed
// replays a different run.
func TestReplayCommandsReproduce(t *testing.T) {
	core.Mutate.AcceptStaleEpoch = true
	defer func() { core.Mutate = core.MutationFlags{} }()
	sc := experiments.Scenario{Topology: "4c", Workload: "uniform", Failure: "storm", Network: "jitter"}

	type failure struct {
		replay, check, err string
		minimized          bool
	}
	var fails []failure
	for k := uint64(1); k <= 40; k++ {
		cfg := experiments.Config{Seed: 3, ChaosSeed: k, Quick: true}
		_, err := experiments.RunChaosScenario(cfg, sc, "hc3i")
		if err == nil {
			continue
		}
		var cf *experiments.ChaosFailure
		if !errors.As(err, &cf) {
			t.Fatalf("chaos seed %d: not a *ChaosFailure: %v", k, err)
		}
		fails = append(fails, failure{cf.ReplayCommand(), cf.Check(), cf.Err.Error(), false})
	}
	sweep := len(fails)
	if sweep == 0 {
		t.Fatal("the armed mutation failed no schedule of the sweep")
	}

	sum, err := soak.Run(context.Background(), soak.Options{
		Dir:          t.TempDir(),
		Units:        []soak.Unit{{Scenario: sc}},
		SeedsPerUnit: 12,
		Quick:        true,
		Workers:      2,
		Minimize:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sum.Failures {
		// A replay through the matrix names the scenario around the
		// run's own error text.
		fails = append(fails, failure{rec.Replay, rec.Check,
			sc.Name() + " under " + rec.Protocol + ": " + rec.Error, rec.MinOps > 0})
	}
	if len(fails) == sweep {
		t.Fatal("the armed mutation failed no seed of the soak sweep")
	}

	minimized := 0
	for _, f := range fails {
		if f.minimized {
			minimized++
		}
		const prefix = "go run ./cmd/hc3ibench "
		if !strings.HasPrefix(f.replay, prefix) {
			t.Fatalf("replay command %q does not start with %q", f.replay, prefix)
		}
		fs := flag.NewFlagSet("hc3ibench", flag.ContinueOnError)
		c := bindFlags(fs)
		if err := fs.Parse(strings.Fields(strings.TrimPrefix(f.replay, prefix))); err != nil {
			t.Fatalf("%s: %v", f.replay, err)
		}
		if !c.matrix || fs.NArg() != 0 {
			t.Fatalf("%s: not a matrix run", f.replay)
		}
		_, err := hc3i.RunMatrix(c.opts, c.filter)
		var cf *experiments.ChaosFailure
		switch {
		case err == nil:
			t.Errorf("%s: replayed clean; the run failed with %s", f.replay, f.check)
		case !errors.As(err, &cf):
			t.Errorf("%s: replay failed outside the chaos tier: %v", f.replay, err)
		case cf.Check() != f.check:
			t.Errorf("%s: replay violated %q, the run violated %q", f.replay, cf.Check(), f.check)
		case !f.minimized && cf.Err.Error() != f.err:
			t.Errorf("%s: replay error\n  %s\nthe run's\n  %s", f.replay, cf.Err, f.err)
		}
	}
	t.Logf("%d sweep and %d soak failures replayed, %d of them minimized", sweep, len(fails)-sweep, minimized)
}
