package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/hc3i"
)

// TestCLI drives the built binary: flag and usage errors, and -list.
// The simulations behind a successful run are covered where they live
// (internal/experiments); this pins what only main decides — exit
// codes, messages, and that a rejected invocation has no side effects.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "hc3ibench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// run returns the exit code and stderr (stdout for a clean exit).
	run := func(t *testing.T, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		switch {
		case err == nil:
			return 0, stdout.String()
		case errors.As(err, &ee):
			return ee.ExitCode(), stderr.String()
		}
		t.Fatalf("run %v: %v", args, err)
		return 0, ""
	}

	t.Run("shards flag is gone", func(t *testing.T) {
		code, msg := run(t, "-quick", "-matrix", "-shards", "4")
		if code != 2 || !strings.Contains(msg, "flag provided but not defined: -shards") {
			t.Fatalf("exit %d, stderr:\n%s", code, msg)
		}
	})
	// The reference wires are test fixtures, not run options.
	for _, name := range []string{"dense-ddv", "unbatched-wire"} {
		t.Run(name+" flag is gone", func(t *testing.T) {
			code, msg := run(t, "-quick", "-matrix", "-"+name)
			if code != 2 || !strings.Contains(msg, "flag provided but not defined: -"+name) {
				t.Fatalf("exit %d, stderr:\n%s", code, msg)
			}
		})
	}

	badTrace := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(badTrace, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	usage := []struct {
		name string
		args []string
		want string
	}{
		{"filter without matrix", []string{"-filter", "topology=2c"}, "-filter only applies with -matrix"},
		{"zero chaos seeds", []string{"-matrix", "-chaos-seeds", "0"}, "-chaos-seeds must be >= 1"},
		{"negative chaos ops", []string{"-matrix", "-chaos-ops", "-1"}, "-chaos-ops must be >= 0"},
		{"run with matrix", []string{"-matrix", "-run", "F6"}, "-run selects registry experiments"},
		{"unknown filter dimension", []string{"-matrix", "-filter", "planet=mars"}, `unknown key "planet"`},
		{"malformed trace file", []string{"-matrix", "-trace-file", badTrace}, "trace line 1"},
	}
	for _, tc := range usage {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Every usage error must fire before -o truncates its target.
			const kept = "results of an earlier run\n"
			out := filepath.Join(t.TempDir(), "results.txt")
			if err := os.WriteFile(out, []byte(kept), 0o644); err != nil {
				t.Fatal(err)
			}
			code, msg := run(t, append([]string{"-quick", "-o", out}, tc.args...)...)
			if code != 1 || !strings.Contains(msg, tc.want) {
				t.Errorf("exit %d, want 1 with %q; stderr:\n%s", code, tc.want, msg)
			}
			if got, err := os.ReadFile(out); err != nil || string(got) != kept {
				t.Errorf("-o file after the rejected run: %q, %v; want it untouched", got, err)
			}
		})
	}

	t.Run("list output is pinned", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if code, out := run(t, "-list"); code != 0 || out != string(want) {
			t.Fatalf("exit %d; -list output differs from testdata/list.golden:\n%s", code, out)
		}
	})

	t.Run("filter errors are pinned", func(t *testing.T) {
		for args, want := range map[string]string{
			"tier=quantum": "hc3ibench: experiments: unknown tier \"quantum\" (have classic, wide, chaos, trace)\n",
			"planet=mars": "hc3ibench: experiments: matrix filter: unknown key \"planet\" (valid keys: topology, workload, failure, network, tier; " +
				"valid tiers: classic, wide, chaos, trace)\n",
		} {
			if code, msg := run(t, "-matrix", "-filter", args); code != 1 || msg != want {
				t.Errorf("-filter %s: exit %d, stderr %q; want exit 1 with %q", args, code, msg, want)
			}
		}
	})

	t.Run("list names every experiment", func(t *testing.T) {
		code, out := run(t, "-list")
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, out)
		}
		for _, e := range hc3i.Experiments() {
			if !strings.Contains(out, "\n"+e.ID+" ") && !strings.HasPrefix(out, e.ID+" ") {
				t.Errorf("-list does not name %s", e.ID)
			}
		}
	})
}
