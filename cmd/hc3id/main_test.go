package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/runtime/harness"
)

// TestDaemon drives the built binary: usage and config errors, then one
// short clean boot of a one-cluster, two-node federation with -trace,
// which pins the live renderer of protocol events.
func TestDaemon(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "hc3id")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// run returns the exit code and stderr.
	run := func(t *testing.T, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		switch {
		case err == nil:
			return 0, stderr.String()
		case errors.As(err, &ee):
			return ee.ExitCode(), stderr.String()
		}
		t.Fatalf("run %v: %v", args, err)
		return 0, ""
	}

	t.Run("missing required flags", func(t *testing.T) {
		for _, args := range [][]string{
			nil,
			{"-node", "c0n0", "-journal", filepath.Join(dir, "j.jsonl")},
			{"-config", "fed.json", "-journal", filepath.Join(dir, "j.jsonl")},
			{"-config", "fed.json", "-node", "c0n0"},
		} {
			code, msg := run(t, args...)
			if code == 0 || !strings.Contains(msg, "-config, -node and -journal are required") {
				t.Errorf("%v: exit %d, stderr:\n%s", args, code, msg)
			}
		}
	})

	t.Run("bad config names the field", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(`{"clusters": "two"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		code, msg := run(t, "-config", bad, "-node", "c0n0", "-journal", filepath.Join(dir, "bad.jsonl"))
		if code == 0 || !strings.Contains(msg, "clusters") {
			t.Errorf("exit %d, stderr:\n%s", code, msg)
		}
	})

	t.Run("short traced boot drains cleanly", func(t *testing.T) {
		fed, err := harness.NewFederationFile([]int{2}, 50*time.Millisecond, 5*time.Millisecond, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := json.Marshal(fed)
		if err != nil {
			t.Fatal(err)
		}
		cfgPath := filepath.Join(dir, "fed.json")
		if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
			t.Fatal(err)
		}
		nodes := []string{"c0n0", "c0n1"}
		cmds := make([]*exec.Cmd, len(nodes))
		stderrs := make([]strings.Builder, len(nodes))
		for i, node := range nodes {
			cmds[i] = exec.Command(bin, "-config", cfgPath, "-node", node,
				"-journal", filepath.Join(dir, node+".jsonl"), "-duration", "1500ms", "-trace")
			cmds[i].Stderr = &stderrs[i]
			if err := cmds[i].Start(); err != nil {
				t.Fatal(err)
			}
		}
		committed := regexp.MustCompile(`(?m)^\[[^]]*\] c0n[01] +CLC \d+ committed ddv=\[\d+\] forced=false$`)
		for i, node := range nodes {
			err := cmds[i].Wait()
			msg := stderrs[i].String()
			if err != nil {
				t.Errorf("%s: %v, stderr:\n%s", node, err, msg)
			}
			if !committed.MatchString(msg) {
				t.Errorf("%s: no traced commit line in stderr:\n%s", node, msg)
			}
		}
		for _, node := range nodes {
			evs, err := oracle.ReadJournalFile(filepath.Join(dir, node+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) == 0 || evs[len(evs)-1].Kind != "stop" {
				t.Errorf("%s: journal does not end with a stop record (%d events)", node, len(evs))
			}
		}
	})
}
