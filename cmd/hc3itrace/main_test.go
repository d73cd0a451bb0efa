package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI drives the built binary: flag and usage errors, and one short
// traced run (a crash, its rollback and the forced CLCs around it)
// pinned byte for byte.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hc3itrace")
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

	t.Run("undefined flag", func(t *testing.T) {
		code, msg := run(t, "-protocol", "hc3i")
		if code != 2 || !strings.Contains(msg, "flag provided but not defined: -protocol") {
			t.Fatalf("exit %d, stderr:\n%s", code, msg)
		}
	})

	t.Run("unknown trace level", func(t *testing.T) {
		code, msg := run(t, "-level", "loud")
		if code != 1 || !strings.Contains(msg, `unknown trace level "loud"`) {
			t.Fatalf("exit %d, stderr:\n%s", code, msg)
		}
	})

	t.Run("missing journal", func(t *testing.T) {
		code, msg := run(t, "-journal", filepath.Join(t.TempDir(), "absent"))
		if code != 1 || !strings.Contains(msg, "hc3itrace:") {
			t.Fatalf("exit %d, stderr:\n%s", code, msg)
		}
	})

	t.Run("short crash run matches golden", func(t *testing.T) {
		want, err := os.ReadFile("testdata/trace_2x2_30m_crash10.golden")
		if err != nil {
			t.Fatal(err)
		}
		code, out := run(t, "-clusters", "2", "-nodes", "2", "-minutes", "30", "-crash", "10")
		if code != 0 || out != string(want) {
			t.Fatalf("exit %d, output:\n%s\nwant:\n%s", code, out, want)
		}
	})
}
