package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/federation"
)

// TestCLI drives the built binary: a flag error, one short run of the
// paper's default topology pinned byte for byte, and -protocol against
// the protocol registry. The fixtures under testdata shorten the run
// through the application and timers files only.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hc3isim")
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
	short := []string{"-application", "testdata/short_app.conf", "-timers", "testdata/short_timers.conf"}

	t.Run("undefined flag", func(t *testing.T) {
		code, msg := run(t, "-nodes", "4")
		if code != 2 || !strings.Contains(msg, "flag provided but not defined: -nodes") {
			t.Fatalf("exit %d, stderr:\n%s", code, msg)
		}
	})

	t.Run("short paper run matches golden", func(t *testing.T) {
		want, err := os.ReadFile("testdata/short_run.golden")
		if err != nil {
			t.Fatal(err)
		}
		code, out := run(t, short...)
		if code != 0 || out != string(want) {
			t.Fatalf("exit %d, output:\n%s\nwant:\n%s", code, out, want)
		}
	})

	for _, name := range federation.ProtocolNames() {
		name := name
		t.Run("protocol "+name, func(t *testing.T) {
			code, out := run(t, append([]string{"-protocol", name}, short...)...)
			if code != 0 || !strings.Contains(out, "cluster-level checkpoints:") {
				t.Fatalf("exit %d:\n%s", code, out)
			}
		})
	}

	t.Run("unknown protocol lists the registry", func(t *testing.T) {
		code, msg := run(t, append([]string{"-protocol", "quantum"}, short...)...)
		if code != 1 || !strings.Contains(msg, `unknown protocol "quantum"`) {
			t.Fatalf("exit %d, stderr:\n%s", code, msg)
		}
		for _, name := range federation.ProtocolNames() {
			if !strings.Contains(msg, name) {
				t.Errorf("error does not list %q:\n%s", name, msg)
			}
		}
	})
}
