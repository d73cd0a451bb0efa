package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI drives the built binary through the two exits only main
// decides; sweeping, resuming and auditing are covered in
// internal/soak.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "hc3isoak")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"shards flag is gone", []string{"-state", filepath.Join(dir, "s"), "-shards", "4"},
			"flag provided but not defined: -shards"},
		{"verify on an empty dir", []string{"-state", t.TempDir(), "-verify"}, "no checkpoint"},
	}
	for _, tc := range cases {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: err %v, want exit 2 with %q; output:\n%s", tc.name, err, tc.want, out)
		}
	}
}
