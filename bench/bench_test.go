package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		f.EndToEnd = append(f.EndToEnd, fileMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, fileMetric{m.Name, m.Unit, m.Better, nil})
	}
	return f
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables the program
// reports from together, and checks the limits the file must keep.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantFile()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in this package; run go test -run TestBenchmarkJSON -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range append(append([]fileMetric{}, got.EndToEnd...), got.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !setup {
		t.Error("no end-to-end setup_s in s, lower is better")
	}
	if n := len(got.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, at most 64 KiB", len(b))
	}
}

// TestEveryMetricEmitted runs every workload at 2 % of its size, once
// untraced and once traced, and checks that each run reports exactly
// the metrics BENCHMARK.json lists for it, finite, and that the outputs
// check clean.
func TestEveryMetricEmitted(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(w, 1, 0, traced, out, 0.02)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(rec.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d listed", w.name, traced, len(rec.Metrics), len(specs))
			}
			for _, spec := range specs {
				v, ok := rec.Metrics[spec.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not reported", w.name, traced, spec.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.name, spec.Name, v.Value)
				case v.Unit != spec.Unit:
					t.Errorf("%s: %s in %q, listed in %q", w.name, spec.Name, v.Unit, spec.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, spec.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, w.name, "trace.json")); err != nil {
					t.Errorf("%s: traced run wrote no trace.json: %v", w.name, err)
				}
			}
		}
	}
}

// TestCompare: an identical pair and a wall_s loss of half the bound
// pass; a loss of one and a half times the bound on one workload is
// flagged, there and nowhere else.
func TestCompare(t *testing.T) {
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	set := func(wallFactor float64) string {
		var runs []record
		for _, w := range workloads {
			for seed := uint64(1); seed <= 4; seed++ {
				r := record{Workload: w.name, Seed: seed, Digest: "d"}
				r.Correct, r.Attempted = true, 1
				r.Metrics = map[string]value{}
				for _, m := range endToEnd {
					r.Metrics[m.Name] = value{100 + float64(seed)/10, m.Unit}
				}
				if w.name == "wide_ring" {
					r.Metrics["wall_s"] = value{wallFactor * r.Metrics["wall_s"].Value, "s"}
				}
				runs = append(runs, r)
			}
		}
		b, err := json.Marshal(map[string]any{"runs": runs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(1)
	for _, ok := range []float64{1, 1 + bound/2} {
		var out bytes.Buffer
		if worse, err := compareFiles(&out, base, set(ok)); err != nil || worse {
			t.Errorf("wall_s x %v: worse=%v err=%v\n%s", ok, worse, err, out.String())
		}
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, base, set(1+1.5*bound))
	if err != nil || !worse {
		t.Errorf("wall_s x %v: worse=%v err=%v\n%s", 1+1.5*bound, worse, err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "worse") && !(strings.HasPrefix(line, "wide_ring") && strings.Contains(line, "wall_s")) {
			t.Errorf("unexpected verdict: %s", line)
		}
	}
}
