package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// Three -count=3 runs of one benchmark on an 8-proc machine, one run
// of another on 2 procs, and the noise `go test` prints around them.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkMatrixSlice-8   	       1	  50000000 ns/op	    1200 events/run	 9000000 B/op	   30000 allocs/op
BenchmarkMatrixSlice-8   	       1	  70000000 ns/op	    1200 events/run	 9000300 B/op	   30003 allocs/op
BenchmarkMatrixSlice-8   	       1	  60000000 ns/op	    1200 events/run	 9000600 B/op	   30006 allocs/op
BenchmarkDDVMerge/w=64-2 	   10000	        21.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkSkipped [no tests to run]
PASS
ok  	repro	1.234s
`

func TestParseBenchGroupsRunsAndStripsProcSuffix(t *testing.T) {
	order, groups, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "BenchmarkMatrixSlice" || order[1] != "BenchmarkDDVMerge/w=64" {
		t.Fatalf("order = %q, want the two names in first-appearance order without -<procs>", order)
	}
	if n := len(groups["BenchmarkMatrixSlice"]); n != 3 {
		t.Fatalf("-count=3 runs grouped into %d samples, want 3", n)
	}
	s := groups["BenchmarkDDVMerge/w=64"][0]
	if s.iterations != 10000 || s.nsPerOp != 21.5 || s.allocsPerOp != 0 {
		t.Fatalf("parsed sample %+v", s)
	}
}

func TestParseBenchErrors(t *testing.T) {
	_, _, err := parseBench(strings.NewReader("BenchmarkX-8 \t 1\t 12x3 ns/op\t 5 allocs/op\n"))
	if err == nil || !strings.Contains(err.Error(), `"12x3"`) {
		t.Fatalf("malformed value: err = %v, want it to name the value", err)
	}
	if _, _, err := parseBench(strings.NewReader("PASS\nok  \trepro\t0.1s\n")); err == nil {
		t.Fatal("input without benchmark lines accepted")
	}
}

func TestAggregateMeans(t *testing.T) {
	_, groups, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	b := aggregate("BenchmarkMatrixSlice", groups["BenchmarkMatrixSlice"])
	want := Benchmark{Name: "BenchmarkMatrixSlice", Iterations: 1, NsPerOp: 60000000, Samples: 3,
		EventsPerRun: 1200, BPerOp: 9000300, AllocsPerOp: 30003, BStable: true}
	if b != want {
		t.Fatalf("aggregate = %+v\nwant        %+v", b, want)
	}
}

// TestAggregateBStable: B/op is stable when every run lies within
// stableSpread of the mean, and never for a single run.
func TestAggregateBStable(t *testing.T) {
	runs := func(bs ...float64) []sample {
		var ss []sample
		for _, b := range bs {
			ss = append(ss, sample{iterations: 1, bPerOp: b})
		}
		return ss
	}
	for _, tc := range []struct {
		name string
		ss   []sample
		want bool
	}{
		{"identical runs", runs(310, 310, 310, 310, 310), true},
		{"zero bytes", runs(0, 0, 0), true},
		{"spread 1% of the mean", runs(995, 1005), true},
		{"spread past 1%", runs(990, 1010), false},
		{"one run", runs(310), false},
	} {
		if got := aggregate("B", tc.ss).BStable; got != tc.want {
			t.Errorf("%s: B_stable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	// A snapshot as the wall-gating benchguard wrote it: the keys this
	// version no longer knows (ns_stddev, wall_skip) must not stop it
	// from parsing.
	var base Snapshot
	if err := json.Unmarshal([]byte(`{"recorded":"2026-01-01","go":"go1.22","cpus":2,"benchmarks":[
		{"name":"BenchmarkA","iterations":1,"ns_per_op":100,"ns_stddev":60,"samples":5,"B_per_op":8,"allocs_per_op":100,"wall_skip":"noisy: cv 0.60 > 0.25"},
		{"name":"BenchmarkZero","iterations":1,"ns_per_op":20,"B_per_op":0,"allocs_per_op":0},
		{"name":"BenchmarkBytes","iterations":1,"ns_per_op":20,"B_per_op":1000,"allocs_per_op":2,"B_stable":true}]}`), &base); err != nil {
		t.Fatal(err)
	}
	bench := func(name string, allocs float64) Benchmark {
		return Benchmark{Name: name, NsPerOp: 1e9, AllocsPerOp: allocs} // ns/op 1e7x the baseline: not gated
	}
	bytes := func(name string, b float64, stable bool) Benchmark {
		return Benchmark{Name: name, AllocsPerOp: 2, BPerOp: b, BStable: stable}
	}
	cases := []struct {
		name    string
		got     []Benchmark
		wantErr string // "" = passes
	}{
		{"at the limit 100*1.2+1", []Benchmark{bench("BenchmarkA", 121)}, ""},
		{"over the limit", []Benchmark{bench("BenchmarkA", 121.5)}, "1 benchmark(s) regressed"},
		{"slack covers a zero baseline", []Benchmark{bench("BenchmarkZero", 1)}, ""},
		{"zero baseline past the slack", []Benchmark{bench("BenchmarkZero", 2)}, "1 benchmark(s) regressed"},
		{"new row rides along", []Benchmark{bench("BenchmarkA", 90), bench("BenchmarkNew", 1e6)}, ""},
		{"only new rows", []Benchmark{bench("BenchmarkNew", 1)}, "nothing compared"},
		{"stable B/op at the limit 1000*1.2+64", []Benchmark{bytes("BenchmarkBytes", 1264, true)}, ""},
		{"stable B/op over the limit", []Benchmark{bytes("BenchmarkBytes", 1265, true)}, "1 benchmark(s) regressed"},
		{"unstable input B/op does not gate", []Benchmark{bytes("BenchmarkBytes", 5000, false)}, ""},
		{"unstable baseline B/op does not gate", []Benchmark{{Name: "BenchmarkA", AllocsPerOp: 100, BPerOp: 1e6, BStable: true}}, ""},
	}
	for _, tc := range cases {
		err := compare(io.Discard, tc.got, base, 0.20, 1.0, 64)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
