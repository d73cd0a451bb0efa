// Command benchguard gates allocation regressions: it parses `go test
// -bench -benchmem` output (including repeated `-count=N` runs),
// compares allocs/op and B/op against a recorded snapshot
// (BENCH_*.json), and exits non-zero when any benchmark regressed
// beyond tolerance. It can also write a new snapshot in the same
// schema, which PRs append (BENCH_pr<N>.json) rather than overwrite, so
// the trajectory of the repo stays visible.
//
// Allocation counts are deterministic and independent of the machine
// that recorded them, so they gate on a fixed fractional budget. B/op
// gates on the same budget, but only for benchmarks whose B/op is
// stable: every run of the input within stableSpread of their mean, in
// the snapshot and in the input alike (the snapshot's B_stable). B/op
// catches what allocs/op cannot see: a chunked arena hands out many
// vectors per allocation, so a copy of a width-sized vector per message
// can leave allocs/op flat. ns/op is recorded in snapshots as
// information only: wall-clock claims are made by the paired-run
// benchmark under bench/, not here.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem -count 5 ./... | tee bench.out
//	go run ./cmd/benchguard -baseline BENCH_pr14.json -input bench.out
//	go run ./cmd/benchguard -input bench.out -write BENCH_pr15.json -note "..."
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one snapshot entry, matching the BENCH_*.json schema.
// When the input held several runs of the same benchmark (-count=N),
// the recorded values are means across runs.
type Benchmark struct {
	Name         string  `json:"name"`
	Iterations   int64   `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	Samples      int     `json:"samples,omitempty"`
	EventsPerRun float64 `json:"events_per_run,omitempty"`
	BPerOp       float64 `json:"B_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	// BStable reports that every run's B/op lay within stableSpread of
	// their mean: only then does B/op gate.
	BStable bool `json:"B_stable,omitempty"`
}

// stableSpread is the largest spread of B/op across the runs of one
// benchmark, as a fraction of their mean, that still gates B/op;
// byteSlack is the absolute B/op allowed on top of the fractional
// budget (a one-off warm-up allocation's bytes).
const (
	stableSpread = 0.01
	byteSlack    = 64
)

// Snapshot is the BENCH_*.json file layout.
type Snapshot struct {
	Recorded   string      `json:"recorded"`
	Go         string      `json:"go"`
	CPUs       int         `json:"cpus"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// procSuffix strips the trailing -<GOMAXPROCS> go test appends to
// benchmark names ("BenchmarkFoo-8" -> "BenchmarkFoo").
var procSuffix = regexp.MustCompile(`-\d+$`)

// sample is one parsed benchmark output line.
type sample struct {
	iterations   int64
	nsPerOp      float64
	eventsPerRun float64
	bPerOp       float64
	allocsPerOp  float64
}

// parseBench extracts benchmark results from `go test -bench` output,
// grouping repeated runs of the same benchmark (-count=N) under one
// name. Group order follows first appearance.
func parseBench(r io.Reader) ([]string, map[string][]sample, error) {
	var order []string
	groups := make(map[string][]sample)
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark... [no tests to run]"
		}
		s := sample{iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("benchguard: bad value %q in %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = v
			case "B/op":
				s.bPerOp = v
			case "allocs/op":
				s.allocsPerOp = v
			case "events/run":
				s.eventsPerRun = v
			}
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		if _, seen := groups[name]; !seen {
			order = append(order, name)
		}
		groups[name] = append(groups[name], s)
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("benchguard: no benchmark lines found")
	}
	return order, groups, nil
}

// aggregate folds a benchmark's samples into one snapshot entry: means
// across runs, and whether their B/op is stable.
func aggregate(name string, ss []sample) Benchmark {
	b := Benchmark{Name: name, Samples: len(ss)}
	lo, hi := ss[0].bPerOp, ss[0].bPerOp
	for _, s := range ss {
		lo, hi = min(lo, s.bPerOp), max(hi, s.bPerOp)
		b.Iterations += s.iterations
		b.NsPerOp += s.nsPerOp
		b.EventsPerRun += s.eventsPerRun
		b.BPerOp += s.bPerOp
		b.AllocsPerOp += s.allocsPerOp
	}
	n := float64(len(ss))
	b.Iterations /= int64(len(ss))
	b.NsPerOp /= n
	b.EventsPerRun /= n
	b.BPerOp /= n
	b.AllocsPerOp /= n
	b.BStable = len(ss) > 1 && hi-lo <= stableSpread*b.BPerOp
	return b
}

// compare gates got against the baseline: a benchmark fails when its
// allocs/op exceeds ref*(1+maxRegress)+allocSlack, or when its B/op —
// stable in both — exceeds ref*(1+maxRegress)+byteSlack. Benchmarks
// absent from the baseline pass (they are new); a run that shares no
// benchmark with the baseline is an error, since it gated nothing. One
// verdict line per benchmark goes to w, naming whether B/op gated.
func compare(w io.Writer, got []Benchmark, base Snapshot, maxRegress, allocSlack, byteSlack float64) error {
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	failed, compared := 0, 0
	for _, b := range got {
		ref, ok := baseline[b.Name]
		if !ok {
			fmt.Fprintf(w, "benchguard: %-44s new benchmark, no baseline (ok)\n", b.Name)
			continue
		}
		compared++
		limit := ref.AllocsPerOp*(1+maxRegress) + allocSlack
		verdict := "ok"
		if b.AllocsPerOp > limit {
			verdict = "REGRESSED"
		}
		bytes := "B/op not gated (unstable)"
		if ref.BStable && b.BStable {
			bLimit := ref.BPerOp*(1+maxRegress) + byteSlack
			bytes = fmt.Sprintf("B/op %.0f -> %.0f (limit %.0f)", ref.BPerOp, b.BPerOp, bLimit)
			if b.BPerOp > bLimit {
				verdict = "REGRESSED"
			}
		}
		if verdict != "ok" {
			failed++
		}
		fmt.Fprintf(w, "benchguard: %-44s allocs/op %10.1f -> %10.1f (limit %.1f), %s %s\n",
			b.Name, ref.AllocsPerOp, b.AllocsPerOp, limit, bytes, verdict)
	}
	if compared == 0 {
		return fmt.Errorf("benchguard: nothing compared: no benchmark of the input is in the baseline")
	}
	if failed > 0 {
		return fmt.Errorf("benchguard: %d benchmark(s) regressed beyond tolerance", failed)
	}
	fmt.Fprintf(w, "benchguard: %d benchmark(s) within budget\n", compared)
	return nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "snapshot JSON to compare against (empty = no gate)")
		inputPath    = flag.String("input", "-", "go test -bench output to parse (- = stdin)")
		writePath    = flag.String("write", "", "write the parsed results as a new snapshot JSON")
		note         = flag.String("note", "", "note recorded in the written snapshot")
		maxRegress   = flag.Float64("max-regress", 0.20, "tolerated fractional allocs/op and stable B/op regression")
		allocSlack   = flag.Float64("alloc-slack", 1.0, "absolute allocs/op slack on top of the fraction (absorbs one-off warmup allocations in short runs)")
	)
	flag.Parse()

	in := os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	order, groups, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	got := make([]Benchmark, 0, len(order))
	for _, name := range order {
		got = append(got, aggregate(name, groups[name]))
	}

	if *writePath != "" {
		snap := Snapshot{
			Recorded:   time.Now().UTC().Format("2006-01-02"),
			Go:         runtime.Version(),
			CPUs:       runtime.NumCPU(),
			Note:       *note,
			Benchmarks: got,
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*writePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks)\n", *writePath, len(got))
	}

	if *baselinePath == "" {
		return
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("benchguard: %s: %w", *baselinePath, err))
	}
	if err := compare(os.Stdout, got, base, *maxRegress, *allocSlack, byteSlack); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
