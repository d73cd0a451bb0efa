// Command bench is the repository's benchmark: five workloads, each
// measured end to end with tracing off and, in a separate traced run,
// layer by layer. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
//	bash bench/run.sh                                  every workload, untraced then traced
//	bash bench/run.sh --workload wide_ring --seed 7    one workload, end-to-end metrics
//	bash bench/run.sh --workload wide_ring --trace 1   one workload, per-layer metrics
//	bash bench/run.sh --compare a.json b.json          judge two sets of runs
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minPasses is the fewest passes a run makes, however short --seconds.
const minPasses = 3

// value is one reported figure.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a run as kept in <out>/results.json: the result plus what
// produced it and the spread of its passes.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Passes   int    `json:"passes"`
	// Digest is the events_digest every pass of a simulated workload
	// reproduced.
	Digest string `json:"events_digest,omitempty"`
	// PerPass holds each pass's value of the metrics that are medians
	// over passes, in pass order.
	PerPass map[string][]float64 `json:"per_pass,omitempty"`
	Errors  []string             `json:"errors,omitempty"`
	result
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (default: run them all)")
		seed    = flag.Uint64("seed", 1, "inputs are generated from this seed")
		seconds = flag.Float64("seconds", 20, "how long one run measures; a run makes at least 3 passes")
		trace   = flag.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from one traced run (default: 0 for one workload, both for all)")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "directory for results.json, trace.json and scratch files")
		scale   = flag.Float64("scale", 1, "shrink every workload by this factor (tests); figures at scale < 1 are not comparable")
		seeds   = flag.Int("seeds", 1, "all workloads: untraced runs per workload, on consecutive seeds")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench --compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *name == "":
		if err := runAll(*seed, *seeds, *seconds, *trace, *out, *scale); err != nil {
			fatal("%v", err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		if *trace != "" && *trace != "0" && *trace != "1" {
			fatal("--trace takes 0 or 1")
		}
		rec, err := runOne(w, *seed, *seconds, *trace == "1", *out, *scale)
		if err != nil {
			fatal("%v", err)
		}
		printRecord(rec)
		line, err := json.Marshal(rec.result)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// meter times the region a pass wants measured.
type meter struct {
	wall    time.Duration
	alloc   uint64 // bytes allocated inside the region
	mallocs uint64 // heap objects allocated inside the region
}

// timed runs fn as the pass's timed region. The collection before it
// is charged to set-up, so a pass does not pay for its predecessor's
// garbage.
func (m *meter) timed(fn func()) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	m.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	m.alloc = after.TotalAlloc - before.TotalAlloc
	m.mallocs = after.Mallocs - before.Mallocs
}

// passResult is one pass as the harness saw it.
type passResult struct {
	outcome
	meter
	setup time.Duration // the pass's time outside its timed region
}

func runPass(w workload, e *env) passResult {
	var p passResult
	if e.tr != nil {
		e.tr.pass = e.pass
	}
	t0 := time.Now()
	p.outcome = w.pass(e, &p.meter)
	p.setup = time.Since(t0) - p.wall
	e.pass++
	return p
}

// runOne runs one workload in this process and returns its record,
// which it also stores under <out>/<workload>/.
func runOne(w workload, seed uint64, seconds float64, traced bool, out string, scale float64) (*record, error) {
	dir := filepath.Join(out, w.name)
	scratch := filepath.Join(dir, fmt.Sprintf("scratch_%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: 1 + (seed-1)%inputSets, scale: scale, dir: scratch}
	rec := &record{Workload: w.name, Seed: seed, Trace: traced}
	rec.Metrics = map[string]value{}
	var err error
	if traced {
		err = runTraced(w, e, seconds, dir, rec)
	} else {
		runUntraced(w, e, seconds, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return nil, err
	}
	file := fmt.Sprintf("seed%d_trace%d.json", seed, btoi(traced))
	return rec, os.WriteFile(filepath.Join(dir, file), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// absorb adds a pass's units of work and complaints to the record and
// checks its digest against the first pass's.
func (rec *record) absorb(p *passResult, what string) {
	rec.Passes++
	rec.Attempted += p.attempted
	rec.Failed += p.failed
	for _, e := range p.errs {
		rec.Errors = append(rec.Errors, what+": "+e)
	}
	switch {
	case p.failed > 0 || p.digest == "":
	case rec.Digest == "":
		rec.Digest = p.digest
	case rec.Digest != p.digest:
		rec.Failed += p.attempted
		rec.Errors = append(rec.Errors, fmt.Sprintf("%s: events_digest %.12s differs from the first pass's %.12s", what, p.digest, rec.Digest))
	}
}

// runUntraced makes the number of passes that brings the run nearest to
// the given time and reports the end-to-end metrics: medians over
// passes.
func runUntraced(w workload, e *env, seconds float64, rec *record) {
	series := map[string][]float64{}
	start := time.Now()
	for i := 0; ; i++ {
		if spent := time.Since(start).Seconds(); i >= minPasses && spent+spent/float64(i)/2 >= seconds {
			break
		}
		p := runPass(w, e)
		rec.absorb(&p, fmt.Sprintf("pass %d", i+1))
		series["setup_s"] = append(series["setup_s"], p.setup.Seconds())
		series["wall_s"] = append(series["wall_s"], p.wall.Seconds())
		series["alloc_mb"] = append(series["alloc_mb"], float64(p.alloc)/1e6)
		series["mallocs_k"] = append(series["mallocs_k"], float64(p.mallocs)/1e3)
	}
	rec.PerPass = series
	for _, spec := range endToEnd {
		if vals, ok := series[spec.Name]; ok {
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			rec.Metrics[spec.Name] = value{median(sorted), spec.Unit}
		}
	}
	rec.Metrics["peak_rss_mb"] = value{peakRSSMB(), "MB"}
}

// runTraced reports the per-layer metrics. After a warm-up pass (the
// first pass of a process pays for growing the heap) it makes one
// reference pass with tracing off, one traced pass (spans and a CPU
// profile), the oracle-on differential passes where the workload has
// them, and the layer drivers. No end-to-end figure comes from here.
func runTraced(w workload, e *env, seconds float64, dir string, rec *record) error {
	facts := map[string]float64{}
	warm := runPass(w, e)
	rec.absorb(&warm, "warm-up pass")
	ref := runPass(w, e)
	rec.absorb(&ref, "reference pass")

	e.tr = newTracer(w.name)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced := runPass(w, e)
	pprof.StopCPUProfile()
	rec.absorb(&traced, "traced pass")
	addFacts(facts, traced.facts)
	wall := traced.wall.Seconds()

	if shares, err := cpuShares(prof.Bytes()); err != nil {
		rec.Errors = append(rec.Errors, err.Error())
	} else {
		for layer, s := range shares {
			facts[layer+".cpu_share"] = s
		}
	}
	facts["trace.overhead_share"] = wall/ref.wall.Seconds() - 1

	switch w.name {
	case "openloop_heavy":
		// The same run with the invariant checker attached: the result
		// must not change, the time may. (wide_ring has no such pass: at
		// 1024 clusters the checker multiplies the run time by fifty.)
		e.oracle = true
		var checked passResult
		e.tr.do("oracle-on pass", "oracle", func() { checked = runPass(w, e) })
		e.oracle = false
		rec.absorb(&checked, "oracle-on pass")
		facts["oracle.overhead_share"] = checked.wall.Seconds()/ref.wall.Seconds() - 1
		facts["oracle.violations"] += checked.facts["oracle.violations"]
	case "chaos_sweep":
		e.tr.pass = e.pass
		counted, errs := chaosCountPass(e)
		rec.Errors = append(rec.Errors, errs...)
		rec.Failed += uint64(len(errs))
		addFacts(facts, counted)
		facts["chaos.runs_per_s"] = facts["chaos.runs"] / wall
	}

	if msgs := facts["app.msgs"]; msgs > 0 {
		facts["sim.events_per_msg"] = facts["sim.events"] / msgs
	}
	if ref.msgs > 0 {
		facts["msgs_per_s"] = float64(ref.msgs) / ref.wall.Seconds()
	}
	if w.name != "chaos_sweep" {
		facts["sim.events_per_s"] = facts["sim.events"] / wall
	} else if run := facts["federation.run_s"]; run > 0 {
		facts["sim.events_per_s"] = facts["sim.events"] / run
	}
	if inter := facts["app.msgs_inter"]; inter > 0 {
		facts["forced_clc_per_kmsg"] = 1000 * facts["core.clc_forced"] / inter
	}
	if failures := facts["failures"]; failures > 0 {
		facts["rollbacks_per_failure"] = facts["core.rollbacks"] / failures
	}

	e.tr.pass = -1
	var drivers map[string]float64
	var err error
	slice := time.Duration(seconds / 50 * e.scale * float64(time.Second))
	if slice < 10*time.Millisecond {
		slice = 10 * time.Millisecond
	}
	e.tr.do("layer drivers", "drivers", func() { drivers, err = runDrivers(slice, e.seed, e.dir, e.scaled(10, 2)) })
	if err != nil {
		return err
	}
	addFacts(facts, drivers)

	for _, spec := range perLayer {
		v := facts[spec.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s is not finite", spec.Name))
			v = 0
		}
		rec.Metrics[spec.Name] = value{v, spec.Unit}
	}
	return e.tr.write(dir)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// printRecord prints every metric of a run by name with its unit.
func printRecord(rec *record) {
	mode := "end-to-end, tracing off"
	specs := endToEnd
	if rec.Trace {
		mode, specs = "per-layer, traced", perLayer
	}
	w, _ := workloadByName(rec.Workload)
	fmt.Printf("workload %s (%s loop)  seed %d  %s  %d passes\n", rec.Workload, w.loop, rec.Seed, mode, rec.Passes)
	for _, spec := range specs {
		v := rec.Metrics[spec.Name]
		fmt.Printf("  %-32s %16.6g %-7s", spec.Name, v.Value, v.Unit)
		if spec.Moves != "" {
			fmt.Printf(" -> %s", spec.Moves)
		}
		if vals := rec.PerPass[spec.Name]; len(vals) > 0 {
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			fmt.Printf(" min %.6g max %.6g", sorted[0], sorted[len(sorted)-1])
		}
		fmt.Println()
	}
	if rec.Digest != "" {
		fmt.Printf("  events_digest %s\n", rec.Digest)
	}
	for _, e := range rec.Errors {
		fmt.Printf("  FAILED %s\n", e)
	}
	fmt.Printf("  correct %v  attempted %d  failed %d\n", rec.Correct, rec.Attempted, rec.Failed)
}

// runAll runs every workload in a child process of its own — so that
// peak memory and collector debt do not carry from one workload to the
// next — untraced on each seed, then traced once, and stores all the
// records in <out>/results.json.
func runAll(seed uint64, seeds int, seconds float64, trace, out string, scale float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set struct {
		Runs []record `json:"runs"`
	}
	failed := false
	child := func(w workload, seed uint64, traced int) error {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced),
			"--out", out, "--scale", fmt.Sprint(scale))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed = true // exit code 1: it ran and reported failures
		}
		b, err := os.ReadFile(filepath.Join(out, w.name, fmt.Sprintf("seed%d_trace%d.json", seed, traced)))
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return err
		}
		set.Runs = append(set.Runs, rec)
		return nil
	}
	for _, w := range workloads {
		if trace != "1" {
			for k := 0; k < seeds; k++ {
				if err := child(w, seed+uint64(k), 0); err != nil {
					return err
				}
			}
		}
		if trace != "0" {
			if err := child(w, seed, 1); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", filepath.Join(out, "results.json"))
	if failed {
		return fmt.Errorf("at least one run reported failures")
	}
	return nil
}
