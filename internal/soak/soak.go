package soak

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// Unit is one sweep slice: a chaos-tier scenario.
type Unit struct {
	Scenario experiments.Scenario
	Protocol string // "" = hc3i
}

func (u Unit) protocol() string {
	if u.Protocol == "" {
		return experiments.ChaosProtocols[0]
	}
	return u.Protocol
}

// Options configures one soak sweep.
type Options struct {
	// Dir is the state directory (state.json + journal.jsonl). One dir
	// is one sweep: resuming continues it, a different sweep
	// configuration is rejected by the fingerprint guard.
	Dir string
	// Units are the sweep slices; SeedsPerUnit is each slice's seed
	// budget (seeds 1..SeedsPerUnit). Raising the budget on resume
	// extends the sweep in place.
	Units        []Unit
	SeedsPerUnit uint64
	Quick        bool
	// Workers bounds concurrent runs (<= 1 = sequential).
	Workers int
	// RunTimeout arms the per-run wall-clock watchdog; a wedged run is
	// journaled as status "wedged" and the sweep moves on. 0 disables
	// it (a wedged run then stalls its worker forever — set one).
	RunTimeout time.Duration
	// CheckpointEvery publishes the checkpoint after this many
	// journaled records (0 = every 32). Smaller = less re-verified work
	// after a kill, more fsyncs.
	CheckpointEvery int
	// Minimize shrinks every violation to the shortest reproducing
	// schedule prefix before journaling it (see Minimize).
	Minimize bool
	// DieAfter > 0 makes the collector SIGKILL the whole process right
	// after journaling that many records this session — the CI smoke
	// test's deterministic mid-sweep kill.
	DieAfter int
	// Tee, when non-nil, additionally receives every record (stdout
	// streaming). The journal stays the source of truth.
	Tee Exporter
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery < 1 {
		return 32
	}
	return o.CheckpointEvery
}

// Fingerprint pins the sweep identity a state dir belongs to: the unit
// grid and the scale. The seed budget and operational knobs (workers,
// timeout, checkpoint cadence) are deliberately excluded — raising the
// budget or retuning the service must resume, not restart. Each unit's
// constant third field is the engine count of the soak-v1 format:
// state dirs on disk carry it, and dropping it would orphan them.
func Fingerprint(o Options) string {
	names := make([]string, len(o.Units))
	for i, u := range o.Units {
		names[i] = fmt.Sprintf("%s|%s|1", u.Scenario.Name(), u.protocol())
	}
	sort.Strings(names)
	return fmt.Sprintf("soak-v1 quick=%t units=%s", o.Quick, strings.Join(names, ","))
}

// Summary is a finished (or drained) sweep session's ledger.
type Summary struct {
	Completed  uint64 // journaled seeds, all sessions of this state dir
	Violations uint64
	Wedged     uint64
	Panics     uint64
	// Remaining is how many of the sweep's seeds still lack records
	// (> 0 after a SIGTERM drain; resume picks them up).
	Remaining uint64
	// Failures holds every failing record, oldest first.
	Failures []Record
}

type job struct {
	unit Unit
	seed uint64
}

// Run executes the sweep: recover the state dir, fan the pending seeds
// across the worker pool, journal every completion, checkpoint on a
// cadence, and drain gracefully when ctx is cancelled (in-flight runs
// finish — bounded by RunTimeout — and are journaled; unstarted seeds
// wait for the next resume).
func Run(ctx context.Context, o Options) (*Summary, error) {
	if len(o.Units) == 0 {
		return nil, fmt.Errorf("soak: no sweep units")
	}
	if o.SeedsPerUnit < 1 {
		return nil, fmt.Errorf("soak: seed budget must be >= 1")
	}
	st, j, err := Recover(o.Dir, Fingerprint(o), o.Units)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	// Publish the recovered checkpoint immediately: the fingerprint
	// guard and the merged journal tail are on disk before any new work.
	st.JournalBytes = j.Offset()
	if err := SaveState(o.Dir, st); err != nil {
		return nil, err
	}

	// The pending list: every (unit, seed) without a journal record,
	// interleaved across units so progress spreads over the grid.
	var pending []job
	perUnit := make([][]uint64, len(o.Units))
	for i, u := range o.Units {
		c := st.Cursor(u.Scenario.Name())
		for seed := uint64(1); seed <= o.SeedsPerUnit; seed++ {
			if !c.Completed(seed) {
				perUnit[i] = append(perUnit[i], seed)
			}
		}
	}
	for k := 0; ; k++ {
		added := false
		for i, u := range o.Units {
			if k < len(perUnit[i]) {
				pending = append(pending, job{unit: u, seed: perUnit[i][k]})
				added = true
			}
		}
		if !added {
			break
		}
	}
	o.logf("soak: %d units x %d seeds, %d pending, %d already journaled",
		len(o.Units), o.SeedsPerUnit, len(pending), st.Completed)

	jobs := make(chan job)
	results := make(chan Record, o.workers())
	go func() {
		defer close(jobs)
		for _, jb := range pending {
			select {
			case jobs <- jb:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < o.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				results <- runOne(jb, o)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// The collector is the only writer of the journal and checkpoint.
	written, sinceCkpt := 0, 0
	checkpoint := func() error {
		if err := j.Sync(); err != nil {
			return err
		}
		st.JournalBytes = j.Offset()
		if err := SaveState(o.Dir, st); err != nil {
			return err
		}
		sinceCkpt = 0
		return nil
	}
	for rec := range results {
		if err := j.Export(rec); err != nil {
			return nil, fmt.Errorf("soak: journal write: %w", err)
		}
		if o.Tee != nil {
			if err := o.Tee.Export(rec); err != nil {
				return nil, fmt.Errorf("soak: exporter: %w", err)
			}
		}
		st.Absorb(rec)
		written++
		sinceCkpt++
		if rec.Failed() {
			o.logf("soak: %s seed %d (%s): %s — replay: %s",
				rec.Scenario, rec.Seed, rec.Status, rec.Check, rec.Replay)
		}
		if o.DieAfter > 0 && written >= o.DieAfter {
			// The deterministic mid-sweep kill: the journal holds exactly
			// `written` records this session, the checkpoint references
			// some prefix of them, and nothing gets to clean up — the
			// recovery path must reassemble the truth.
			_ = j.Sync()
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable: SIGKILL is not handleable
		}
		if sinceCkpt >= o.checkpointEvery() {
			if err := checkpoint(); err != nil {
				return nil, err
			}
			o.logf("soak: checkpoint at %d/%d seeds (%d violations, %d wedged)",
				st.Completed, uint64(len(o.Units))*o.SeedsPerUnit, st.Violations, st.Wedged)
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	if o.Tee != nil {
		if err := o.Tee.Close(); err != nil {
			return nil, err
		}
	}

	sum := &Summary{
		Completed:  st.Completed,
		Violations: st.Violations,
		Wedged:     st.Wedged,
		Panics:     st.Panics,
		Failures:   append([]Record(nil), st.Failures...),
	}
	for _, u := range o.Units {
		c := st.Cursor(u.Scenario.Name())
		for seed := uint64(1); seed <= o.SeedsPerUnit; seed++ {
			if !c.Completed(seed) {
				sum.Remaining++
			}
		}
	}
	return sum, nil
}

// runOne executes one seed, translating every way a run can end —
// clean, violation, watchdog kill, panic — into a Record. A panic is
// contained to the worker: the schedule that crashed the harness is
// journaled like any other failure instead of taking the sweep down.
func runOne(jb job, o Options) (rec Record) {
	start := time.Now()
	// Seed k of the sweep is the run with traffic seed = chaos seed = k.
	run := experiments.ChaosRun{
		Scenario: jb.unit.Scenario,
		Protocol: jb.unit.protocol(),
		Config: experiments.Config{Seed: jb.seed, ChaosSeed: jb.seed, Quick: o.Quick,
			RunTimeout: o.RunTimeout},
	}
	rec = Record{
		Scenario: jb.unit.Scenario.Name(),
		Protocol: run.Protocol,
		Seed:     jb.seed,
	}
	defer func() {
		rec.ElapsedMS = time.Since(start).Milliseconds()
		if p := recover(); p != nil {
			rec.Status = StatusPanic
			rec.Check = "panic"
			rec.Error = fmt.Sprint(p)
			rec.Replay = run.ReplayCommand()
		}
	}()
	out := run.Run()
	rec.Ops = out.Ops
	if out.Err == nil {
		rec.Status = StatusOK
		rec.Events = out.Result.Events
		rec.Failures = out.Result.Failures
		return rec
	}
	check := experiments.CheckName(out.Err)
	if check == "watchdog" {
		rec.Status = StatusWedged
	} else {
		rec.Status = StatusViolation
	}
	rec.Check = check
	rec.Error = out.Err.Error()
	rec.Replay = run.ReplayCommand()
	if o.Minimize && rec.Status == StatusViolation {
		if min := Minimize(run, out.Err, out.Ops); min.OpBudget > 0 {
			rec.MinOps = min.OpBudget
			short := run
			short.Config.ChaosOps = min.OpBudget
			rec.Replay = short.ReplayCommand()
		}
	}
	return rec
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}
