// Package soak is the continuous chaos service behind cmd/hc3isoak: a
// long-running sweep of adversarial schedules (internal/chaos) across
// the chaos-tier scenario grid, journaling every completed seed,
// checkpointing its cursor so a killed service resumes without losing
// or double-counting work, and shrinking every failure to the shortest
// reproducing schedule prefix before reporting it.
//
// The durability contract has one source of truth: the JSONL journal.
// A seed counts as done exactly when its record line is fully in the
// journal. The checkpoint (state.json) is a cache — a cursor plus the
// journal byte offset it has absorbed — rewritten atomically, so a
// kill -9 at any instant loses at most the seeds that were in flight:
// on restart the journal tail past the checkpoint offset is merged
// back (never re-run), a torn final line is truncated (re-run), and
// the sweep continues from the first seed with no record.
package soak

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Record is one journaled chaos run — the JSONL schema of
// journal.jsonl and of every exporter backend.
type Record struct {
	// Scenario is the chaos-tier cell ("4c/uniform/storm/jitter") and
	// Protocol the protocol under test.
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	// Seed replays the schedule.
	Seed uint64 `json:"seed"`
	// Status is "ok", "violation" (oracle or harness invariant),
	// "wedged" (wall-clock watchdog killed the run) or "panic".
	Status string `json:"status"`
	// Check names the violated check on failures ("oracle: gc safety",
	// "watchdog", ...); Error carries the full diagnostic.
	Check string `json:"check,omitempty"`
	Error string `json:"error,omitempty"`
	// Ops is how many perturbation actions the schedule applied;
	// MinOps, when > 0, is the minimized reproducing prefix and Replay
	// the one-command repro.
	Ops    int    `json:"ops,omitempty"`
	MinOps int    `json:"min_ops,omitempty"`
	Replay string `json:"replay,omitempty"`
	// Events and Failures summarize clean runs (simulated events,
	// injected crashes).
	Events   uint64 `json:"events,omitempty"`
	Failures uint64 `json:"failures,omitempty"`
	// ElapsedMS is the run's wall-clock cost in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Key identifies the sweep slot a record fills: one (scenario, seed)
// runs exactly once per sweep.
func (r Record) Key() string {
	return fmt.Sprintf("%s|%d", r.Scenario, r.Seed)
}

// Failed reports whether the record is anything but a clean run.
func (r Record) Failed() bool { return r.Status != StatusOK }

// Record statuses.
const (
	StatusOK        = "ok"
	StatusViolation = "violation"
	StatusWedged    = "wedged"
	StatusPanic     = "panic"
)

// Exporter receives every completed record. Export must be safe to
// call from the collector goroutine only; the service serializes all
// calls.
type Exporter interface {
	Export(Record) error
	Close() error
}

// NewWriterExporter streams records as JSONL to any writer (stdout
// tee, test buffers). Close flushes but does not close the underlying
// writer.
func NewWriterExporter(w io.Writer) Exporter {
	return &writerExporter{bw: bufio.NewWriter(w)}
}

type writerExporter struct{ bw *bufio.Writer }

func (e *writerExporter) Export(r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := e.bw.Write(b); err != nil {
		return err
	}
	return e.bw.Flush()
}

func (e *writerExporter) Close() error { return e.bw.Flush() }

// LineJournal is the generic durable line store underneath Journal:
// an append-only file of newline-terminated records whose byte offset
// a checkpoint can reference. Every append is one full-line write
// followed by the offset advance, so the only possible damage from a
// kill is a torn final line — which Open truncates away. The live
// runtime's per-node event journals (internal/runtime) reuse it with
// their own record schema.
type LineJournal struct {
	f   *os.File
	off int64
}

// OpenLineJournal opens (creating if needed) the line journal at path,
// truncates a torn trailing line left by a previous kill, and
// positions for append.
func OpenLineJournal(path string) (*LineJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := truncateTorn(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &LineJournal{f: f, off: end}, nil
}

// AppendLine writes one record line (the trailing newline is added
// here) and advances the offset.
func (j *LineJournal) AppendLine(b []byte) error { return j.WriteLine(append(b, '\n')) }

// WriteLine writes one record line that already ends in its newline,
// in one write, and advances the offset.
func (j *LineJournal) WriteLine(b []byte) error {
	n, err := j.f.Write(b)
	j.off += int64(n)
	return err
}

// Offset is the current append position — the value a checkpoint
// records as absorbed.
func (j *LineJournal) Offset() int64 { return j.off }

// Sync flushes the journal to stable storage.
func (j *LineJournal) Sync() error { return j.f.Sync() }

func (j *LineJournal) Close() error { return j.f.Close() }

// Journal is the soak service's durable record store: a LineJournal of
// JSONL Record lines.
type Journal struct {
	lj *LineJournal
}

// OpenJournal opens (creating if needed) the journal at path, truncates
// a torn trailing line left by a previous kill, and positions for
// append.
func OpenJournal(path string) (*Journal, error) {
	lj, err := OpenLineJournal(path)
	if err != nil {
		return nil, err
	}
	return &Journal{lj: lj}, nil
}

// truncateTorn scans for the last newline-terminated byte and truncates
// anything after it (a record interrupted mid-write).
func truncateTorn(f *os.File) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	if size == 0 {
		return 0, nil
	}
	// Walk back from the end in small chunks until a newline shows up.
	const chunk = 4096
	end := int64(-1)
	for lo := size; lo > 0 && end < 0; {
		n := int64(chunk)
		if n > lo {
			n = lo
		}
		lo -= n
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, lo); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			end = lo + int64(i) + 1
		}
	}
	if end < 0 {
		end = 0 // no newline at all: the whole file is one torn line
	}
	if end != size {
		if err := f.Truncate(end); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// Export appends one record line and advances the offset.
func (j *Journal) Export(r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return j.lj.AppendLine(b)
}

// Offset is the current append position — the value a checkpoint
// records as absorbed.
func (j *Journal) Offset() int64 { return j.lj.Offset() }

// Sync flushes the journal to stable storage (each checkpoint calls it
// before publishing the offset it references).
func (j *Journal) Sync() error { return j.lj.Sync() }

func (j *Journal) Close() error { return j.lj.Close() }

// ReadFrom replays every journal record starting at byte offset off,
// calling fn for each. A torn or malformed line stops the scan there
// (returning how far it got); OpenJournal truncation makes that the
// file end in practice. A well-formed record carrying "shards" > 1 is
// an error: it names a multi-engine schedule, which differs from the
// same seed's single-engine schedule and which this binary cannot run,
// so it must not be counted in that seed's slot.
func ReadFrom(path string, off int64, fn func(Record) error) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) && off == 0 {
		return 0, nil
	}
	if err != nil {
		return off, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	pos := off
	for sc.Scan() {
		line := sc.Bytes()
		var r struct {
			Record
			Shards int `json:"shards"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return pos, nil // torn tail: stop before it
		}
		if r.Shards > 1 {
			return pos, errShards(fmt.Sprintf("%s record %d", path, recordNumber(path, pos)), r.Shards)
		}
		if err := fn(r.Record); err != nil {
			return pos, err
		}
		pos += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		return pos, err
	}
	return pos, nil
}

// errShards refuses a record or cursor (named by where) of a
// multi-engine schedule.
func errShards(where string, shards int) error {
	return fmt.Errorf(
		"soak: %s: field \"shards\" is %d, but only single-engine schedules (shards absent or 1) exist; start a fresh -state dir",
		where, shards)
}

// recordNumber is the 1-based line number of the journal record that
// starts at byte offset pos. Error reporting only, so it rereads the
// file rather than making every scan count lines.
func recordNumber(path string, pos int64) int {
	b, _ := os.ReadFile(path)
	if int64(len(b)) > pos {
		b = b[:pos]
	}
	return bytes.Count(b, []byte{'\n'}) + 1
}
