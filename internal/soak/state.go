package soak

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// stateVersion guards the checkpoint schema.
const stateVersion = 1

// Cursor is one sweep unit's progress: which seeds of one scenario
// slice have journaled records. Seeds are assigned sequentially from
// 1; completions can land out of order (worker pool), so coverage is a
// contiguous prefix plus sparse extras above it.
type Cursor struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	// Done: every seed in [1, Done] has a journal record.
	Done uint64 `json:"done"`
	// Extras: completed seeds above Done (normalized: sorted, unique,
	// all > Done). They fold into Done as the gap below them fills.
	Extras []uint64 `json:"extras,omitempty"`
}

// Complete marks seed done and renormalizes. It reports false when the
// seed was already complete — the double-count a resume must not make.
func (c *Cursor) Complete(seed uint64) bool {
	if seed <= c.Done {
		return false
	}
	for _, e := range c.Extras {
		if e == seed {
			return false
		}
	}
	c.Extras = append(c.Extras, seed)
	sort.Slice(c.Extras, func(i, j int) bool { return c.Extras[i] < c.Extras[j] })
	// Fold the contiguous run above Done back into the prefix.
	k := 0
	for k < len(c.Extras) && c.Extras[k] == c.Done+1 {
		c.Done++
		k++
	}
	c.Extras = append(c.Extras[:0], c.Extras[k:]...)
	if len(c.Extras) == 0 {
		c.Extras = nil
	}
	return true
}

// Completed reports whether seed already has a record.
func (c *Cursor) Completed(seed uint64) bool {
	if seed <= c.Done {
		return true
	}
	for _, e := range c.Extras {
		if e == seed {
			return true
		}
	}
	return false
}

// CompletedCount is how many seeds of the slice have records.
func (c *Cursor) CompletedCount() uint64 {
	return c.Done + uint64(len(c.Extras))
}

// State is the checkpoint: sweep identity, per-unit cursors, the
// journal offset it has absorbed, and the failure ledger.
type State struct {
	Version int `json:"version"`
	// Fingerprint pins the sweep configuration the state belongs to; a
	// resume under a different grid or budget must start a fresh state
	// dir, not silently mix schedules.
	Fingerprint string `json:"fingerprint"`
	// JournalBytes is the journal offset every cursor reflects. Journal
	// records past it are merged on load (they were written after the
	// last checkpoint).
	JournalBytes int64     `json:"journal_bytes"`
	Cursors      []*Cursor `json:"cursors"`
	// The ledger: counts by status, plus every failing record kept
	// verbatim for the report.
	Completed  uint64   `json:"completed"`
	Violations uint64   `json:"violations"`
	Wedged     uint64   `json:"wedged"`
	Panics     uint64   `json:"panics"`
	Failures   []Record `json:"failures,omitempty"`
}

// NewState starts a fresh checkpoint for the given sweep units.
func NewState(fingerprint string, units []Unit) *State {
	s := &State{Version: stateVersion, Fingerprint: fingerprint}
	for _, u := range units {
		s.Cursors = append(s.Cursors, &Cursor{Scenario: u.Scenario.Name(), Protocol: u.protocol()})
	}
	return s
}

// Cursor returns the unit's cursor, or nil for a record outside the
// sweep (a foreign journal line).
func (s *State) Cursor(scenario string) *Cursor {
	for _, c := range s.Cursors {
		if c.Scenario == scenario {
			return c
		}
	}
	return nil
}

// Absorb merges one journal record into the cursors and ledger. It
// reports whether the record was new (false = already counted, the
// exactly-once guard).
func (s *State) Absorb(r Record) bool {
	c := s.Cursor(r.Scenario)
	if c == nil || !c.Complete(r.Seed) {
		return false
	}
	s.Completed++
	switch r.Status {
	case StatusViolation:
		s.Violations++
	case StatusWedged:
		s.Wedged++
	case StatusPanic:
		s.Panics++
	}
	if r.Failed() {
		s.Failures = append(s.Failures, r)
	}
	return true
}

const (
	stateFile   = "state.json"
	journalFile = "journal.jsonl"
)

// StatePath and JournalPath name the two files of a soak state dir.
func StatePath(dir string) string   { return filepath.Join(dir, stateFile) }
func JournalPath(dir string) string { return filepath.Join(dir, journalFile) }

// SaveState checkpoints atomically: write a temp file in the same
// directory, fsync, rename over state.json. A kill at any point leaves
// either the old or the new checkpoint, never a partial one.
func SaveState(dir string, s *State) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp := filepath.Join(dir, stateFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, StatePath(dir))
}

// LoadState reads the checkpoint; a missing file returns (nil, nil) —
// a fresh sweep. A cursor carrying "shards" > 1 is refused for the
// reason ReadFrom refuses such a record; "shards": 1, which
// checkpoints on disk carry on every cursor, is the single-engine
// schedule and loads as is.
func LoadState(dir string) (*State, error) {
	b, err := os.ReadFile(StatePath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var s State
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("soak: corrupt %s: %w", StatePath(dir), err)
	}
	if s.Version != stateVersion {
		return nil, fmt.Errorf("soak: %s has version %d, this binary speaks %d",
			StatePath(dir), s.Version, stateVersion)
	}
	var legacy struct {
		Cursors []struct {
			Scenario string `json:"scenario"`
			Shards   int    `json:"shards"`
		} `json:"cursors"`
	}
	if err := json.Unmarshal(b, &legacy); err != nil {
		return nil, fmt.Errorf("soak: corrupt %s: %w", StatePath(dir), err)
	}
	for i, c := range legacy.Cursors {
		if c.Shards > 1 {
			return nil, errShards(fmt.Sprintf("%s cursor %d (%s)", StatePath(dir), i+1, c.Scenario), c.Shards)
		}
	}
	return &s, nil
}

// Recover opens a state dir for a sweep: load the checkpoint (or start
// fresh), truncate the journal's torn tail, and absorb every journal
// record past the checkpoint offset — the completions a kill raced.
// The journal is the source of truth: anything it holds is merged
// (never re-run), anything it lacks is re-run (never lost).
func Recover(dir, fingerprint string, units []Unit) (*State, *Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, err := LoadState(dir)
	if err != nil {
		return nil, nil, err
	}
	if st == nil {
		st = NewState(fingerprint, units)
	} else if st.Fingerprint != fingerprint {
		return nil, nil, fmt.Errorf(
			"soak: state dir %s belongs to a different sweep configuration:\n  have %s\n  want %s\nuse a fresh -state dir (or the original flags) — mixing sweeps would corrupt the ledger",
			dir, st.Fingerprint, fingerprint)
	}
	j, err := OpenJournal(JournalPath(dir))
	if err != nil {
		return nil, nil, err
	}
	if st.JournalBytes > j.Offset() {
		j.Close()
		return nil, nil, fmt.Errorf(
			"soak: checkpoint references journal offset %d but the journal holds %d bytes (journal truncated externally?)",
			st.JournalBytes, j.Offset())
	}
	merged := 0
	end, err := ReadFrom(JournalPath(dir), st.JournalBytes, func(r Record) error {
		if st.Absorb(r) {
			merged++
		}
		return nil
	})
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	st.JournalBytes = end
	_ = merged
	return st, j, nil
}

// Verify re-derives the ledger from the whole journal and checks it
// against the checkpoint: every record slots into exactly one sweep
// position, no position holds two records, the checkpoint's cursors
// and counts match the journal exactly, and coverage is monotone (a
// contiguous prefix plus extras). It is the CI smoke test's oracle for
// the exactly-once guarantee.
func Verify(dir string) (*State, error) {
	st, err := LoadState(dir)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("soak: no checkpoint in %s", dir)
	}
	seen := map[string]bool{}
	fresh := &State{Version: stateVersion, Fingerprint: st.Fingerprint}
	for _, c := range st.Cursors {
		fresh.Cursors = append(fresh.Cursors, &Cursor{Scenario: c.Scenario, Protocol: c.Protocol})
	}
	n := 0
	end, err := ReadFrom(JournalPath(dir), 0, func(r Record) error {
		n++
		if seen[r.Key()] {
			return fmt.Errorf("soak: journal record %d duplicates slot %s", n, r.Key())
		}
		seen[r.Key()] = true
		if fresh.Cursor(r.Scenario) == nil {
			return fmt.Errorf("soak: journal record %d names unit %s outside the sweep", n, r.Scenario)
		}
		if !fresh.Absorb(r) {
			return fmt.Errorf("soak: journal record %d (slot %s) did not advance the ledger", n, r.Key())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st.JournalBytes > end {
		return nil, fmt.Errorf("soak: checkpoint offset %d beyond journal end %d", st.JournalBytes, end)
	}
	// The checkpoint may lag the journal (its offset is published every
	// N records): absorb the unreferenced tail before comparing, exactly
	// as a resume would.
	if _, err := ReadFrom(JournalPath(dir), st.JournalBytes, func(r Record) error {
		st.Absorb(r)
		return nil
	}); err != nil {
		return nil, err
	}
	if fresh.Completed != st.Completed || fresh.Violations != st.Violations ||
		fresh.Wedged != st.Wedged || fresh.Panics != st.Panics {
		return nil, fmt.Errorf(
			"soak: ledger mismatch: journal says %d completed (%d violations, %d wedged, %d panics), checkpoint says %d (%d, %d, %d)",
			fresh.Completed, fresh.Violations, fresh.Wedged, fresh.Panics,
			st.Completed, st.Violations, st.Wedged, st.Panics)
	}
	for _, c := range st.Cursors {
		fc := fresh.Cursor(c.Scenario)
		if fc.Done != c.Done || len(fc.Extras) != len(c.Extras) {
			return nil, fmt.Errorf("soak: cursor %s mismatch: journal %d+%d extras, checkpoint %d+%d",
				c.Scenario, fc.Done, len(fc.Extras), c.Done, len(c.Extras))
		}
		for i := range c.Extras {
			if c.Extras[i] != fc.Extras[i] {
				return nil, fmt.Errorf("soak: cursor %s extras diverge", c.Scenario)
			}
		}
	}
	return st, nil
}
