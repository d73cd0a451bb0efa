package runtime

import (
	"sync"
	"time"

	"repro/internal/oracle"
	"repro/internal/soak"
)

// Journal is a live node daemon's durable event log: oracle.Event
// lines appended through soak's torn-tail-safe LineJournal, one file
// per daemon process. Every protocol event is encoded and written
// synchronously inside the core.EventSink call that produced it,
// before the node acts on it, so a SIGKILL can cost at most the final
// (torn) line — which both reopening and offline replay tolerate.
// Timestamps are forced strictly monotone within the file so a stable
// merge across files preserves each file's exact order.
type Journal struct {
	mu    sync.Mutex
	lj    *soak.LineJournal
	buf   []byte // the line being written, reused under mu
	lastT int64
	err   error
}

// OpenJournal opens (creating if needed) a daemon's event journal,
// truncating any torn tail a previous kill left behind. Reopening an
// existing file appends — a restarted daemon continues its node's
// journal.
func OpenJournal(path string) (*Journal, error) {
	lj, err := soak.OpenLineJournal(path)
	if err != nil {
		return nil, err
	}
	return &Journal{lj: lj}, nil
}

// Event appends one journal line, stamping the current wall-clock time
// when the event carries none. The line is oracle.Event.AppendJSON's
// encoding, in one write; once the buffer has grown to the longest
// line, a record costs no allocation. Write errors are sticky and
// reported by Close — the protocol never blocks on journal health.
func (j *Journal) Event(ev oracle.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lj == nil {
		return
	}
	if ev.T == 0 {
		ev.T = time.Now().UnixNano()
	}
	if ev.T <= j.lastT {
		ev.T = j.lastT + 1
	}
	j.lastT = ev.T
	j.buf = append(ev.AppendJSON(j.buf[:0]), '\n')
	if err := j.lj.WriteLine(j.buf); err != nil && j.err == nil {
		j.err = err
	}
}

// Sync flushes the journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lj == nil {
		return j.err
	}
	return j.lj.Sync()
}

// Close flushes and closes the journal, reporting the first write
// error encountered over its lifetime.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lj == nil {
		return j.err
	}
	err := j.lj.Close()
	j.lj = nil
	if j.err != nil {
		return j.err
	}
	return err
}
