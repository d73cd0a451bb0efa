package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call the benchmark made into a layer. Spans are recorded
// from the benchmark's own files only — nothing inside the program is
// instrumented — so a layer's figure is the time of its public calls as
// seen by a caller.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay one nil check per call site. All
// calls come from the one goroutine that drives a workload; the open
// stack gives each span its parent.
type tracer struct {
	workload string
	pass     int
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id for end.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Pass: t.pass, StartNS: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name, layer string, fn func()) {
	id := t.begin(name, layer)
	fn()
	t.end(id)
}

// seconds sums the durations of the spans called name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as <dir>/trace.json.
func (t *tracer) write(dir string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), b, 0o644)
}
