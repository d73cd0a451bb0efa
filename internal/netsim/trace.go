package netsim

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Trace-driven links: instead of a static (latency, jitter) pair, an
// inter-cluster link replays a measured schedule of (latency, jitter,
// loss) samples — the shape of real mobile-broadband paths, whose
// characteristics drift over minutes, not the milliseconds a static
// model assumes. The schedule rides the existing Perturber plumbing:
// the topology's inter links carry the trace's minimum latency (so the
// surplus is never negative) and the TracePerturber adds the current
// segment's surplus, jitter draw and loss-retransmission delay on top. Perturbed messages always deliver
// standalone, so batched and unbatched trace runs are identical by
// construction.

// TraceSample is one measured segment of a link trace: it applies from
// At until the next sample's At (the last segment extends by the width
// of its predecessor, and the whole trace then loops).
type TraceSample struct {
	At      sim.Duration // offset from trace start
	Latency sim.Duration // one-way latency during the segment
	Jitter  sim.Duration // per-message jitter bound during the segment
	Loss    float64      // per-attempt loss probability in [0, 1)
}

// LinkTrace is a parsed, validated link schedule.
type LinkTrace struct {
	samples []TraceSample
	period  sim.Duration
	minLat  sim.Duration
}

// traceLine is the JSONL wire form of one sample: times in
// milliseconds, loss as a fraction.
type traceLine struct {
	TMs       float64 `json:"t_ms"`
	LatencyMs float64 `json:"latency_ms"`
	JitterMs  float64 `json:"jitter_ms"`
	Loss      float64 `json:"loss"`
}

// NewLinkTrace validates a sample schedule: samples must start at
// offset 0 and strictly increase, latencies must be positive, loss
// stays below 1 (a loss-1 segment would retransmit forever).
func NewLinkTrace(samples []TraceSample) (*LinkTrace, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("netsim: empty link trace")
	}
	if samples[0].At != 0 {
		return nil, fmt.Errorf("netsim: link trace must start at t=0, got %v", samples[0].At)
	}
	minLat := samples[0].Latency
	for i, s := range samples {
		if i > 0 && s.At <= samples[i-1].At {
			return nil, fmt.Errorf("netsim: link trace sample %d at %v does not advance past %v", i, s.At, samples[i-1].At)
		}
		if s.Latency <= 0 {
			return nil, fmt.Errorf("netsim: link trace sample %d has non-positive latency %v", i, s.Latency)
		}
		if s.Jitter < 0 {
			return nil, fmt.Errorf("netsim: link trace sample %d has negative jitter %v", i, s.Jitter)
		}
		if s.Loss < 0 || s.Loss >= 1 {
			return nil, fmt.Errorf("netsim: link trace sample %d loss %v outside [0, 1)", i, s.Loss)
		}
		if s.Latency < minLat {
			minLat = s.Latency
		}
	}
	period := samples[len(samples)-1].At
	if len(samples) > 1 {
		period += samples[len(samples)-1].At - samples[len(samples)-2].At
	} else {
		period = sim.Second // single-sample trace: constant conditions
	}
	return &LinkTrace{
		samples: append([]TraceSample(nil), samples...),
		period:  period,
		minLat:  minLat,
	}, nil
}

// ParseTrace reads a JSONL trace: one {"t_ms", "latency_ms",
// "jitter_ms", "loss"} object per line, blank lines and #-comment
// lines skipped.
func ParseTrace(r io.Reader) (*LinkTrace, error) {
	var samples []TraceSample
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var tl traceLine
		if err := json.Unmarshal(line, &tl); err != nil {
			return nil, fmt.Errorf("netsim: trace line %d: %w", lineNo, err)
		}
		samples = append(samples, TraceSample{
			At:      sim.Duration(tl.TMs * float64(sim.Millisecond)),
			Latency: sim.Duration(tl.LatencyMs * float64(sim.Millisecond)),
			Jitter:  sim.Duration(tl.JitterMs * float64(sim.Millisecond)),
			Loss:    tl.Loss,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netsim: reading trace: %w", err)
	}
	return NewLinkTrace(samples)
}

// Len returns the number of samples.
func (t *LinkTrace) Len() int { return len(t.samples) }

// Period returns the loop length of the trace.
func (t *LinkTrace) Period() sim.Duration { return t.period }

// MinLatency returns the smallest segment latency — the static
// latency the topology's inter links must declare so the perturber's
// surplus is never negative.
func (t *LinkTrace) MinLatency() sim.Duration { return t.minLat }

// SampleAt returns the segment in effect at simulation time at; the
// trace loops past its period.
func (t *LinkTrace) SampleAt(at sim.Time) TraceSample {
	phase := sim.Duration(at) % t.period
	// Step-function lookup: the traces in play have a handful of
	// segments, so a linear scan beats a binary search's branching.
	cur := t.samples[0]
	for _, s := range t.samples[1:] {
		if s.At > phase {
			break
		}
		cur = s
	}
	return cur
}

// mobileBroadbandJSONL is the checked-in fixture: a repeating
// mobile-broadband-like schedule (tens-of-ms latency swings, bursty
// jitter, occasional loss) in the JSONL schema ParseTrace reads.
//
//go:embed testdata/mobile_broadband.jsonl
var mobileBroadbandJSONL string

var (
	defaultTraceOnce sync.Once
	defaultTrace     *LinkTrace
)

// DefaultTrace returns the embedded mobile-broadband fixture trace.
func DefaultTrace() *LinkTrace {
	defaultTraceOnce.Do(func() {
		t, err := ParseTrace(strings.NewReader(mobileBroadbandJSONL))
		if err != nil {
			panic(fmt.Sprintf("netsim: embedded trace fixture invalid: %v", err))
		}
		defaultTrace = t
	})
	return defaultTrace
}

// TracePerturber replays a LinkTrace over every inter-cluster link: on
// top of the link's static latency (the trace minimum) it adds the
// current segment's latency surplus, a jitter draw and a geometric
// loss-retransmission delay. Randomness comes from per-directed-pipe
// streams derived purely from (seed, slot), so the draws a pipe sees
// depend only on its own traffic order, not on how busy the other
// pipes are. Every inter message reports perturbed, which routes it
// off the batch path: batched and unbatched trace runs are identical.
type TracePerturber struct {
	trace *LinkTrace
	fed   *topology.Federation
	now   func() sim.Time
	seed  uint64
	nc    int
	slots []*sim.RNG // by src*nClusters+dst, lazily created

	// Retransmits, when non-nil, counts simulated loss retransmissions.
	Retransmits *sim.Counter
}

// traceRetryCap bounds the retransmissions of one message; with the
// validated loss < 1 the geometric tail beyond 16 tries is ~0.
const traceRetryCap = 16

// NewTracePerturber builds the perturber for one run. seed is the run
// seed and now the owning engine's clock.
func NewTracePerturber(trace *LinkTrace, fed *topology.Federation, seed uint64, now func() sim.Time) *TracePerturber {
	nc := fed.NumClusters()
	return &TracePerturber{
		trace: trace,
		fed:   fed,
		now:   now,
		seed:  seed,
		nc:    nc,
		slots: make([]*sim.RNG, nc*nc),
	}
}

// slotRNG returns (creating on first use) the directed pipe's stream.
// The 3<<32 tag keeps it disjoint from netsim's intra (1<<32) and
// inter (2<<32) jitter streams under the same seed.
func (p *TracePerturber) slotRNG(slot int) *sim.RNG {
	if r := p.slots[slot]; r != nil {
		return r
	}
	tag := 3<<32 | uint64(slot)
	r := sim.NewRNG(p.seed + tag*0x9e3779b97f4a7c15)
	p.slots[slot] = r
	return r
}

// Perturb implements Perturber. Intra-cluster traffic is untouched
// (the trace models the wide-area path between clusters).
func (p *TracePerturber) Perturb(m Message, intra bool, envelope sim.Duration) (Perturbation, bool) {
	if intra {
		return Perturbation{}, false
	}
	seg := p.trace.SampleAt(p.now())
	extra := seg.Latency - p.fed.InterLink(m.Src.Cluster, m.Dst.Cluster).Latency
	if extra < 0 {
		extra = 0
	}
	slot := int(m.Src.Cluster)*p.nc + int(m.Dst.Cluster)
	r := p.slotRNG(slot)
	if seg.Jitter > 0 {
		extra += r.Uniform(0, seg.Jitter)
	}
	if seg.Loss > 0 {
		// Loss on a reliable transport shows up as retransmission delay,
		// never as an actual drop (the protocol assumes a loss-free
		// network, and the harness's message-completeness invariant
		// holds it to that): each lost attempt costs one RTT-scale
		// timeout before the retry.
		rto := 2*seg.Latency + seg.Jitter
		for try := 0; try < traceRetryCap && r.Float64() < seg.Loss; try++ {
			extra += rto
			if p.Retransmits != nil {
				p.Retransmits.Inc()
			}
		}
	}
	return Perturbation{Extra: extra}, true
}
