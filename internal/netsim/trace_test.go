package netsim

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestDefaultTraceFixture(t *testing.T) {
	tr := DefaultTrace()
	if tr.Len() != 10 {
		t.Fatalf("fixture samples = %d", tr.Len())
	}
	if tr.Period() != 600*sim.Second {
		t.Fatalf("fixture period = %v", tr.Period())
	}
	if tr.MinLatency() != 32*sim.Millisecond {
		t.Fatalf("fixture min latency = %v", tr.MinLatency())
	}
}

func TestParseTrace(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(`
# comment line
{"t_ms": 0, "latency_ms": 10, "jitter_ms": 2, "loss": 0.01}

{"t_ms": 500, "latency_ms": 20, "jitter_ms": 0, "loss": 0}
`))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.MinLatency() != 10*sim.Millisecond {
		t.Fatalf("parsed %d samples, min %v", tr.Len(), tr.MinLatency())
	}
	// Last segment extends by its predecessor's width: 500ms + 500ms.
	if tr.Period() != sim.Second {
		t.Fatalf("period = %v", tr.Period())
	}
	if _, err := ParseTrace(strings.NewReader(`{"t_ms": bogus}`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestNewLinkTraceValidation(t *testing.T) {
	ok := TraceSample{At: 0, Latency: 10 * sim.Millisecond}
	cases := []struct {
		name    string
		samples []TraceSample
	}{
		{"empty", nil},
		{"nonzero start", []TraceSample{{At: sim.Second, Latency: sim.Millisecond}}},
		{"non-increasing", []TraceSample{ok, {At: 0, Latency: sim.Millisecond}}},
		{"zero latency", []TraceSample{{At: 0, Latency: 0}}},
		{"negative jitter", []TraceSample{{At: 0, Latency: sim.Millisecond, Jitter: -1}}},
		{"loss one", []TraceSample{{At: 0, Latency: sim.Millisecond, Loss: 1}}},
		{"negative loss", []TraceSample{{At: 0, Latency: sim.Millisecond, Loss: -0.1}}},
	}
	for _, c := range cases {
		if _, err := NewLinkTrace(c.samples); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewLinkTrace([]TraceSample{ok}); err != nil {
		t.Fatalf("single valid sample rejected: %v", err)
	}
}

func TestSampleAtStepsAndLoops(t *testing.T) {
	tr, err := NewLinkTrace([]TraceSample{
		{At: 0, Latency: 10 * sim.Millisecond},
		{At: sim.Second, Latency: 20 * sim.Millisecond},
		{At: 2 * sim.Second, Latency: 30 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Period() != 3*sim.Second {
		t.Fatalf("period = %v", tr.Period())
	}
	at := func(d sim.Duration) sim.Duration {
		return tr.SampleAt(sim.Time(0).Add(d)).Latency
	}
	cases := []struct {
		at   sim.Duration
		want sim.Duration
	}{
		{0, 10 * sim.Millisecond},
		{999 * sim.Millisecond, 10 * sim.Millisecond},
		{sim.Second, 20 * sim.Millisecond},
		{2500 * sim.Millisecond, 30 * sim.Millisecond},
		// Loops: period is 3s, so 3s is segment 0 again.
		{3 * sim.Second, 10 * sim.Millisecond},
		{10 * sim.Second, 20 * sim.Millisecond},
	}
	for _, c := range cases {
		if got := at(c.at); got != c.want {
			t.Errorf("SampleAt(%v) latency = %v, want %v", c.at, got, c.want)
		}
	}
}

func tracePerturberFixture(seed uint64, now *sim.Time) *TracePerturber {
	fed := topology.New(
		topology.Cluster{Name: "a", Nodes: 2, Intra: topology.MyrinetLike()},
		topology.Cluster{Name: "b", Nodes: 2, Intra: topology.MyrinetLike()},
	)
	tr := DefaultTrace()
	fed.SetAllInterLinks(topology.Link{Latency: tr.MinLatency(), Bandwidth: topology.Mbps(10)})
	return NewTracePerturber(tr, fed, seed, func() sim.Time { return *now })
}

// TestTracePerturberDeterministicPerPipe checks the RNG-stream
// discipline: the perturbation sequence a directed pipe sees is a pure
// function of (seed, pipe, traffic order), and every inter message
// reports perturbed (off-batch).
func TestTracePerturberDeterministicPerPipe(t *testing.T) {
	msg := Message{
		Src: topology.NodeID{Cluster: 0, Index: 0},
		Dst: topology.NodeID{Cluster: 1, Index: 0},
	}
	run := func() []sim.Duration {
		var now sim.Time
		p := tracePerturberFixture(7, &now)
		var out []sim.Duration
		for i := 0; i < 200; i++ {
			now = sim.Time(0).Add(sim.Duration(i) * 3 * sim.Second)
			pert, perturbed := p.Perturb(msg, false, 0)
			if !perturbed {
				t.Fatal("inter message not perturbed: it would ride a batch")
			}
			if pert.Extra < 0 {
				t.Fatalf("negative extra %v at step %d", pert.Extra, i)
			}
			out = append(out, pert.Extra)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("perturbation %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
	// Intra traffic is untouched.
	var now sim.Time
	p := tracePerturberFixture(7, &now)
	intra := Message{
		Src: topology.NodeID{Cluster: 0, Index: 0},
		Dst: topology.NodeID{Cluster: 0, Index: 1},
	}
	if _, perturbed := p.Perturb(intra, true, 0); perturbed {
		t.Fatal("intra message perturbed")
	}
}

// TestTracePerturberLossDelaysNotDrops drives the perturber through
// the fixture's lossy segment and checks loss shows up as counted
// retransmission delay, never as a drop.
func TestTracePerturberLossDelaysNotDrops(t *testing.T) {
	now := sim.Time(0).Add(245 * sim.Second) // 5% loss segment of the fixture
	p := tracePerturberFixture(3, &now)
	p.Retransmits = &sim.Counter{}
	msg := Message{
		Src: topology.NodeID{Cluster: 0, Index: 0},
		Dst: topology.NodeID{Cluster: 1, Index: 0},
	}
	seg := p.trace.SampleAt(now)
	if seg.Loss == 0 {
		t.Fatal("fixture segment at 245s should be lossy")
	}
	rto := 2*seg.Latency + seg.Jitter
	var withRetry int
	for i := 0; i < 2000; i++ {
		pert, perturbed := p.Perturb(msg, false, 0)
		if !perturbed {
			t.Fatal("message dropped")
		}
		if pert.Extra >= rto {
			withRetry++
		}
	}
	if withRetry == 0 {
		t.Fatal("no retransmission delays at 5% loss over 2000 sends")
	}
	if p.Retransmits.Value() == 0 {
		t.Fatal("retransmit counter never incremented")
	}
}
