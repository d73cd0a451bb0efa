package federation

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TapEvents makes every node of a run built from opts show each
// protocol event to tap, stamped with virtual time, once the run's own
// sink (tracer, oracle) has seen it. It takes over opts.NodeFactory.
func TapEvents(opts *Options, tap func(at sim.Time, id topology.NodeID, ev core.Event)) {
	opts.NodeFactory = func(cfg core.Config, env core.Env, hooks core.AppHooks) ProtocolNode {
		t := tapEnv{tap: tap}
		switch env := env.(type) {
		case *nodeEnv:
			t.nodeEnv = env
		case sinkEnv:
			t.nodeEnv, t.sink = env.nodeEnv, env
		}
		return core.NewNode(cfg, t, hooks)
	}
}

type tapEnv struct {
	*nodeEnv
	sink core.EventSink // the run's own sink, nil when it has none
	tap  func(sim.Time, topology.NodeID, core.Event)
}

func (e tapEnv) Event(ev core.Event) {
	if e.sink != nil {
		e.sink.Event(ev)
	}
	e.tap(e.f.engine.Now(), e.id, ev)
}

// CheckInvariants runs the end-of-run invariant checks on demand.
func (f *Fed) CheckInvariants() error { return f.checkInvariants() }
