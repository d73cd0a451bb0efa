package federation

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TapEvents makes every node of a run built from opts show each
// protocol event to tap, stamped with virtual time, once the run's own
// sink (statistics, tracer, oracle) has seen it. It takes over opts.NodeFactory.
func TapEvents(opts *Options, tap func(at sim.Time, id topology.NodeID, ev core.Event)) {
	opts.NodeFactory = func(cfg core.Config, env core.Env, hooks core.AppHooks, _ *sim.Stats) ProtocolNode {
		return core.NewNode(cfg, tapEnv{env.(*nodeEnv), tap}, hooks)
	}
}

type tapEnv struct {
	*nodeEnv
	tap func(sim.Time, topology.NodeID, core.Event)
}

func (e tapEnv) Event(ev core.Event) {
	e.nodeEnv.Event(ev)
	e.tap(e.f.engine.Now(), e.id, ev)
}

// CheckInvariants runs the end-of-run invariant checks on demand.
func (f *Fed) CheckInvariants() error { return f.checkInvariants() }
