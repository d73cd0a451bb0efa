package federation

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
)

// protocols is the one table that names a protocol: the public
// hc3i.Protocol constants, hc3isim -protocol, the scenario matrix and
// the ablations all resolve a name here. A nil factory is HC3I itself
// (Options.NodeFactory's default).
var protocols = []struct {
	name    string
	factory NodeFactory
}{
	{"hc3i", nil},
	{"force-all", modeFactory(core.ModeForceAll)},
	{"independent", modeFactory(core.ModeIndependent)},
	{"global-coordinated", func(c core.Config, e core.Env, h core.AppHooks, s *sim.Stats) ProtocolNode {
		return baseline.NewGlobalCoordinated(c, e, h, s)
	}},
	{"hier-coordinated", func(c core.Config, e core.Env, h core.AppHooks, s *sim.Stats) ProtocolNode {
		return baseline.NewHierCoord(c, e, h, s)
	}},
	{"pessimistic-log", func(c core.Config, e core.Env, h core.AppHooks, s *sim.Stats) ProtocolNode {
		return baseline.NewPessimisticLog(c, e, h, s)
	}},
}

// modeFactory builds core protocol nodes running in mode m; they count
// through env, not into the registry.
func modeFactory(m core.ProtocolMode) NodeFactory {
	return func(c core.Config, e core.Env, h core.AppHooks, _ *sim.Stats) ProtocolNode {
		c.Mode = m
		return core.NewNode(c, e, h)
	}
}

// ProtocolNames lists the registered protocol names, HC3I first.
func ProtocolNames() []string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.name
	}
	return names
}

// ProtocolFactory resolves a protocol name to its node factory (nil for
// "hc3i"). An unknown name is an error listing the valid ones; it
// carries no package prefix, every caller adds its own.
func ProtocolFactory(name string) (NodeFactory, error) {
	for _, p := range protocols {
		if p.name == name {
			return p.factory, nil
		}
	}
	return nil, fmt.Errorf("unknown protocol %q (have %s)",
		name, strings.Join(ProtocolNames(), ", "))
}
