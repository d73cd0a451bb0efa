// Package chaos is a seeded adversarial scheduler layered on the
// simulated network (netsim.Perturber): it explores legal-but-nasty
// schedules the plain network model never produces, while staying
// inside the contracts the protocol actually relies on —
//
//   - bounded per-link reordering: inter-cluster messages may overtake
//     each other within the link's declared jitter envelope (the paper
//     only assumes delivery "in an arbitrary but finite laps of time";
//     only the FIFO clamp of the in-order transport is released, never
//     the envelope). Intra-cluster SAN traffic stays strictly FIFO.
//   - duplicate deliveries where the wire contract permits: wrapped
//     application messages and acks (receivers deduplicate by logical
//     identity — the resend machinery already relies on it) and
//     rollback alerts (explicitly idempotent, §3.4).
//   - crash/recover injection targeted at protocol-sensitive windows:
//     a two-phase commit in flight (CLCRequest), a rollback wave in
//     flight (RollbackCmd) or a garbage-collection round gathering
//     reports (GCRequest/GCReport) arms a short fuse that fail-stops
//     one involved node mid-window.
//
// Every decision draws from one seeded stream in deterministic
// simulation order, so a chaos run replays exactly from (options,
// seed) — a failing seed from the matrix or CI reproduces locally with
// `hc3ibench -matrix -filter tier=chaos -chaos-seed N`.
//
// Crash injection respects the paper's fault model ("only one fault
// occurs at a time", §2.1): a global cooldown spaces crashes far
// enough apart for the previous rollback wave to complete and for
// fresh checkpoints to commit, so every schedule stays within what the
// protocol claims to survive — nasty timing, legal fault pattern.
package chaos

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config tunes the adversarial schedule. The zero value of every knob
// selects the default written next to it; Seed alone identifies a
// schedule given fixed options.
type Config struct {
	// Seed drives every chaos decision (reorder draws, duplicate
	// draws, crash fuses). Harnesses derive the stream from it so one
	// integer replays the whole schedule.
	Seed uint64

	// ReorderProb is the probability an inter-cluster message is
	// released from the FIFO clamp with an extra delay drawn from the
	// link's jitter envelope (default 0.25). Links without jitter are
	// never reordered.
	ReorderProb float64
	// DupProb is the probability a duplicate-safe message is delivered
	// twice (default 0.08).
	DupProb float64
	// CrashProb is the probability an observed protocol-sensitive
	// window arms a crash fuse (default 0.015), subject to the global
	// cooldown and MaxCrashes.
	CrashProb float64
	// MaxCrashes caps the injected crashes per run (default 8).
	MaxCrashes int
	// CrashCooldown is the minimum virtual time between two injected
	// crashes (default 6 minutes): long enough for the previous
	// rollback wave to finish and for every cluster to commit a fresh
	// checkpoint, keeping the schedule inside the one-fault-at-a-time
	// model.
	CrashCooldown sim.Duration
	// FuseMax bounds how long after the trigger message the crash
	// fires (default 400ms, drawn uniformly), placing it mid-window:
	// mid-2PC, mid-rollback-wave or mid-GC-round.
	FuseMax sim.Duration

	// OpBudget caps how many perturbation actions (reorder releases,
	// duplicate deliveries, crash fuses) the schedule applies; 0 means
	// unlimited. Every random draw still happens when the budget is
	// exhausted — only the application is suppressed — so a run at
	// budget B applies exactly the first B actions of the unlimited
	// schedule and nothing after them. That prefix property is what the
	// failure auto-minimizer (internal/soak) binary-searches: the
	// smallest B that still reproduces a violation is the shortest
	// reproducing schedule prefix.
	OpBudget int
}

func (c Config) filled() Config {
	if c.ReorderProb == 0 {
		c.ReorderProb = 0.25
	}
	if c.DupProb == 0 {
		c.DupProb = 0.08
	}
	if c.CrashProb == 0 {
		c.CrashProb = 0.015
	}
	if c.MaxCrashes == 0 {
		c.MaxCrashes = 8
	}
	if c.CrashCooldown == 0 {
		c.CrashCooldown = 6 * sim.Minute
	}
	if c.FuseMax == 0 {
		c.FuseMax = 400 * sim.Millisecond
	}
	return c
}

// Hooks connect the scheduler to the harness it perturbs.
type Hooks struct {
	// Now reads the virtual clock.
	Now func() sim.Time
	// CrashAt schedules a fail-stop crash (the harness's failure
	// injector handles detection and restart).
	CrashAt func(at sim.Time, id topology.NodeID)
}

// Scheduler implements netsim.Perturber. One instance serves one run;
// it is as single-threaded as the simulation that drives it.
type Scheduler struct {
	cfg   Config
	rng   *sim.RNG
	hooks Hooks

	crashes   int
	nextCrash sim.Time // earliest time the next fuse may arm
	ops       int      // perturbation actions applied so far
}

// New builds a scheduler drawing from rng (derive it from Config.Seed;
// the scheduler never touches other streams).
func New(cfg Config, rng *sim.RNG, hooks Hooks) *Scheduler {
	return &Scheduler{cfg: cfg.filled(), rng: rng, hooks: hooks}
}

// Crashes reports how many crashes the schedule injected.
func (s *Scheduler) Crashes() int { return s.crashes }

// Ops reports how many perturbation actions the schedule applied so
// far: the unlimited run's final count bounds the minimizer's prefix
// search, a budgeted run's count is min(budget, natural schedule).
func (s *Scheduler) Ops() int { return s.ops }

// spend consumes one unit of the op budget, reporting whether the
// action may be applied. Callers must make every random draw before
// asking — the draw sequence has to match the unlimited schedule's
// exactly up to the budget point, or the budgeted run would not be a
// prefix of it.
func (s *Scheduler) spend() bool {
	if s.cfg.OpBudget > 0 && s.ops >= s.cfg.OpBudget {
		return false
	}
	s.ops++
	return true
}

// Perturb implements netsim.Perturber: one deterministic decision per
// message, in simulation order.
func (s *Scheduler) Perturb(m netsim.Message, intra bool, envelope sim.Duration) (netsim.Perturbation, bool) {
	s.maybeArmCrash(m)
	if intra {
		// The SAN stays FIFO and duplicate-free: the 2PC and replica
		// transfer run on it, and the paper models it as a reliable
		// system-area network.
		return netsim.Perturbation{}, false
	}
	var p netsim.Perturbation
	hit := false
	if envelope > 0 && s.rng.Bool(s.cfg.ReorderProb) {
		extra := s.rng.Uniform(0, envelope)
		if s.spend() {
			p.Extra = extra
			p.Unclamped = true
			hit = true
		}
	}
	if dupSafe(m.Payload) && s.rng.Bool(s.cfg.DupProb) {
		delay := envelope
		if delay <= 0 {
			delay = sim.Millisecond
		}
		after := s.rng.Uniform(sim.Microsecond, delay)
		if s.spend() {
			p.Duplicate = after
			p.DupPayload = dupCopy(m.Payload)
			hit = true
		}
	}
	return p, hit
}

// dupSafe reports whether the wire contract permits delivering this
// payload twice: application messages, their acks and rollback alerts.
// The sender-owned control boxes (core.Box) are never duplicated, since
// a box belongs to exactly one delivery and none of them is
// duplicate-safe.
func dupSafe(payload any) bool {
	switch payload.(type) {
	case *core.AppMsg, core.AppMsg, *core.AppAck, core.AppAck, core.RollbackAlert:
		return true
	}
	return false
}

// dupCopy returns the payload a duplicate of a dupSafe payload must
// carry, called only once the duplicate is injected: a copy of a pooled
// box (*AppMsg, *AppAck), because the harness reclaims a box right
// after its first delivery — including the delta pairs, so the
// duplicate's dependency data never depends on the original's backing
// staying immutable (a whole Piggy vector is immutable and shared) —
// and nil (the original value is shared) for everything else.
func dupCopy(payload any) any {
	switch v := payload.(type) {
	case *core.AppMsg:
		cp := *v
		if len(cp.PiggyPairs) > 0 {
			cp.PiggyPairs = append([]core.DDVPair(nil), v.PiggyPairs...)
		}
		return &cp
	case *core.AppAck:
		cp := *v
		return &cp
	}
	return nil
}

// maybeArmCrash inspects the message for a protocol-sensitive window
// and, with CrashProb and outside the cooldown, schedules a fail-stop
// crash of an involved node on a short fuse.
func (s *Scheduler) maybeArmCrash(m netsim.Message) {
	if s.hooks.CrashAt == nil || s.crashes >= s.cfg.MaxCrashes {
		return
	}
	var victim topology.NodeID
	switch m.Payload.(type) {
	case core.CLCRequest, *core.Box[core.CLCRequest]:
		// The boxed form is what a harness that reclaims boxes sends.
		// Mid-2PC: kill either the participant about to prepare or the
		// leader waiting for acks.
		if s.rng.Bool(0.5) {
			victim = m.Dst
		} else {
			victim = m.Src
		}
	case core.RollbackCmd:
		// Mid-rollback-wave: kill a node that is about to restore — a
		// second fault the coordinator must absorb by restarting the
		// rollback under a fresh epoch.
		victim = m.Dst
	case core.GCRequest, core.GCReport:
		// Mid-GC-round: kill a reporting leader or the initiator while
		// reports are in flight; the round must die without dropping
		// anything.
		victim = m.Dst
	default:
		return
	}
	now := s.hooks.Now()
	if now < s.nextCrash || !s.rng.Bool(s.cfg.CrashProb) {
		return
	}
	at := now.Add(s.rng.Uniform(0, s.cfg.FuseMax))
	if !s.spend() {
		// Budget exhausted: the fuse is drawn but never armed, and the
		// crash counter/cooldown stay untouched — by this point the
		// budgeted run has already applied its whole prefix, so later
		// decisions no longer need to track the unlimited schedule.
		return
	}
	s.crashes++
	s.nextCrash = at.Add(s.cfg.CrashCooldown)
	s.hooks.CrashAt(at, victim)
}
