package core

import "mssp/internal/distill"

// ForkGate is the master's fork policy, shared by both engines' masters:
// crossing counts, MinTaskSpacing, indirect-jump translation and the
// run-ahead cap. A master life owns one gate; only the instruction loop
// that feeds it differs between engines.
type ForkGate struct {
	spacing, cap uint64
	dist         *distill.Result
	// since counts distilled instructions since the last taken fork.
	since uint64
	// crossings counts dynamic executions of each anchor's FORK since the
	// last taken fork; the count for the taken anchor becomes the task's
	// EndCount so the slave lets the same number of occurrences pass.
	crossings map[uint64]uint64
}

// NewForkGate returns the gate for a fresh master life running dist under
// cfg. The master restarts on the fork at the architected PC, which must be
// taken unconditionally — it starts the first post-reseed task exactly
// where architected state stands — so the spacing counter is primed past
// any threshold.
func NewForkGate(cfg *Config, dist *distill.Result) ForkGate {
	return ForkGate{
		spacing:   cfg.MinTaskSpacing,
		cap:       cfg.MasterRunaheadCap,
		dist:      dist,
		since:     1 << 62,
		crossings: make(map[uint64]uint64),
	}
}

// Retire counts n distilled instructions the master retired.
func (g *ForkGate) Retire(n uint64) { g.since += n }

// Budget returns how many instructions the master may retire, at most max,
// before Overrun must be checked again.
func (g *ForkGate) Budget(max uint64) uint64 {
	if g.since > g.cap {
		return 1
	}
	if left := g.cap - g.since + 1; left < max {
		return left
	}
	return max
}

// Overrun reports that the master ran more than MasterRunaheadCap
// instructions without taking a fork: it is stuck in a loop the distiller
// broke and is lost.
func (g *ForkGate) Overrun() bool { return g.since > g.cap }

// Fork decides the FORK at anchor a the master just retired: taken is
// false when MinTaskSpacing skips it (Metrics.ForksSkipped). For a taken
// fork, count is the number of times a was crossed since the previous taken
// fork (the task's EndCount).
func (g *ForkGate) Fork(a uint64) (taken bool, count uint64) {
	g.crossings[a]++
	if g.since <= g.spacing {
		return false, 0
	}
	g.since = 0
	count = g.crossings[a]
	clear(g.crossings)
	return true, count
}

// Jump translates the target of a retired indirect jump. Targets in
// distilled code are original-program addresses (the distiller predicts
// original link values), so they map into the distilled address space; a
// target with no translation that does not look like distilled code means
// the master has lost its way (ok false).
func (g *ForkGate) Jump(target uint64) (pc uint64, ok bool) {
	if dpc, ok := g.dist.OrigToDist[target]; ok {
		return dpc, true
	}
	return target, g.dist.Prog.InCode(target)
}
