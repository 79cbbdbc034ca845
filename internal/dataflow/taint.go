package dataflow

import (
	"mssp/internal/cfg"
	"mssp/internal/isa"
)

// This file implements the forward taint-propagation analysis behind the
// MV009–MV011 vet rules and the static side of the static-dominates-dynamic
// property checked by internal/taint. The lattice tracks, per program point:
//
//   - the set of registers that may hold secret-derived data,
//   - a per-register value-range approximation (the span sublattice) used to
//     resolve load/store addresses against the program's Secret regions, and
//   - a bounded summary of memory words that may hold secret-derived data.
//
// Sources are loads whose resolved address may intersect a Secret region (or
// a tainted memory summary). Propagation follows register reads into ALU
// results, loads, and stores; calls are summarized as may-read-secrets /
// may-taint-everything. Sinks are judged by internal/vet, not here.
//
// Soundness mirrors the other forward analyses: facts only descend, joins
// are monotone, and an indirect jump degrades every fact to top (every
// register tainted, all memory tainted) because a jalr can land mid-block.

// spanKind discriminates the three levels of the span sublattice.
const (
	spanUnknown = iota // no executable path has produced a value yet
	spanRange          // value provably within [lo, hi] on every path
	spanAny            // unanalyzable or conflicting values
)

// span approximates a register value as an unsigned interval. Joins are
// equal-or-top: two distinct ranges join to spanAny rather than their hull,
// which caps the lattice height at three and keeps loop-carried values from
// diverging. Range facts therefore come only from input-independent
// operations (ldi, masking by a non-negative immediate) and overflow-free
// arithmetic on existing ranges.
type span struct {
	kind uint8
	lo   uint64
	hi   uint64
}

func spanPoint(v uint64) span        { return span{kind: spanRange, lo: v, hi: v} }
func spanBetween(lo, hi uint64) span { return span{kind: spanRange, lo: lo, hi: hi} }

var anySpan = span{kind: spanAny}

// joinSpan is the equal-or-top join of the span sublattice.
func joinSpan(a, b span) span {
	switch {
	case a.kind == spanUnknown:
		return b
	case b.kind == spanUnknown:
		return a
	case a == b:
		return a
	default:
		return anySpan
	}
}

// addSpan is the abstract wrapping addition of two spans; any wraparound in
// the bounds degrades to spanAny.
func addSpan(a, b span) span {
	if a.kind == spanUnknown || b.kind == spanUnknown {
		return span{}
	}
	if a.kind == spanAny || b.kind == spanAny {
		return anySpan
	}
	lo := a.lo + b.lo
	hi := a.hi + b.hi
	if lo < a.lo || hi < a.hi || lo > hi {
		return anySpan
	}
	return spanBetween(lo, hi)
}

// overlaps reports whether the span may take a value in [lo, hi).
func (s span) overlaps(lo, hi uint64) bool {
	switch s.kind {
	case spanUnknown:
		return false
	case spanAny:
		return lo < hi
	default:
		return s.lo < hi && s.hi >= lo
	}
}

// memTaintCap bounds the tainted-memory summary; exceeding it degrades the
// summary to "all memory may be tainted".
const memTaintCap = 16

// memTaint summarizes the memory words that may hold secret-derived data:
// empty, a bounded list of address spans, or top. The spans slice is treated
// as immutable — join and add copy on write — so facts can be shared freely
// across the solver's maps.
type memTaint struct {
	top   bool
	spans []span
}

func (m memTaint) mayHold(addr span) bool {
	if m.top {
		return addr.kind != spanUnknown
	}
	for _, s := range m.spans {
		if s.kind == spanRange && addr.overlaps(s.lo, s.hi+1) {
			return true
		}
	}
	return false
}

// add returns the summary with one more possibly-tainted address span.
func (m memTaint) add(addr span) memTaint {
	switch {
	case m.top || addr.kind == spanUnknown:
		return m
	case addr.kind == spanAny:
		return memTaint{top: true}
	}
	for _, s := range m.spans {
		if s == addr {
			return m
		}
	}
	if len(m.spans) >= memTaintCap {
		return memTaint{top: true}
	}
	return memTaint{spans: append(append([]span(nil), m.spans...), addr)}
}

func joinMem(a, b memTaint) memTaint {
	if a.top || b.top {
		return memTaint{top: true}
	}
	out := a
	for _, s := range b.spans {
		out = out.add(s)
	}
	return out
}

func memEqual(a, b memTaint) bool {
	if a.top != b.top || len(a.spans) != len(b.spans) {
		return false
	}
	for i := range a.spans {
		if a.spans[i] != b.spans[i] {
			return false
		}
	}
	return true
}

// taintFact is the per-point fact of the taint analysis. The zero value is
// the solver bottom: unreachable, nothing tainted, all values unknown.
type taintFact struct {
	// live marks points some entry or root reaches; facts at dead points
	// are vacuous and must not drive findings.
	live bool
	// regs is the set of registers that may hold secret-derived data.
	regs RegSet
	// vals approximates each register's value for address resolution.
	vals [isa.NumRegs]span
	// mem summarizes memory words that may hold secret-derived data.
	mem memTaint
}

func joinFact(a, b taintFact) (taintFact, bool) {
	out := taintFact{
		live: a.live || b.live,
		regs: a.regs.Union(b.regs),
		mem:  joinMem(a.mem, b.mem),
	}
	for r := 1; r < isa.NumRegs; r++ {
		out.vals[r] = joinSpan(a.vals[r], b.vals[r])
	}
	changed := out.live != a.live || out.regs != a.regs || !memEqual(out.mem, a.mem)
	if !changed {
		for r := 1; r < isa.NumRegs; r++ {
			if out.vals[r] != a.vals[r] {
				changed = true
				break
			}
		}
	}
	return out, changed
}

// TaintOptions configures the taint analysis.
type TaintOptions struct {
	// Secret lists the word-address regions loads are tainted by. With no
	// regions the analysis is vacuous: nothing is ever tainted.
	Secret []isa.Region
	// Roots are program counters treated as alternate entry points with
	// arbitrary (but untainted) register state — fork anchors, where slave
	// tasks begin from master checkpoints the analysis cannot see. A root
	// joins arbitrary values into the flow rather than replacing it: a task
	// may run through several anchors (fork spacing, full queues), so taint
	// arriving at an anchor must survive past it.
	Roots []uint64
	// EntryArbitrary treats the program entry's registers as holding
	// arbitrary values instead of the loader's zeroed register file, for
	// programs entered from arbitrary architected state (distilled code).
	EntryArbitrary bool
}

// TaintFacts is a solved taint analysis with per-instruction resolution.
type TaintFacts struct {
	g      *cfg.Graph
	base   uint64
	before []taintCell
}

type taintCell struct {
	regs   RegSet
	live   bool
	source bool
}

// taintAnalysis adapts the taint problem to the generic solver.
type taintAnalysis struct {
	g      *cfg.Graph
	secret []isa.Region
	rootPC map[uint64]bool
	entry  taintFact
}

func (a *taintAnalysis) Direction() Direction { return Forward }
func (a *taintAnalysis) Bottom() taintFact    { return taintFact{} }

func (a *taintAnalysis) Boundary(b *cfg.Block) taintFact {
	if b.Start <= a.g.Prog.Entry && a.g.Prog.Entry < b.End {
		return a.entry
	}
	return taintFact{}
}

func (a *taintAnalysis) Join(x, y taintFact) (taintFact, bool) { return joinFact(x, y) }

func (a *taintAnalysis) Transfer(b *cfg.Block, in taintFact) taintFact {
	f := in
	for pc := b.Start; pc < b.End; pc++ {
		a.step(pc, &f)
	}
	return f
}

// step applies the root join and one instruction's effect at pc. It is
// shared by Transfer and the per-instruction materialization pass.
func (a *taintAnalysis) step(pc uint64, f *taintFact) {
	if a.rootPC[pc] {
		root := taintFact{live: true}
		for r := 1; r < isa.NumRegs; r++ {
			root.vals[r] = anySpan
		}
		*f, _ = joinFact(*f, root)
	}
	stepTaint(a.g.Prog.InstAt(pc), pc, a.secret, f)
}

// readTaint reports whether any register the instruction reads is tainted.
func readTaint(in isa.Inst, f *taintFact) bool {
	if in.Op.ReadsRs1() && f.regs.Has(in.Rs1) {
		return true
	}
	if in.Op.ReadsRs2() && f.regs.Has(in.Rs2) {
		return true
	}
	return false
}

// valOf reads a register's span; r0 is the constant zero.
func valOf(f *taintFact, r uint8) span {
	if r == isa.RegZero {
		return spanPoint(0)
	}
	return f.vals[r]
}

func setVal(f *taintFact, r uint8, s span) {
	if r != isa.RegZero {
		f.vals[r] = s
	}
}

func setTaint(f *taintFact, r uint8, tainted bool) {
	if r == isa.RegZero {
		return
	}
	if tainted {
		f.regs = f.regs.Add(r)
	} else {
		f.regs = f.regs.Remove(r)
	}
}

// secretOverlap reports whether an address span may touch a secret region.
func secretOverlap(addr span, secret []isa.Region) bool {
	for _, r := range secret {
		if addr.overlaps(r.Lo, r.Hi) {
			return true
		}
	}
	return false
}

// loadAddr resolves the effective address span of a load or store at f.
func loadAddr(in isa.Inst, f *taintFact) span {
	return addSpan(valOf(f, in.Rs1), spanPoint(uint64(in.Imm)))
}

// stepTaint applies one instruction's effect on the taint fact.
func stepTaint(in isa.Inst, pc uint64, secret []isa.Region, f *taintFact) {
	if IsCall(in) {
		// Callee summary: the callee may load any secret and may write any
		// register or memory word with the result.
		f.regs = AllRegs
		for r := 1; r < isa.NumRegs; r++ {
			f.vals[r] = anySpan
		}
		f.mem = memTaint{top: true}
		return
	}
	d, hasDef := Def(in)
	switch {
	case in.Op == isa.OpLdi:
		if hasDef {
			setVal(f, d, spanPoint(uint64(in.Imm)))
			setTaint(f, d, false)
		}
	case in.Op == isa.OpLd:
		if hasDef {
			addr := loadAddr(in, f)
			tainted := f.regs.Has(in.Rs1) || secretOverlap(addr, secret) || f.mem.mayHold(addr)
			setVal(f, d, anySpan)
			setTaint(f, d, tainted)
		}
	case in.Op == isa.OpSt:
		if f.regs.Has(in.Rs2) {
			f.mem = f.mem.add(loadAddr(in, f))
		}
	case in.Op == isa.OpJal:
		if hasDef {
			setVal(f, d, spanPoint(pc+1))
			setTaint(f, d, false)
		}
	case hasDef:
		setVal(f, d, aluSpan(in, f))
		setTaint(f, d, readTaint(in, f))
	}
}

// aluSpan approximates an ALU result. Exact for the ALU groups (OpAdd..
// OpMuli) when every operand is a single point (evaluated by isa.ALU);
// otherwise only input-independent or overflow-checked bounds are kept, so
// ranges stay stable across loop back-edges.
func aluSpan(in isa.Inst, f *taintFact) span {
	a := valOf(f, in.Rs1)
	b := spanPoint(uint64(in.Imm))
	if in.Op.ReadsRs2() {
		b = valOf(f, in.Rs2)
	}
	if in.Op >= isa.OpAdd && in.Op <= isa.OpMuli &&
		a.kind == spanRange && a.lo == a.hi && b.kind == spanRange && b.lo == b.hi {
		return spanPoint(isa.ALU(in.Op, a.lo, b.lo))
	}
	switch in.Op {
	case isa.OpLdih:
		return anySpan
	case isa.OpAndi:
		// Masking by a non-negative immediate bounds the result regardless
		// of the input — the idiom that keeps gadget indices analyzable.
		if in.Imm >= 0 {
			return spanBetween(0, uint64(in.Imm))
		}
	case isa.OpAnd:
		// a & b never exceeds either operand (unsigned).
		hi := ^uint64(0)
		if a.kind == spanRange && a.hi < hi {
			hi = a.hi
		}
		if b.kind == spanRange && b.hi < hi {
			hi = b.hi
		}
		if hi != ^uint64(0) {
			return spanBetween(0, hi)
		}
	case isa.OpAdd, isa.OpAddi:
		if in.Op == isa.OpAddi && in.Imm < 0 {
			return anySpan
		}
		return addSpan(a, b)
	case isa.OpSlli:
		if a.kind == spanRange {
			k := uint64(in.Imm) & 63
			if a.hi<<k>>k == a.hi {
				return spanBetween(a.lo<<k, a.hi<<k)
			}
		}
	}
	return anySpan
}

// Taint runs the forward taint analysis over g. With an empty Secret list
// the result is vacuously clean. If the graph has an indirect jump every
// fact degrades to top: all registers tainted at every point.
func Taint(g *cfg.Graph, opts TaintOptions) *TaintFacts {
	tf := &TaintFacts{
		g:      g,
		base:   g.Prog.Code.Base,
		before: make([]taintCell, len(g.Prog.Code.Words)),
	}
	if len(opts.Secret) == 0 {
		return tf
	}
	if g.HasIndirect {
		for i := range tf.before {
			src := g.Prog.InstAt(tf.base+uint64(i)).Op == isa.OpLd
			tf.before[i] = taintCell{regs: AllRegs, live: true, source: src}
		}
		return tf
	}

	a := &taintAnalysis{g: g, secret: opts.Secret, rootPC: make(map[uint64]bool, len(opts.Roots))}
	for _, root := range opts.Roots {
		if g.BlockFor(root) != nil {
			a.rootPC[root] = true
		}
	}
	a.entry.live = true
	for r := uint8(1); r < isa.NumRegs; r++ {
		if opts.EntryArbitrary {
			a.entry.vals[r] = anySpan
		} else {
			a.entry.vals[r] = spanPoint(0)
		}
	}
	// The stack pointer is runtime-seeded even for zeroed entry state.
	a.entry.vals[isa.RegSP] = anySpan

	facts := Solve[taintFact](g, a)

	// Materialize per-instruction facts: rewalk each block from its solved
	// IN fact, recording the fact in force before each instruction (after
	// the root join at that pc — a task entering there sees it too).
	for _, b := range g.Blocks {
		f := facts.In[b.Start]
		for pc := b.Start; pc < b.End; pc++ {
			if a.rootPC[pc] {
				root := taintFact{live: true}
				for r := 1; r < isa.NumRegs; r++ {
					root.vals[r] = anySpan
				}
				f, _ = joinFact(f, root)
			}
			in := g.Prog.InstAt(pc)
			src := false
			if in.Op == isa.OpLd && f.live {
				addr := loadAddr(in, &f)
				src = secretOverlap(addr, opts.Secret) || f.mem.mayHold(addr)
			}
			tf.before[pc-tf.base] = taintCell{regs: f.regs, live: f.live, source: src}
			stepTaint(in, pc, opts.Secret, &f)
		}
	}
	return tf
}

// Reachable reports whether some entry or root reaches pc. Facts at
// unreachable points are vacuous and Before returns the empty set there.
func (f *TaintFacts) Reachable(pc uint64) bool {
	return f.before[pc-f.base].live
}

// Before returns the set of registers that may hold secret-derived data
// immediately before the instruction at pc (empty at unreachable points).
func (f *TaintFacts) Before(pc uint64) RegSet {
	c := f.before[pc-f.base]
	if !c.live {
		return 0
	}
	return c.regs
}

// SourceAt reports whether the instruction at pc is a load that may read a
// secret region or tainted memory — a taint source.
func (f *TaintFacts) SourceAt(pc uint64) bool {
	return f.before[pc-f.base].source
}
