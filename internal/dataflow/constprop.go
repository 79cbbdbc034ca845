package dataflow

import (
	"mssp/internal/cfg"
	"mssp/internal/isa"
)

// Const is a value in the three-point constant lattice: Unknown (no
// executable path has produced a value yet), an exact constant, or Varying
// (conflicting or unanalyzable values). Facts only descend
// Unknown → constant → Varying, which is what guarantees termination.
type Const struct {
	kind uint8 // 0 = unknown, 1 = constant, 2 = varying
	val  uint64
}

const (
	constUnknown = iota
	constValue
	constVarying
)

// Varying is the lattice bottom: the register's value differs across paths
// or is unanalyzable.
var Varying = Const{kind: constVarying}

// ConstOf returns the lattice element for an exact value.
func ConstOf(v uint64) Const { return Const{kind: constValue, val: v} }

// Value returns the exact constant and whether the element is one.
func (c Const) Value() (uint64, bool) { return c.val, c.kind == constValue }

// meet combines two lattice elements.
func meet(a, b Const) Const {
	switch {
	case a.kind == constUnknown:
		return b
	case b.kind == constUnknown:
		return a
	case a.kind == constValue && b.kind == constValue && a.val == b.val:
		return a
	default:
		return Varying
	}
}

// Regs is a register file over the constant lattice.
type Regs [isa.NumRegs]Const

// get reads a register; r0 is the constant zero.
func (v *Regs) get(r uint8) Const {
	if r == isa.RegZero {
		return ConstOf(0)
	}
	return v[r]
}

func (v *Regs) set(r uint8, c Const) {
	if r != isa.RegZero {
		v[r] = c
	}
}

// Equality is a register-equality assumption rs1 == rs2 holding immediately
// after the instruction at its program counter — the residue of a pruned
// biased branch, supplied by the distiller as an (unsound, verified-later)
// seed fact.
type Equality struct {
	// Rs1 and Rs2 are the registers assumed equal.
	Rs1, Rs2 uint8
}

// ConstOptions configures constant propagation.
type ConstOptions struct {
	// Roots are program counters treated as alternate entry points with
	// fully unknown (Varying) register state. The distiller passes every
	// fork anchor: the master can be reseeded at any anchor with
	// architected register values the analysis cannot see.
	Roots []uint64
	// Assume maps an instruction's program counter to an equality that
	// holds immediately after it. Assumptions are refinements: when one
	// side is a known constant the other side adopts it.
	Assume map[uint64]Equality
	// EntryVarying, when true, treats the program entry's registers as
	// Varying rather than the architectural zeros. The distiller sets it:
	// a distilled program starts from arbitrary architected state.
	EntryVarying bool
}

// ConstFacts is a solved conditional-constant-propagation analysis.
type ConstFacts struct {
	g      *cfg.Graph
	base   uint64
	before []Regs
	// executed marks blocks some feasible path reaches. Facts in
	// unexecuted blocks are meaningless (all Unknown) and must not drive
	// rewrites.
	executed map[uint64]bool
}

// Consts runs conditional constant propagation: blocks become executable
// only when a feasible edge reaches them, and a conditional branch with
// exactly-known operands makes only its actual successor feasible.
func Consts(g *cfg.Graph, opts ConstOptions) *ConstFacts {
	f := &ConstFacts{
		g:        g,
		base:     g.Prog.Code.Base,
		before:   make([]Regs, len(g.Prog.Code.Words)),
		executed: make(map[uint64]bool, len(g.Blocks)),
	}

	// An indirect jump can land on any instruction, including mid-block, so
	// no register is a provable constant anywhere and every block may run.
	if g.HasIndirect {
		var allVarying Regs
		for r := 1; r < isa.NumRegs; r++ {
			allVarying[r] = Varying
		}
		for i := range f.before {
			f.before[i] = allVarying
		}
		for _, b := range g.Blocks {
			f.executed[b.Start] = true
		}
		return f
	}

	in := make(map[uint64]*Regs, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b.Start] = &Regs{}
	}

	var queue []uint64
	queued := make(map[uint64]bool)
	push := func(s uint64) {
		if !queued[s] {
			queued[s] = true
			queue = append(queue, s)
		}
	}

	// mergeInto folds vals into the block's IN fact, marking it executable
	// and requeueing it on any change.
	mergeInto := func(s uint64, vals *Regs) {
		dst := in[s]
		changed := !f.executed[s]
		f.executed[s] = true
		for r := 1; r < isa.NumRegs; r++ {
			m := meet(dst[r], vals[r])
			if m != dst[r] {
				dst[r] = m
				changed = true
			}
		}
		if changed {
			push(s)
		}
	}

	varying := &Regs{}
	for r := 1; r < isa.NumRegs; r++ {
		varying[r] = Varying
	}

	entryVals := &Regs{}
	if opts.EntryVarying {
		*entryVals = *varying
	} else {
		// Architectural start: every register zero except the runtime-
		// seeded stack pointer.
		for r := uint8(1); r < isa.NumRegs; r++ {
			entryVals.set(r, ConstOf(0))
		}
		entryVals.set(isa.RegSP, Varying)
	}
	mergeInto(g.BlockFor(g.Prog.Entry).Start, entryVals)
	// A root is an alternate entry with arbitrary register state. It may sit
	// mid-block, so the poison is applied at its exact pc during the block
	// walk below; here the containing block only becomes executable.
	rootPC := make(map[uint64]bool, len(opts.Roots))
	for _, root := range opts.Roots {
		if b := g.BlockFor(root); b != nil {
			rootPC[root] = true
			mergeInto(b.Start, &Regs{})
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		queued[s] = false
		b := g.ByStart[s]

		vals := *in[s]
		for pc := b.Start; pc < b.End; pc++ {
			if rootPC[pc] {
				vals = *varying
			}
			f.before[pc-f.base] = vals
			stepConst(g.Prog.InstAt(pc), &vals)
			if eq, ok := opts.Assume[pc]; ok {
				applyAssume(&vals, eq)
			}
		}

		// Propagate along feasible out-edges.
		term := g.Prog.InstAt(b.End - 1)
		if term.Op.IsBranch() {
			a, aok := vals.get(term.Rs1).Value()
			c, cok := vals.get(term.Rs2).Value()
			if aok && cok {
				// Branch targets are absolute; the not-taken edge falls
				// through to the next block.
				target := b.End
				if isa.Taken(term.Op, a, c) {
					target = uint64(term.Imm)
				}
				for _, succ := range b.Succs {
					if succ == target {
						mergeInto(succ, &vals)
					}
				}
				continue
			}
		}
		for _, succ := range b.Succs {
			mergeInto(succ, &vals)
		}
	}
	return f
}

// applyAssume refines the fact with an equality: if exactly one side is a
// known constant, the other side adopts it.
func applyAssume(vals *Regs, eq Equality) {
	c1, ok1 := vals.get(eq.Rs1).Value()
	c2, ok2 := vals.get(eq.Rs2).Value()
	switch {
	case ok1 && !ok2:
		vals.set(eq.Rs2, ConstOf(c1))
	case ok2 && !ok1:
		vals.set(eq.Rs1, ConstOf(c2))
	}
}

// stepConst applies one instruction's effect on the constant register file.
func stepConst(in isa.Inst, vals *Regs) {
	if IsCall(in) {
		// Callee summary: everything may change.
		for r := uint8(1); r < isa.NumRegs; r++ {
			vals.set(r, Varying)
		}
		return
	}
	d, ok := Def(in)
	if !ok {
		return
	}
	switch in.Op {
	case isa.OpLdi:
		vals.set(d, ConstOf(uint64(in.Imm)))
	case isa.OpLdih:
		if low, ok := vals.get(in.Rs1).Value(); ok {
			vals.set(d, ConstOf(uint64(in.Imm)<<32|low&0xffffffff))
		} else {
			vals.set(d, Varying)
		}
	case isa.OpLd, isa.OpJal, isa.OpJalr:
		vals.set(d, Varying)
	default:
		a, aok := vals.get(in.Rs1).Value()
		b := uint64(in.Imm)
		bok := true
		if in.Op.ReadsRs2() {
			b, bok = vals.get(in.Rs2).Value()
		}
		if aok && bok {
			vals.set(d, ConstOf(isa.ALU(in.Op, a, b)))
			return
		}
		vals.set(d, Varying)
	}
}

// Executed reports whether any feasible path reaches the block containing
// pc. Facts in unexecuted code are vacuous and must not drive rewrites.
func (f *ConstFacts) Executed(pc uint64) bool {
	b := f.g.BlockFor(pc)
	return b != nil && f.executed[b.Start]
}

// Before returns the constant-lattice value of register r immediately
// before the instruction at pc.
func (f *ConstFacts) Before(pc uint64, r uint8) Const {
	if r == isa.RegZero {
		return ConstOf(0)
	}
	return f.before[pc-f.base][r]
}

// ResultAt returns the exact constant the instruction at pc computes into
// its destination register, if the analysis proves one on every feasible
// path reaching it. Only pure register-writing instructions qualify (loads,
// calls and control transfers never do).
func (f *ConstFacts) ResultAt(pc uint64) (reg uint8, val uint64, ok bool) {
	if !f.Executed(pc) {
		return 0, 0, false
	}
	in := f.g.Prog.InstAt(pc)
	d, okd := Def(in)
	if !okd || IsCall(in) || in.Op == isa.OpLd || in.Op == isa.OpJal || in.Op == isa.OpJalr {
		return 0, 0, false
	}
	vals := f.before[pc-f.base]
	stepConst(in, &vals)
	v, okv := vals.get(d).Value()
	return d, v, okv
}
