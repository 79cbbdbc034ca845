// Package fuse implements the superinstruction fusion pass of the fast-path
// execution core (docs/PERFORMANCE.md).
//
// Fuse runs at predecode time: it scans a program's decoded instruction
// table for hot multi-instruction idioms — load+op, op+store, compare+branch
// and the addi-loop back-edge, ldi+op constant forms, and their triple
// combinations — and emits an isa.FusedInst table alongside the instruction
// table. The devirtualized interpreter loop, cpu.runConcrete — which runs
// the SEQ machine, the master and every slave task — then retires a
// whole group per dispatch, eliminating the per-instruction fetch/dispatch
// overhead that dominates the predecoded interpreter's cost.
//
// # Safety
//
// Executing a fused group is defined to be exactly the sequential execution
// of its components: every architectural write happens, in program order, so
// fusion alone never changes machine-visible behavior. The invariants that
// make this hold everywhere:
//
//   - Entries exist only at a group's first pc. Control entering at an
//     interior pc (a branch target, a task start) finds no entry and
//     executes singly.
//   - Components are straight-line register writers, with a conditional
//     branch or store allowed only as the final component. FORK, JAL, JALR,
//     HALT and NOP never fuse, so a RunToStop stop event can never occur
//     mid-group.
//   - Components must be canonical encodings (isa.Encode(Decode(w)) == w),
//     which makes the fused table bijective with the raw words — the
//     msspvet MV008 check.
//   - Task anchor pcs (Options.Anchors) never fall in a group's interior,
//     so a slave counting end-anchor crossings cannot step over one inside
//     a single dispatch. (A capturing run additionally guards its end
//     anchor dynamically — see cpu.Capture; correctness does not depend on
//     the anchor set being complete.)
//   - Executors only take a fused dispatch when the remaining step budget
//     covers the whole group; otherwise the components execute singly, so a
//     budget can expire "mid-group" exactly as it would unfused.
//
// # Elision
//
// With Options.Elide, the pass additionally runs internal/dataflow liveness
// and, for a non-final component whose written register is provably dead —
// not read by a later component of the group, and either overwritten inside
// the group or dead in every execution leaving it — redirects the write to
// r0 (isa.FusedInst.RdA/RdB), eliding it. Liveness is computed with AllRegs
// live at exits and at every FORK (a checkpoint captures the full register
// file), so elision never changes any state an engine can observe at a stop.
//
// Elision is only sound for tables whose executor is never interrupted at an
// arbitrary pc and then externally compared register-by-register: the
// refinement auditor replays commits with a step-bounded runner and diffs
// the full register file, and a step bound can split a group (executing it
// unfused, writes included). The master (core.Master), which both engines
// run, is the one context with no such observer — its register file is
// only read at FORK stops (covered by the checkpoint injection) — so only
// the master's distilled-code table is built with Elide.
package fuse

import (
	"mssp/internal/cfg"
	"mssp/internal/dataflow"
	"mssp/internal/isa"
)

// Options tunes the fusion pass.
type Options struct {
	// Anchors is the set of pcs that must not fall in a fused group's
	// interior: task start/end anchors, where a slave must be able to stop
	// between two instructions. The group's first pc may be an anchor (a
	// task starting there executes the group from its head). Nil is
	// allowed: no pcs are excluded.
	Anchors map[uint64]bool
	// Elide enables liveness-backed dead-write elision (see the package
	// comment for when that is sound). It requires a buildable CFG; when
	// cfg.Build fails, fusion proceeds without elision.
	Elide bool
}

// Predecode decodes p like isa.Predecode and attaches the superinstruction
// table the fusion pass builds. The result is immutable and shared exactly
// like a plain predecoded program.
func Predecode(p *isa.Program, opts Options) *isa.DecodedProgram {
	d := isa.Predecode(p)
	d.SetFused(build(p, d, opts))
	return d
}

// aluClass reports whether op is a straight-line register writer eligible as
// a non-final fused component: the three-register and register-immediate ALU
// groups plus the constant loads (OpAdd..OpLdih).
func aluClass(op isa.Op) bool { return op >= isa.OpAdd && op <= isa.OpLdih }

// build scans the decoded table and emits the fused-group table, or nil when
// no group matched.
func build(p *isa.Program, d *isa.DecodedProgram, opts Options) []isa.FusedInst {
	base, insts, valid, words := d.Table()
	n := len(insts)

	// canon[i]: the word re-encodes from its decoding, so a fused copy of
	// the component is bijective with the raw word (MV008).
	canon := func(i int) bool {
		return valid[i] && isa.Encode(insts[i]) == words[i]
	}
	// interior[i]: pc base+i may be a group interior (not a task anchor).
	interior := func(i int) bool { return !opts.Anchors[base+uint64(i)] }

	var facts *dataflow.LiveFacts
	if opts.Elide {
		if g, err := cfg.Build(p); err == nil {
			facts = dataflow.Live(g, dataflow.LivenessOptions{
				// A FORK checkpoint captures the full register file.
				AtPC: func(pc uint64) dataflow.RegSet {
					if p.InstAt(pc).Op == isa.OpFork {
						return dataflow.AllRegs
					}
					return 0
				},
				// Final architected state is compared word-for-word.
				ExitLive: dataflow.AllRegs,
			})
		}
	}

	var fused []isa.FusedInst
	emit := func(i int, kind isa.FuseKind, size int) {
		if fused == nil {
			fused = make([]isa.FusedInst, n)
		}
		f := &fused[i]
		f.Kind = kind
		f.N = uint8(size)
		f.A, f.B = insts[i], insts[i+1]
		if size == 3 {
			f.C = insts[i+2]
		}
		f.RdA, f.RdB = effectiveRd(f, 0, facts, base+uint64(i)), effectiveRd(f, 1, facts, base+uint64(i))
	}

	for i := 0; i < n; i++ {
		if !canon(i) {
			continue
		}
		// Component predicates for the window starting at i. A position
		// participates only if canonical and (for positions past the first)
		// not an anchor.
		ok := func(k int) bool { return i+k < n && canon(i+k) && (k == 0 || interior(i+k)) }
		alu := func(k int) bool { return ok(k) && aluClass(insts[i+k].Op) }
		br := func(k int) bool { return ok(k) && insts[i+k].Op.IsBranch() }
		ld := func(k int) bool { return ok(k) && insts[i+k].Op == isa.OpLd }
		st := func(k int) bool { return ok(k) && insts[i+k].Op == isa.OpSt }

		switch {
		case ld(0) && alu(1) && st(2):
			emit(i, isa.FuseLdAluSt, 3)
		case ld(0) && alu(1):
			emit(i, isa.FuseLdOp, 2)
		case alu(0) && alu(1) && br(2):
			emit(i, isa.FuseAluAluBr, 3)
		case alu(0) && br(1):
			emit(i, isa.FuseAluBr, 2)
		case alu(0) && st(1):
			emit(i, isa.FuseOpSt, 2)
		case alu(0) && alu(1):
			emit(i, isa.FuseAluAlu, 2)
		}
	}
	return fused
}

// effectiveRd returns the destination register component comp (0 = A, 1 = B)
// should actually write: its architectural rd, or 0 when elision proves the
// written value dead. The final component of a group is never elided.
func effectiveRd(f *isa.FusedInst, comp int, facts *dataflow.LiveFacts, headPC uint64) uint8 {
	group := []isa.Inst{f.A, f.B, f.C}[:int(f.N)]
	in := group[comp]
	if comp == len(group)-1 || !in.Op.HasRd() {
		// B of a pair is the final component; its rd (if any) always lands.
		return in.Rd
	}
	rd := in.Rd
	if facts == nil || rd == 0 {
		return rd
	}
	overwritten := false
	for _, later := range group[comp+1:] {
		if dataflow.Uses(later).Has(rd) {
			return rd // read inside the group: the write must land
		}
		if d, ok := dataflow.Def(later); ok && d == rd {
			overwritten = true
		}
	}
	if overwritten || !facts.After(headPC+uint64(len(group))-1).Has(rd) {
		return 0 // provably dead: elide the write
	}
	return rd
}

// Stat summarizes a fused table's static shape.
type Stat struct {
	// Groups is the number of slots carrying a fused entry.
	Groups int
	// Insts is the total component count over all groups (overlapping
	// groups count their shared instructions once per group).
	Insts int
	// Elided is the number of component writes redirected to r0 by the
	// liveness pass.
	Elided int
	// ByKind counts groups per isa.FuseKind.
	ByKind map[isa.FuseKind]int
}

// Stats computes the static fusion statistics of a predecoded program.
func Stats(d *isa.DecodedProgram) Stat {
	st := Stat{ByKind: make(map[isa.FuseKind]int)}
	for i := range d.FusedTable() {
		f := &d.FusedTable()[i]
		if f.Kind == isa.FuseNone {
			continue
		}
		st.Groups++
		st.Insts += int(f.N)
		st.ByKind[f.Kind]++
		if f.A.Rd != 0 && f.RdA != f.A.Rd {
			st.Elided++
		}
		if f.N == 3 && f.B.Rd != 0 && f.RdB != f.B.Rd {
			st.Elided++
		}
	}
	return st
}
