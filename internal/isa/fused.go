package isa

// Superinstruction (fusion) support: a DecodedProgram can carry a parallel
// dense table of fused instruction groups, built by internal/fuse and
// consumed by the devirtualized interpreter loop (cpu.runConcrete, which
// also runs slave tasks).
//
// A fused entry at pc describes a group of 2–3 consecutive instructions that
// an executor may retire in a single dispatch. Entries exist only at a
// group's first pc: control entering at an interior pc finds no entry there
// and executes the instructions singly, so jumps into the middle of a group
// need no special handling. Groups may overlap textually — each entry is
// self-contained — and executing a group is defined to be exactly equivalent
// to executing its components in order (every architectural write is
// performed, in program order, unless the builder proved it dead and elided
// it; see FusedInst.RdA).

// FuseKind enumerates the superinstruction shapes the fusion pass emits.
type FuseKind uint8

const (
	// FuseNone marks a slot with no fused group starting at it.
	FuseNone FuseKind = iota
	// FuseAluAlu fuses two adjacent straight-line register writers
	// (OpAdd..OpLdih), covering the ldi+op constant forms.
	FuseAluAlu
	// FuseAluBr fuses a register writer with a conditional branch:
	// compare+branch and the addi-loop back-edge idiom.
	FuseAluBr
	// FuseAluAluBr fuses two register writers and a conditional branch —
	// one dispatch per iteration of a tight counted loop.
	FuseAluAluBr
	// FuseLdOp fuses a load with a following register writer.
	FuseLdOp
	// FuseOpSt fuses a register writer with a following store.
	FuseOpSt
	// FuseLdAluSt fuses a load, a register writer and a store: the
	// read-modify-write idiom.
	FuseLdAluSt
)

// String names the fuse kind for stats and vet findings.
func (k FuseKind) String() string {
	switch k {
	case FuseNone:
		return "none"
	case FuseAluAlu:
		return "alu+alu"
	case FuseAluBr:
		return "alu+br"
	case FuseAluAluBr:
		return "alu+alu+br"
	case FuseLdOp:
		return "ld+op"
	case FuseOpSt:
		return "op+st"
	case FuseLdAluSt:
		return "ld+op+st"
	}
	return "fuse(?)"
}

// FusedInst is one superinstruction: 2–3 consecutive decoded instructions
// retired in a single dispatch. A, B and (for triples) C are verbatim copies
// of the decoded components in program order — re-encoding them must
// reproduce the original instruction words (the MV008 bijection invariant),
// so elision is expressed separately through RdA/RdB rather than by editing
// the copies.
type FusedInst struct {
	// Kind selects the executor's handler; FuseNone means no group here.
	Kind FuseKind
	// N is the component count (2 or 3): the step-count advance of one
	// dispatch and the budget the executor must have left to take it.
	N uint8
	// RdA and RdB are the effective destination registers of components A
	// and B. Normally RdA == A.Rd (likewise B); a builder running with
	// liveness-backed elision sets one to 0 when the component's written
	// value is provably dead, turning the write into a discarded r0 write
	// with no extra dispatch cost. The final component is never elided.
	RdA, RdB uint8
	// A, B, C are the decoded components in program order; C is the zero
	// Inst for pairs.
	A, B, C Inst
}

// SetFused attaches a fused-group table to the program, indexed like the
// instruction table (slot i describes the group starting at Base()+i). It
// must be called before the DecodedProgram is shared between executions;
// after that the table is immutable like the rest of the program. The table
// must be nil or exactly Len() entries.
func (d *DecodedProgram) SetFused(fused []FusedInst) {
	if fused != nil && len(fused) != len(d.insts) {
		panic("isa: fused table length does not match instruction table")
	}
	d.fused, d.fusedRegs = fused, nil
	if fused != nil {
		d.fusedRegs = make([]footprint, len(fused))
		for i := range fused {
			if fused[i].Kind != FuseNone {
				d.fusedRegs[i].reads, d.fusedRegs[i].writes = fused[i].regs()
			}
		}
	}
}

// FusedRegsAt returns the register footprint of the group at fused-table
// slot i, which must be in range: its components' Inst.Regs composed in
// program order, so a register a component reads after an earlier
// component wrote it is not a read of the group, with writes going to the
// effective destinations RdA and RdB.
func (d *DecodedProgram) FusedRegsAt(i uint64) (reads, writes uint32) {
	return d.fusedRegs[i].reads, d.fusedRegs[i].writes
}

// regs computes the group footprint FusedRegsAt reports.
func (f *FusedInst) regs() (reads, writes uint32) {
	a, b := f.A, f.B
	a.Rd, b.Rd = f.RdA, f.RdB
	reads, writes = a.Regs()
	r, w := b.Regs()
	reads, writes = reads|r&^writes, writes|w
	if f.N == 3 {
		r, w = f.C.Regs()
		reads, writes = reads|r&^writes, writes|w
	}
	return reads, writes
}

// FusedTable returns the fused-group table, nil when no fusion pass ran.
// Callers must treat it as read-only; it is shared like the tables Table
// exposes.
func (d *DecodedProgram) FusedTable() []FusedInst { return d.fused }
