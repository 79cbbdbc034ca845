package isa

// DecodedProgram is a program's code segment decoded once, up front, into a
// dense instruction table indexed by PC. It is the fast-path fetch unit of
// the simulator: every dynamic instruction executed through a predecoded
// table costs one bounds check and one slice load instead of a memory read
// (a page lookup) plus a Decode.
//
// A DecodedProgram is immutable after Predecode and therefore safe to share
// between any number of concurrent executions. Mutability concerns — a
// store landing in the code segment, which would make the table stale —
// are handled by the one executor, cpu.Code's run loop, which watches store
// addresses and falls back to fetching through memory the moment one hits
// the code segment. MIR programs are not self-modifying, so in
// practice the fallback never triggers; it exists so the fast path is a
// pure optimization with no semantic footprint.
type DecodedProgram struct {
	base  uint64
	insts []Inst
	valid []bool
	words []uint64 // raw instruction words, for fault reporting
	// regs[i] is insts[i]'s register footprint (Inst.Regs), precomputed for
	// executors that log live-ins per dispatch.
	regs []footprint
	// fused, when non-nil, is the superinstruction table built by
	// internal/fuse (see fused.go); attached via SetFused before sharing.
	// fusedRegs holds each group's footprint (see FusedRegsAt).
	fused     []FusedInst
	fusedRegs []footprint
}

// footprint is a register footprint: the read and written register
// bitmasks of an instruction or a fused group.
type footprint struct{ reads, writes uint32 }

// Predecode decodes every instruction word of p's code segment into a dense
// table. Validity is precomputed: executing an entry whose word does not
// decode is a fault without re-decoding.
func Predecode(p *Program) *DecodedProgram {
	d := &DecodedProgram{
		base:  p.Code.Base,
		insts: make([]Inst, len(p.Code.Words)),
		valid: make([]bool, len(p.Code.Words)),
		words: append([]uint64(nil), p.Code.Words...),
		regs:  make([]footprint, len(p.Code.Words)),
	}
	for i, w := range p.Code.Words {
		in := Decode(w)
		d.insts[i] = in
		d.valid[i] = in.Op.Valid()
		d.regs[i].reads, d.regs[i].writes = in.Regs()
	}
	return d
}

// Base returns the word address of the first table entry.
func (d *DecodedProgram) Base() uint64 { return d.base }

// Len returns the number of table entries.
func (d *DecodedProgram) Len() int { return len(d.insts) }

// Covers reports whether addr lies within the predecoded code segment.
func (d *DecodedProgram) Covers(addr uint64) bool {
	return addr-d.base < uint64(len(d.insts))
}

// RegsAt returns the register footprint (Inst.Regs) of table entry i,
// which must be in range.
func (d *DecodedProgram) RegsAt(i uint64) (reads, writes uint32) {
	return d.regs[i].reads, d.regs[i].writes
}

// Table exposes the raw predecode arrays for the tightest interpreter
// loops: the base address and the instruction, validity and word slices,
// all indexed by pc-base. Callers must treat the slices as read-only; the
// table is shared between concurrent executions.
func (d *DecodedProgram) Table() (base uint64, insts []Inst, valid []bool, words []uint64) {
	return d.base, d.insts, d.valid, d.words
}
