// Package state defines machine state for the MSSP simulator and the sparse
// state algebra the paradigm's correctness argument rests on.
//
// A State is a full machine state: the register file, the program counter and
// a memory. A Delta is a sparse, partial machine state — a set of (cell,
// value) bindings over registers and memory words — used for task live-in
// sets and task live-out (write) sets.
//
// The two operations connecting them come from the formal MSSP model:
//
//   - superimposition (S ← D): overwrite the cells of S that D binds,
//     leaving the rest of S untouched;
//   - consistency (D ⊑ S): every cell D binds holds the same value in S.
//
// The MSSP commit rule is exactly: if a completed task's live-ins are
// consistent with architected state, superimposing its live-outs advances the
// architected state as sequential execution would ("task safety").
package state

import (
	"fmt"
	"math/bits"

	"mssp/internal/isa"
	"mssp/internal/mem"
)

// State is a full MIR machine state.
type State struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	Mem  *mem.Memory
}

// New returns a zeroed state with an empty memory.
func New() *State {
	return &State{Mem: mem.New()}
}

// NewFromProgram returns the initial state for a program: memory holds the
// code and data image, PC is the entry point, and registers are zero except
// for the stack pointer, which is set to sp.
func NewFromProgram(p *isa.Program, sp uint64) *State {
	s := New()
	s.Mem.CopyWords(p.Code.Base, p.Code.Words)
	for _, seg := range p.Data {
		s.Mem.CopyWords(seg.Base, seg.Words)
	}
	s.PC = p.Entry
	s.Regs[isa.RegSP] = sp
	return s
}

// Clone returns an independent copy of the state. Memory is snapshotted
// copy-on-write, so cloning is cheap.
func (s *State) Clone() *State {
	c := *s
	c.Mem = s.Mem.Snapshot()
	return &c
}

// CloneInto is Clone with the copy's allocations recycled from dst (see
// mem.Memory.SnapshotInto): dst must be a retired state no one else holds,
// and is returned re-seeded with s's registers, PC and a fresh snapshot of
// s's memory. A nil dst (or one without a memory) falls back to Clone.
func (s *State) CloneInto(dst *State) *State {
	if dst == nil || dst.Mem == nil {
		return s.Clone()
	}
	m := s.Mem.SnapshotInto(dst.Mem)
	*dst = State{Regs: s.Regs, PC: s.PC, Mem: m}
	return dst
}

// ReadReg returns the value of register r; register 0 always reads zero.
func (s *State) ReadReg(r int) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return s.Regs[r]
}

// WriteReg sets register r; writes to register 0 are discarded.
func (s *State) WriteReg(r int, v uint64) {
	if r != isa.RegZero {
		s.Regs[r] = v
	}
}

// Equal reports whether two states are architecturally identical.
func (s *State) Equal(o *State) bool {
	return s.Regs == o.Regs && s.PC == o.PC && s.Mem.Equal(o.Mem)
}

// Apply superimposes a delta onto the state in place (S ← D).
// The delta's PC binding, if any, replaces the state's PC.
func (s *State) Apply(d *Delta) {
	for m := d.regPresent; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		s.WriteReg(r, d.Regs[r])
	}
	d.mem.WriteTo(s.Mem)
	if d.HasPC {
		s.PC = d.PC
	}
}

// Consistent reports whether delta d is consistent with the state (d ⊑ S):
// every cell d binds holds the same value in s. A PC binding must match the
// state's PC.
func (s *State) Consistent(d *Delta) bool {
	return s.FirstInconsistency(d) == nil
}

// Inconsistency describes a single cell on which a delta disagrees with a
// state. Cell is "pc", "r<N>" or "m<addr>".
type Inconsistency struct {
	Cell       string
	Delta, Got uint64
}

func (i *Inconsistency) Error() string {
	return fmt.Sprintf("state: %s = %d in state, delta expects %d", i.Cell, i.Got, i.Delta)
}

// FirstInconsistency returns a description of one cell where d disagrees
// with s, or nil if d ⊑ s. Deterministic: registers are checked in index
// order, then PC, then memory in address order.
func (s *State) FirstInconsistency(d *Delta) *Inconsistency {
	// Mask iteration visits registers in ascending index order, preserving
	// the documented determinism.
	for m := d.regPresent; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		if s.ReadReg(r) != d.Regs[r] {
			return &Inconsistency{Cell: fmt.Sprintf("r%d", r), Delta: d.Regs[r], Got: s.ReadReg(r)}
		}
	}
	if d.HasPC && s.PC != d.PC {
		return &Inconsistency{Cell: "pc", Delta: d.PC, Got: s.PC}
	}
	if a, want, got, bad := d.mem.FirstMismatch(s.Mem); bad {
		return &Inconsistency{Cell: fmt.Sprintf("m%d", a), Delta: want, Got: got}
	}
	return nil
}

// Digest returns a short, order-independent fingerprint of the state,
// useful for cheap trajectory comparison in the refinement checker.
func (s *State) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for _, r := range s.Regs {
		mix(r)
	}
	mix(s.PC)
	// Memory contribution must be order-independent: combine per-cell
	// hashes with addition.
	var msum uint64
	empty := mem.New()
	s.Mem.Diff(empty, func(a uint64, v, _ uint64) {
		c := a*prime ^ v
		c *= prime
		msum += c
	})
	mix(msum)
	return h
}

// Dump renders registers and PC for debugging.
func (s *State) Dump() string {
	out := fmt.Sprintf("pc=%d\n", s.PC)
	for r := 0; r < isa.NumRegs; r++ {
		if s.Regs[r] != 0 {
			out += fmt.Sprintf("  r%-2d = %d\n", r, s.Regs[r])
		}
	}
	return out
}
