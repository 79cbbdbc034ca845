package state

import (
	"fmt"
	"math/bits"

	"mssp/internal/isa"
	"mssp/internal/mem"
)

// Delta is a sparse, partial machine state: a set of (cell, value) bindings
// over registers, memory words, and optionally the program counter. It is
// the Go realization of the formal model's "machine state that need not hold
// members for all ISA-visible cells".
//
// Deltas serve two roles in the simulator:
//   - task live-in sets (what a slave read before writing, and from where);
//   - task live-out sets (the writes a task wants to commit).
//
// A delta's memory bindings are one view of a mem.Table: a task's live-in
// and live-out deltas are the two views of the table its slave ran on
// (NewDeltaOver), and a delta built by hand is the live-out view of a
// table of its own (NewDelta).
type Delta struct {
	Regs       [isa.NumRegs]uint64
	regPresent uint32 // bit r set when Regs[r] is bound
	PC         uint64
	HasPC      bool
	mem        mem.View
}

// NewDelta returns an empty delta.
func NewDelta() *Delta { return NewDeltaOver(mem.NewTable().Out()) }

// NewDeltaOver returns a delta with no register or PC bindings whose memory
// bindings are v's.
func NewDeltaOver(v mem.View) *Delta { return &Delta{mem: v} }

// SetReg binds register r to v. Binding register 0 is allowed (it will bind
// the value 0 in well-formed uses) so the algebra stays total.
func (d *Delta) SetReg(r int, v uint64) {
	d.Regs[r] = v
	d.regPresent |= 1 << r
}

// Reg returns the binding for register r and whether it is present.
func (d *Delta) Reg(r int) (uint64, bool) {
	return d.Regs[r], d.regPresent&(1<<r) != 0
}

// SetPC binds the program counter.
func (d *Delta) SetPC(pc uint64) {
	d.PC = pc
	d.HasPC = true
}

// SetMem binds memory word addr to v.
func (d *Delta) SetMem(addr, v uint64) { d.mem.Set(addr, v) }

// MemVal returns the binding for memory word addr and whether it is present.
func (d *Delta) MemVal(addr uint64) (uint64, bool) { return d.mem.Get(addr) }

// RangeMem calls f for every memory binding, in ascending address order,
// until f returns false.
func (d *Delta) RangeMem(f func(addr, v uint64) bool) { d.mem.Range(f) }

// MemBounds returns the lowest and highest bound memory addresses, with ok
// false when no memory word is bound.
func (d *Delta) MemBounds() (lo, hi uint64, ok bool) { return d.mem.Bounds() }

// Len returns the number of bound cells (registers + memory + PC).
func (d *Delta) Len() int {
	n := d.mem.Len() + bits.OnesCount32(d.regPresent)
	if d.HasPC {
		n++
	}
	return n
}

// Empty reports whether the delta binds no cells.
func (d *Delta) Empty() bool { return d.regPresent == 0 && !d.HasPC && d.mem.Len() == 0 }

// Clone returns an independent copy, whose memory bindings are a table of
// its own.
func (d *Delta) Clone() *Delta {
	c := *d
	c.mem = mem.NewTable().Out()
	d.mem.Range(func(a, v uint64) bool {
		c.mem.Set(a, v)
		return true
	})
	return &c
}

// Reset empties the delta in place, reusing its allocations: the register
// file keeps its array (the presence mask hides stale values) and the
// memory table keeps its pages (mem.View.Reset). A delta over one view of a
// table empties the whole table, so the delta over its other view loses its
// memory bindings too. This is what lets the task pool run delta capture
// allocation-free across task lives (docs/MEMORY.md).
func (d *Delta) Reset() {
	d.regPresent = 0
	d.HasPC = false
	d.mem.Reset()
}

// Superimpose overwrites d's bindings with e's (d ← e), returning d.
// Cells bound only in d keep their values; cells bound in e take e's values.
func (d *Delta) Superimpose(e *Delta) *Delta {
	for m := e.regPresent; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		d.SetReg(r, e.Regs[r])
	}
	if e.HasPC {
		d.SetPC(e.PC)
	}
	e.mem.Range(func(a, v uint64) bool {
		d.mem.Set(a, v)
		return true
	})
	return d
}

// ConsistentWith reports whether every cell d binds is bound to the same
// value in e (d ⊑ e over deltas; cells absent from e make the check fail).
func (d *Delta) ConsistentWith(e *Delta) bool {
	for m := d.regPresent; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		v, ok := e.Reg(r)
		if !ok || v != d.Regs[r] {
			return false
		}
	}
	if d.HasPC && (!e.HasPC || d.PC != e.PC) {
		return false
	}
	ok := true
	d.mem.Range(func(a, v uint64) bool {
		ev, present := e.mem.Get(a)
		if !present || ev != v {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Equal reports whether two deltas bind exactly the same cells to the same
// values.
func (d *Delta) Equal(e *Delta) bool {
	return d.ConsistentWith(e) && e.ConsistentWith(d)
}

// String renders the delta deterministically (registers ascending, then PC,
// then memory ascending). Intended for tests and debugging.
func (d *Delta) String() string {
	out := "{"
	sep := ""
	for r := 0; r < isa.NumRegs; r++ {
		if d.regPresent&(1<<r) != 0 {
			out += fmt.Sprintf("%sr%d=%d", sep, r, d.Regs[r])
			sep = " "
		}
	}
	if d.HasPC {
		out += fmt.Sprintf("%spc=%d", sep, d.PC)
		sep = " "
	}
	d.mem.Range(func(a, v uint64) bool {
		out += fmt.Sprintf("%sm%d=%d", sep, a, v)
		sep = " "
		return true
	})
	return out + "}"
}
