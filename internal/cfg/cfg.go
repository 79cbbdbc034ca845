// Package cfg builds control-flow graphs over MIR programs and provides the
// reachability, dominator and loop analyses the distiller uses.
//
// The CFG treats direct calls (jal with a link register) specially: the call
// target is a successor, and the instruction after the call is also treated
// as a block leader reachable from the call block, because the callee's
// return transfers control there. Indirect jumps (jalr) other than returns
// have statically unknown targets; a graph containing any such instruction is
// flagged HasIndirect and consumers must be conservative.
package cfg

import (
	"fmt"
	"sort"

	"mssp/internal/isa"
)

// Block is a basic block: a maximal straight-line run of instructions.
type Block struct {
	Start uint64   // address of the first instruction
	End   uint64   // address one past the last instruction
	Succs []uint64 // statically known successor block starts, ascending
	// IsReturn marks blocks ending in jalr r0, ra, 0.
	IsReturn bool
	// HasIndirect marks blocks ending in a jalr whose target is unknown.
	HasIndirect bool
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return int(b.End - b.Start) }

// Graph is a control-flow graph over a program's code segment.
type Graph struct {
	Prog *isa.Program
	// Blocks, ordered by start address.
	Blocks []*Block
	// ByStart maps a block start address to its block.
	ByStart map[uint64]*Block
	// HasIndirect reports whether any block ends in a non-return jalr.
	HasIndirect bool
}

// Build constructs the CFG for p's code segment.
func Build(p *isa.Program) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base, end := p.Code.Base, p.Code.End()

	// Pass 1: find leaders. Every instruction after a block ender is a
	// leader — including after unconditional jumps — so the block list
	// covers the entire code segment. Blocks with no static predecessors
	// are then handled by reachability, which must stay conservative in
	// the presence of indirect jumps: such "orphan" blocks can be jalr
	// targets.
	leaders := map[uint64]bool{p.Entry: true, base: true}
	for pc := base; pc < end; pc++ {
		in := p.InstAt(pc)
		switch {
		case in.Op.IsBranch(), in.Op == isa.OpJal:
			if uint64(in.Imm) < base || uint64(in.Imm) >= end {
				return nil, fmt.Errorf("cfg: control transfer target %d outside code [%d,%d)", in.Imm, base, end)
			}
			leaders[uint64(in.Imm)] = true
		}
		if in.Op.EndsBlock() && pc+1 < end {
			leaders[pc+1] = true
		}
	}
	// Pass 2: slice blocks and record successors.
	starts := make([]uint64, 0, len(leaders))
	for l := range leaders {
		starts = append(starts, l)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	g := &Graph{Prog: p, ByStart: make(map[uint64]*Block, len(starts))}
	for i, start := range starts {
		blockEnd := end
		if i+1 < len(starts) {
			blockEnd = starts[i+1]
		}
		// A block also ends at its first control transfer.
		for pc := start; pc < blockEnd; pc++ {
			if p.InstAt(pc).Op.EndsBlock() {
				blockEnd = pc + 1
				break
			}
		}
		b := &Block{Start: start, End: blockEnd}
		term := p.InstAt(blockEnd - 1)
		switch {
		case term.Op.IsBranch():
			b.Succs = append(b.Succs, uint64(term.Imm))
			if blockEnd < end {
				b.Succs = append(b.Succs, blockEnd)
			}
		case term.Op == isa.OpJal:
			b.Succs = append(b.Succs, uint64(term.Imm))
			if term.Rd != isa.RegZero && blockEnd < end {
				// The callee eventually returns here.
				b.Succs = append(b.Succs, blockEnd)
			}
		case term.Op == isa.OpJalr:
			if term.Rd == isa.RegZero && term.Rs1 == isa.RegRA && term.Imm == 0 {
				b.IsReturn = true
			} else {
				b.HasIndirect = true
				g.HasIndirect = true
				if term.Rd != isa.RegZero && blockEnd < end {
					b.Succs = append(b.Succs, blockEnd) // indirect call returns
				}
			}
		case term.Op == isa.OpHalt:
			// no successors
		default:
			// Fell into the next leader.
			if blockEnd < end {
				b.Succs = append(b.Succs, blockEnd)
			}
		}
		sort.Slice(b.Succs, func(i, j int) bool { return b.Succs[i] < b.Succs[j] })
		b.Succs = dedup(b.Succs)
		g.Blocks = append(g.Blocks, b)
		g.ByStart[start] = b
	}
	return g, nil
}

func dedup(xs []uint64) []uint64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// BlockFor returns the block containing address pc, or nil.
func (g *Graph) BlockFor(pc uint64) *Block {
	i := sort.Search(len(g.Blocks), func(i int) bool { return g.Blocks[i].End > pc })
	if i < len(g.Blocks) && g.Blocks[i].Start <= pc {
		return g.Blocks[i]
	}
	return nil
}

// Reachable returns the set of block start addresses reachable from the
// entry block, following successor edges. If the graph has indirect jumps,
// every block is considered reachable (conservative).
func (g *Graph) Reachable() map[uint64]bool {
	seen := make(map[uint64]bool, len(g.Blocks))
	if g.HasIndirect {
		for _, b := range g.Blocks {
			seen[b.Start] = true
		}
		return seen
	}
	entry := g.BlockFor(g.Prog.Entry)
	var stack []uint64
	push := func(s uint64) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	push(entry.Start)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range g.ByStart[s].Succs {
			push(succ)
		}
	}
	return seen
}

// HaltReach returns the block starts reachable from the entry, and those
// of every block that can reach a halt. An indirect jump may go to any
// address-taken block: one whose address, passed through translate (nil
// keeps it), appears as a data word or as an ldi immediate, or any block
// when none does. A return counts as reaching a halt: the continuation of
// its call site, the call block's successor, is checked there.
func (g *Graph) HaltReach(translate func(uint64) (uint64, bool)) (reach, halts map[uint64]bool) {
	var targets []uint64
	if g.HasIndirect {
		targets = g.addressTaken(translate)
	}
	succs := func(b *Block) []uint64 {
		if b.HasIndirect {
			return append(append([]uint64(nil), b.Succs...), targets...)
		}
		return b.Succs
	}
	entry := g.BlockFor(g.Prog.Entry).Start
	reach = map[uint64]bool{entry: true}
	for stack := []uint64{entry}; len(stack) > 0; {
		b := g.ByStart[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, s := range succs(b) {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	// Descending order carries halting back along forward edges in one
	// pass; back edges take one more pass each.
	halts = map[uint64]bool{}
	for changed := true; changed; {
		changed = false
		for k := len(g.Blocks) - 1; k >= 0; k-- {
			b := g.Blocks[k]
			if halts[b.Start] {
				continue
			}
			ok := b.IsReturn || g.Prog.InstAt(b.End-1).Op == isa.OpHalt
			for _, s := range succs(b) {
				ok = ok || halts[s]
			}
			if ok {
				halts[b.Start] = true
				changed = true
			}
		}
	}
	return reach, halts
}

// addressTaken returns the block starts an indirect jump may reach, as
// HaltReach defines them.
func (g *Graph) addressTaken(translate func(uint64) (uint64, bool)) []uint64 {
	var out []uint64
	taken := func(a uint64) {
		if translate != nil {
			var ok bool
			if a, ok = translate(a); !ok {
				return
			}
		}
		if g.ByStart[a] != nil {
			out = append(out, a)
		}
	}
	for _, seg := range g.Prog.Data {
		for _, w := range seg.Words {
			taken(w)
		}
	}
	for pc := g.Prog.Code.Base; pc < g.Prog.Code.End(); pc++ {
		if in := g.Prog.InstAt(pc); in.Op == isa.OpLdi {
			taken(uint64(in.Imm))
		}
	}
	if len(out) == 0 {
		for _, b := range g.Blocks {
			out = append(out, b.Start)
		}
	}
	return out
}
