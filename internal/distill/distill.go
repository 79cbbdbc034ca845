// Package distill produces distilled programs: speculatively optimized,
// possibly-incorrect approximations of an original MIR program, executed by
// the MSSP master processor to run ahead of the architected execution.
//
// The distiller applies the transformation classes of the original MSSP
// work that are meaningful on this substrate:
//
//   - Biased-branch pruning: a conditional branch whose profiled taken
//     fraction is at least the bias threshold becomes an unconditional jump;
//     one whose taken fraction is at most (1 - threshold) becomes a nop.
//     This is deliberately unsound — the pruned-away path can occur on the
//     reference input — and is the distiller's primary source of both
//     speedup (enabling cold-code removal) and misspeculation.
//   - Cold-code elimination: blocks unreachable after pruning are dropped.
//   - Task-marker insertion: a FORK instruction is placed before each
//     surviving profile anchor; its immediate is the anchor's original PC.
//   - Link-value preservation: calls in distilled code must predict
//     original-program return addresses (return addresses flow through
//     registers and memory into checkpoints), so "jal rd, f" is rewritten to
//     "ldi rd, <original return pc>; j f'", and similarly for indirect
//     calls. Returns and other indirect jumps then carry original-program
//     addresses, which the master translates through the Result.OrigToDist
//     map at run time.
//
// Correctness of the overall machine never depends on any of this: a
// distilled program is a hint generator, and the verify/commit unit catches
// every divergence.
package distill

import (
	"fmt"
	"sort"

	"mssp/internal/cfg"
	"mssp/internal/isa"
	"mssp/internal/profile"
)

// Options configures distillation.
type Options struct {
	// BiasThreshold is the minimum profiled taken (or not-taken) fraction
	// at which a conditional branch is pruned. 1.0 disables pruning
	// (nothing is that biased except never/always-taken branches).
	// Must be in (0.5, 1.0].
	BiasThreshold float64
	// MinBranchCount is the minimum profiled execution count for a branch
	// to be eligible for pruning. Branches seen fewer times are kept.
	MinBranchCount uint64

	// DeadCodeElim runs the analysis-driven pass on the pruned program
	// before layout, using the internal/dataflow liveness analysis: it
	// removes instructions whose results are never consumed, to a
	// fixpoint. A FORK counts as reading only the registers that are live
	// into the *original* program at its anchor, because the verify unit
	// compares just the checkpoint values the slave actually reads, and a
	// slave executes the original program from the anchor. Indirect jumps
	// need no special case: liveness treats return and indirect blocks as
	// boundaries where every register is live. docs/ANALYSIS.md states the
	// exact soundness contract.
	DeadCodeElim bool
}

// DefaultOptions returns the configuration used by the paper-shaped
// experiments: prune branches at 99% bias seen at least 16 times.
func DefaultOptions() Options {
	return Options{BiasThreshold: 0.99, MinBranchCount: 16}
}

// Stats describes what distillation did to the program.
type Stats struct {
	OrigInsts       int     // instructions in the original code segment
	DistInsts       int     // instructions in the distilled code segment
	PrunedToJump    int     // branches rewritten to unconditional jumps
	PrunedToNop     int     // branches rewritten to fall-through
	DroppedInsts    int     // instructions removed as unreachable
	Forks           int     // FORK markers inserted
	CallExpansions  int     // calls expanded to preserve original link values
	DroppedAnchors  int     // profile anchors that fell in dropped code
	PreservedExits  int     // biased branches kept to preserve loop exits
	ElidedNops      int     // nops (incl. pruned branches) removed in layout
	StaticCodeRatio float64 // DistInsts / OrigInsts

	// Analysis-pass effects (zero unless Options.DeadCodeElim is on). The
	// dynamic estimate weights each removed instruction by its training-
	// profile execution count: it estimates master instructions saved per
	// training run, not a guarantee about other inputs.
	DCEInsts    int    // instructions removed as never-live
	DCEDynSaved uint64 // estimated dynamic executions those removals save
}

// Result is a distilled program plus the metadata the master processor needs
// to run it.
type Result struct {
	// Prog is the distilled program: the rewritten code segment (same base
	// address) with the original data segments.
	Prog *isa.Program
	// OrigToDist maps each surviving original code address to its distilled
	// address. For anchored addresses this is the address of the FORK
	// marker, so control transfers into an anchor (including master
	// restarts) execute the fork. The master also uses this map to
	// translate indirect-jump targets, which are original-program
	// addresses, into distilled addresses.
	OrigToDist map[uint64]uint64
	// Anchors is the set of surviving task-boundary original PCs,
	// ascending. Task starts, master restarts and sequential-fallback
	// stopping points are always members of this set.
	Anchors []uint64
	// Stats describes the transformation.
	Stats Stats

	// tables holds the engine tables built from this distillation
	// (Tables, AnchorSet).
	tables tableMemo
}

// Distill produces a distilled program from an original program and a
// training profile.
func Distill(p *isa.Program, prof *profile.Profile, opts Options) (*Result, error) {
	if opts.BiasThreshold <= 0.5 || opts.BiasThreshold > 1.0 {
		return nil, fmt.Errorf("distill: BiasThreshold %v outside (0.5, 1.0]", opts.BiasThreshold)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("distill: %w", err)
	}

	work := p.Clone()
	var st Stats
	st.OrigInsts = len(work.Code.Words)

	// Loop structure of the original program, for the loop-exit safeguard.
	g0, err := cfg.Build(p)
	if err != nil {
		return nil, fmt.Errorf("distill: %w", err)
	}
	loops := g0.NaturalLoops()
	// innermostLoop returns the smallest natural loop containing the block
	// that holds pc, or nil.
	innermostLoop := func(pc uint64) *cfg.Loop {
		b := g0.BlockFor(pc)
		if b == nil {
			return nil
		}
		var best *cfg.Loop
		for _, l := range loops {
			if !l.Blocks[b.Start] {
				continue
			}
			if best == nil || len(l.Blocks) < len(best.Blocks) {
				best = l
			}
		}
		return best
	}

	// Pass 1: biased-branch pruning on a copy of the code.
	var pruned []prunedBranch
	base := work.Code.Base
	for i := range work.Code.Words {
		pc := base + uint64(i)
		in := isa.Decode(work.Code.Words[i])
		if !in.Op.IsBranch() {
			continue
		}
		frac, total := prof.Bias(pc)
		if total < opts.MinBranchCount {
			continue
		}
		var rewrite isa.Inst
		var coldSucc uint64 // the successor the rewrite discards
		switch {
		case frac >= opts.BiasThreshold:
			rewrite = isa.Inst{Op: isa.OpJal, Rd: isa.RegZero, Imm: in.Imm}
			coldSucc = pc + 1
		case 1-frac >= opts.BiasThreshold:
			rewrite = isa.Inst{Op: isa.OpNop}
			coldSucc = uint64(in.Imm)
		default:
			continue
		}
		// A branch whose discarded side leaves its innermost natural loop
		// stays: long-running loops are always maximally biased toward
		// iterating, and discarding their exits turns the distilled program
		// into an infinite loop that can only make progress through
		// squash/recovery. Real distillers preserve loop convergence the
		// same way.
		if l := innermostLoop(pc); l != nil {
			coldBlock := g0.BlockFor(coldSucc)
			if coldBlock != nil && !l.Blocks[coldBlock.Start] {
				st.PreservedExits++
				continue // discarding this side would drop a loop exit
			}
		}
		pruned = append(pruned, prunedBranch{pc: pc, word: work.Code.Words[i], cold: coldSucc})
		work.Code.Words[i] = isa.Encode(rewrite)
		if rewrite.Op == isa.OpNop {
			st.PrunedToNop++
		} else {
			st.PrunedToJump++
		}
	}

	// The safeguard's post-condition: every block the pruned program can
	// reach can still reach a halt. NaturalLoops misses a loop entered only
	// through an indirect jump, so restore pruned exits until it holds.
	// The post-condition does not replace pass 1's check: it keeps only
	// enough exits to halt, not every loop's own. Alone, it changes the
	// distilled programs of nine of the eleven workloads (all but anneal
	// and matmul) at Train and Ref, at some threshold from 0.9 to 1, and
	// those of 1,350 of the chaos seeds 1–4000; mtf at 0.95 keeps 9 of its
	// 60 instructions where the check keeps 46.
	var g *cfg.Graph
	for {
		if g, err = cfg.Build(work); err != nil {
			return nil, fmt.Errorf("distill: rewritten program: %w", err)
		}
		k := strandedExit(g, pruned)
		if k < 0 {
			break
		}
		b := pruned[k]
		if isa.Decode(work.Code.Words[b.pc-base]).Op == isa.OpNop {
			st.PrunedToNop--
		} else {
			st.PrunedToJump--
		}
		work.Code.Words[b.pc-base] = b.word
		st.PreservedExits++
		pruned = append(pruned[:k], pruned[k+1:]...)
	}

	// Pass 2: find surviving instructions (cold-code elimination).
	survives := make([]bool, len(work.Code.Words))
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b.Start] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			survives[pc-base] = true
		}
	}
	for i := range survives {
		if !survives[i] {
			st.DroppedInsts++
		}
	}

	// Anchors that survive; entry is always an anchor so the machine's
	// very first task starts at a fork point.
	anchorSet := map[uint64]bool{p.Entry: true}
	for _, a := range prof.Anchors {
		if a >= base && a < work.Code.End() && survives[a-base] {
			anchorSet[a] = true
		} else {
			st.DroppedAnchors++
		}
	}

	// Analysis pass: liveness-driven dead-code removal on the pruned
	// program, in original address space. It only replaces non-terminator
	// instructions with nops, so g's block structure stays valid and the
	// layout pass below compacts the new nops exactly like pruned branches.
	if opts.DeadCodeElim {
		eliminateDeadCode(work, g, g0, survives, anchorSet, prof, &st)
	}

	// Pass 3: layout. Compute each surviving instruction's distilled size.
	// NOPs — including branches just pruned to fall-through — are elided:
	// their addresses map to wherever the following instruction lands,
	// which is exactly their fall-through semantics.
	size := func(pc uint64, in isa.Inst) int {
		if in.Op == isa.OpNop && !anchorSet[pc] {
			return 0
		}
		n := 1
		if in.Op == isa.OpNop {
			n = 0 // anchored nop keeps only its fork marker
		}
		if anchorSet[pc] {
			n++
		}
		expandedCall := (in.Op == isa.OpJal || in.Op == isa.OpJalr) && in.Rd != isa.RegZero &&
			!(in.Op == isa.OpJalr && in.Rd == in.Rs1)
		if expandedCall {
			n++ // ldi rd, <orig return> prefix
		}
		return n
	}
	origToDist := make(map[uint64]uint64)
	distPC := base
	for i, w := range work.Code.Words {
		if !survives[i] {
			continue
		}
		pc := base + uint64(i)
		origToDist[pc] = distPC
		distPC += uint64(size(pc, isa.Decode(w)))
	}

	// Pass 4: emit, remapping control-flow targets.
	code := make([]uint64, 0, distPC-base)
	emit := func(in isa.Inst) {
		code = append(code, isa.Encode(in))
	}
	for i, w := range work.Code.Words {
		if !survives[i] {
			continue
		}
		pc := base + uint64(i)
		in := isa.Decode(w)
		if anchorSet[pc] {
			emit(isa.Inst{Op: isa.OpFork, Imm: int64(pc)})
			st.Forks++
		}
		if in.Op == isa.OpNop {
			st.ElidedNops++
			continue
		}
		switch {
		case in.Op.IsBranch() || (in.Op == isa.OpJal && in.Rd == isa.RegZero):
			target, ok := origToDist[uint64(in.Imm)]
			if !ok {
				return nil, fmt.Errorf("distill: surviving %v at %d targets dropped code", in, pc)
			}
			in.Imm = int64(target)
			emit(in)
		case in.Op == isa.OpJal: // direct call: preserve original link value
			target, ok := origToDist[uint64(in.Imm)]
			if !ok {
				return nil, fmt.Errorf("distill: surviving call at %d targets dropped code", pc)
			}
			emit(isa.Inst{Op: isa.OpLdi, Rd: in.Rd, Imm: int64(pc + 1)})
			emit(isa.Inst{Op: isa.OpJal, Rd: isa.RegZero, Imm: int64(target)})
			st.CallExpansions++
		case in.Op == isa.OpJalr && in.Rd != isa.RegZero && in.Rd != in.Rs1: // indirect call
			emit(isa.Inst{Op: isa.OpLdi, Rd: in.Rd, Imm: int64(pc + 1)})
			emit(isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: in.Rs1, Rs2: in.Rs2, Imm: in.Imm})
			st.CallExpansions++
		case in.Op == isa.OpJalr && in.Rd == in.Rs1:
			// The link register is also the jump base, so the original
			// link value cannot be materialized first. Keep the raw jalr:
			// the link prediction will be a distilled address, a known
			// distillation unsoundness the verify unit catches if the
			// value ever reaches architected state.
			emit(in)
		default:
			emit(in)
		}
	}
	st.DistInsts = len(code)
	if st.OrigInsts > 0 {
		st.StaticCodeRatio = float64(st.DistInsts) / float64(st.OrigInsts)
	}

	dist := &isa.Program{
		Entry:   origToDist[p.Entry],
		Code:    isa.Segment{Base: base, Words: code},
		Data:    work.Data,
		Symbols: work.Symbols,
		Secret:  work.Secret,
	}
	// The distilled image must not collide with data.
	for _, seg := range dist.Data {
		if seg.Base < dist.Code.End() && dist.Code.Base < seg.End() {
			return nil, fmt.Errorf("distill: distilled code [%d,%d) overlaps data segment at %d",
				dist.Code.Base, dist.Code.End(), seg.Base)
		}
	}
	if err := dist.Validate(); err != nil {
		return nil, fmt.Errorf("distill: produced invalid program: %w", err)
	}

	anchors := make([]uint64, 0, len(anchorSet))
	for a := range anchorSet {
		anchors = append(anchors, a)
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i] < anchors[j] })

	return &Result{Prog: dist, OrigToDist: origToDist, Anchors: anchors, Stats: st}, nil
}

// prunedBranch is a branch pass 1 rewrote: its address, its original
// word, and the successor the rewrite discarded.
type prunedBranch struct {
	pc, word, cold uint64
}

// strandedExit returns the index in pruned of the exit to restore for the
// halt post-condition, or -1 when it holds or no exit can help. The pruned
// program strands a block when it reaches the block from its entry but
// the block can reach no halt (cfg.Graph.HaltReach). The exit restored is
// the lowest-addressed pruned branch in a stranded block whose discarded
// successor can reach a halt.
func strandedExit(g *cfg.Graph, pruned []prunedBranch) int {
	reach, halts := g.HaltReach(nil)
	for k, p := range pruned { // in address order
		b, cold := g.BlockFor(p.pc).Start, g.BlockFor(p.cold)
		if reach[b] && !halts[b] && cold != nil && halts[cold.Start] {
			return k
		}
	}
	return -1
}
