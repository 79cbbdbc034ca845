// Package dataflow provides the static program analyses the distiller and
// the msspvet linter run over MIR control-flow graphs: a generic worklist
// solver plus concrete register-liveness, may-initialized and taint
// analyses.
//
// All analyses are intraprocedural over cfg.Graph and conservative at every
// point where static knowledge runs out:
//
//   - Calls (jal/jalr with a link register) are summarized, not traced: a
//     call may read and may write every register.
//   - Return blocks and indirect-jump blocks have statically unknown
//     successors, so backward analyses apply an explicit all-bets-off
//     boundary fact there.
//   - A graph containing any indirect jump has statically unknown edges into
//     every instruction (a jalr can land mid-block); forward analyses degrade
//     to their most conservative fact at every point in that case.
//     Transformation passes (internal/distill) refuse to run at all on such
//     graphs.
//
// docs/ANALYSIS.md describes each analysis's lattice and transfer function
// and the soundness contract the distiller's passes build on top.
package dataflow

import "mssp/internal/cfg"

// Direction says which way facts flow through the graph.
type Direction int

// The two dataflow directions.
const (
	// Forward propagates facts from predecessors to successors.
	Forward Direction = iota
	// Backward propagates facts from successors to predecessors.
	Backward
)

// Analysis describes one dataflow problem over fact type F. Solve drives it
// to a fixpoint.
type Analysis[F any] interface {
	// Direction reports which way facts flow.
	Direction() Direction
	// Bottom returns the least-information fact blocks start from.
	Bottom() F
	// Boundary returns the fact joined into a block's input edge facts to
	// account for statically invisible flow: for forward analyses it is
	// joined into IN (entry block, unknown predecessors), for backward
	// analyses into OUT (unknown successors: returns, indirect jumps,
	// program exit).
	Boundary(b *cfg.Block) F
	// Join combines two facts, returning the result and whether it differs
	// from the first argument.
	Join(a, b F) (F, bool)
	// Transfer applies the block's effect to its input-side fact, returning
	// the output-side fact (OUT for forward, IN for backward).
	Transfer(b *cfg.Block, in F) F
}

// Facts is a fixpoint solution: the input-side and output-side fact for
// every block, keyed by block start address. For forward analyses In flows
// into the block top and Out leaves the bottom; for backward analyses Out is
// the fact below the block and In the fact above it.
type Facts[F any] struct {
	// In holds each block's fact at its first instruction.
	In map[uint64]F
	// Out holds each block's fact past its last instruction.
	Out map[uint64]F
}

// Solve runs the worklist algorithm to a fixpoint over all blocks of g,
// reachable or not (facts on unreachable blocks converge from Bottom plus
// their own boundary, which is what a conservative consumer wants).
func Solve[F any](g *cfg.Graph, a Analysis[F]) *Facts[F] {
	n := len(g.Blocks)
	facts := &Facts[F]{In: make(map[uint64]F, n), Out: make(map[uint64]F, n)}
	preds := g.Predecessors()

	// edgesIn lists the blocks whose output-side fact feeds this block's
	// input side: predecessors for forward analyses, successors for
	// backward ones.
	edgesIn := func(b *cfg.Block) []uint64 {
		if a.Direction() == Forward {
			return preds[b.Start]
		}
		return b.Succs
	}

	for _, b := range g.Blocks {
		facts.In[b.Start] = a.Bottom()
		facts.Out[b.Start] = a.Bottom()
	}

	// Worklist seeded with every block; FIFO with membership dedup. Block
	// order follows the direction so typical programs converge in few
	// passes.
	queue := make([]uint64, 0, n)
	queued := make(map[uint64]bool, n)
	push := func(s uint64) {
		if !queued[s] {
			queued[s] = true
			queue = append(queue, s)
		}
	}
	if a.Direction() == Forward {
		for _, b := range g.Blocks {
			push(b.Start)
		}
	} else {
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			push(g.Blocks[i].Start)
		}
	}

	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		queued[s] = false
		b := g.ByStart[s]

		inFact, _ := a.Join(a.Bottom(), a.Boundary(b))
		for _, e := range edgesIn(b) {
			if a.Direction() == Forward {
				inFact, _ = a.Join(inFact, facts.Out[e])
			} else {
				inFact, _ = a.Join(inFact, facts.In[e])
			}
		}

		// Transfer is monotone, so joining the new output-side fact into
		// the stored one both detects convergence and keeps growth
		// monotone even for a non-monotone Transfer bug (the solver then
		// still terminates).
		outFact := a.Transfer(b, inFact)
		if a.Direction() == Forward {
			facts.In[s] = inFact
			merged, changed := a.Join(facts.Out[s], outFact)
			if !changed {
				continue
			}
			facts.Out[s] = merged
			for _, succ := range b.Succs {
				push(succ)
			}
		} else {
			facts.Out[s] = inFact
			merged, changed := a.Join(facts.In[s], outFact)
			if !changed {
				continue
			}
			facts.In[s] = merged
			for _, p := range preds[s] {
				push(p)
			}
		}
	}
	return facts
}
