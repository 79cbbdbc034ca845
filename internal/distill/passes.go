package distill

import (
	"mssp/internal/cfg"
	"mssp/internal/dataflow"
	"mssp/internal/isa"
	"mssp/internal/profile"
)

// eliminateDeadCode is the DeadCodeElim pass. It nops out, in place and in
// original address space, every surviving def of the pruned program that
// nothing consumes, repeating until nothing changes: each removed def
// deletes uses, which can kill further defs upstream.
//
// A FORK placed before an anchor captures the register file, but the verify
// unit compares only the checkpoint values the slave reads, and a slave
// executes the *original* program from the anchor. So each anchor counts as
// reading exactly the registers live into the original program (g0) there;
// any other register a checkpoint carries can hold anything.
//
// Returns and indirect jumps leave their blocks with every register live,
// so no def that reaches one is removed. Only
// surviving, pure, register-writing instructions are rewritten, and only
// to nop — never a block terminator — so g stays structurally valid while
// its underlying code words change.
func eliminateDeadCode(work *isa.Program, g, g0 *cfg.Graph, survives []bool,
	anchorSet map[uint64]bool, prof *profile.Profile, st *Stats) {
	base := work.Code.Base
	origLive := dataflow.Live(g0, dataflow.LivenessOptions{})
	opts := dataflow.LivenessOptions{AtPC: func(pc uint64) dataflow.RegSet {
		if anchorSet[pc] {
			return origLive.Before(pc)
		}
		return 0
	}}
	for {
		lf := dataflow.Live(g, opts)
		changed := false
		for i, w := range work.Code.Words {
			pc := base + uint64(i)
			if !survives[i] {
				continue
			}
			in := isa.Decode(w)
			if _, ok := dataflow.Def(in); !ok || dataflow.IsCall(in) {
				continue // keep calls and anything without a pure def
			}
			if !lf.DeadDef(pc) {
				continue
			}
			work.Code.Words[i] = isa.Encode(isa.Inst{Op: isa.OpNop})
			st.DCEInsts++
			st.DCEDynSaved += prof.Exec[pc]
			changed = true
		}
		if !changed {
			return
		}
	}
}
