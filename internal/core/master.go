package core

import (
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/state"
	"mssp/internal/task"
)

// Master is the master processor both engines run: the distilled program on
// cpu's run loop over a private image (an architected-state snapshot with
// the distilled code copied in), the fork policy, and the checkpoints that
// predict machine state at each taken fork. It never touches architected
// state. A machine owns one Master and reuses it, journal buffers included,
// for every life. Reseed runs on the goroutine that owns architected state;
// Run and Checkpoint then run on one goroutine at a time (Machine calls all
// three inline, the parallel engine runs each life on its own goroutine).
type Master struct {
	dist  *distill.Result
	table *isa.DecodedProgram
	// spacing and cap are Config.MinTaskSpacing and MasterRunaheadCap.
	spacing, cap uint64

	// st is the life's image; its PC is a distilled-program address.
	st   state.State
	code *cpu.Code
	// journal records the pages written since the previous fork, and ckpt
	// builds each fork's checkpoint view from its flushes, one layer per
	// fork in windows of Config.TaskBuffer forks, and counts the words new
	// since the reseed.
	journal mem.Journal
	ckpt    *mem.Layered

	// since counts distilled instructions since the last taken fork.
	since uint64
	// crossings counts dynamic executions of each anchor's FORK since the
	// last taken fork; the count for the taken anchor becomes the task's
	// EndCount so the slave lets the same number of occurrences pass.
	crossings map[uint64]uint64
}

// MasterStop says why Master.Run returned.
type MasterStop uint8

const (
	MasterBudget MasterStop = iota // the step budget ran out; the life goes on
	MasterForked                   // a fork was taken; Checkpoint captures it
	MasterHalted                   // HALT executed, ending the life
	// MasterLost ends the life: the master faulted, jumped to a target with
	// no translation, or ran MasterRunaheadCap instructions without a fork.
	MasterLost
)

// MasterRun reports one Master.Run call.
type MasterRun struct {
	Stop MasterStop // why Run returned
	// Steps counts the distilled instructions retired (a faulting one
	// excluded), Skipped the FORKs MinTaskSpacing skipped.
	Steps, Skipped uint64
	// Anchor is a taken fork's original-program PC and Count the times its
	// FORK was crossed since the previous taken fork (the task's
	// EndCount); both are set only for MasterForked.
	Anchor, Count uint64
}

// NewMaster returns the master for a machine built by Init, over the
// retirer's distilled table.
func (r *Retirer) NewMaster() *Master {
	return &Master{
		dist:      r.Dist,
		table:     r.Tables.Dist,
		spacing:   r.Cfg.MinTaskSpacing,
		cap:       r.Cfg.MasterRunaheadCap,
		ckpt:      mem.NewLayered(r.Cfg.TaskBuffer),
		crossings: make(map[uint64]uint64),
	}
}

// Reseed starts a new life from architected state arch, on the goroutine
// that owns arch. It reports false, starting nothing, when arch's PC does
// not translate into the distilled program.
func (m *Master) Reseed(arch *state.State) bool {
	dpc, ok := m.dist.OrigToDist[arch.PC]
	if !ok {
		return false
	}
	img := arch.Mem.Snapshot()
	img.CopyWords(m.dist.Prog.Code.Base, m.dist.Prog.Code.Words)
	m.st = state.State{Regs: arch.Regs, PC: dpc, Mem: img}
	m.code = cpu.NewCode(m.table) // clean: the image holds fresh code
	m.journal.Attach(img)
	m.ckpt.Reset()
	// The fork at the architected PC starts the first task exactly where
	// architected state stands, so it must be taken whatever the spacing.
	m.since = 1 << 62
	clear(m.crossings)
	return true
}

// Run executes at most budget distilled instructions, stopping early at a
// taken fork or at the end of the life. Indirect-jump targets, which the
// distiller leaves as original-program addresses, are translated on the way.
func (m *Master) Run(budget uint64) (r MasterRun) {
	for r.Steps < budget {
		// Stop no later than the instruction that would overrun the cap.
		n := budget - r.Steps
		if m.since > m.cap {
			n = 1
		} else if left := m.cap - m.since + 1; left < n {
			n = left
		}
		res, err := m.code.RunToStop(&m.st, n)
		r.Steps += res.Steps
		m.since += res.Steps
		if err != nil {
			r.Stop = MasterLost
			return r
		}
		switch res.Kind {
		case cpu.StopHalt:
			r.Stop = MasterHalted
			return r
		case cpu.StopFork:
			m.crossings[res.Anchor]++
			if m.since > m.spacing {
				r.Stop, r.Anchor, r.Count = MasterForked, res.Anchor, m.crossings[res.Anchor]
				m.since = 0
				clear(m.crossings)
				return r
			}
			r.Skipped++
		case cpu.StopJalr:
			// A target with no translation that does not look like
			// distilled code means the master has lost its way.
			if dpc, ok := m.dist.OrigToDist[m.st.PC]; ok {
				m.st.PC = dpc
			} else if !m.dist.Prog.InCode(m.st.PC) {
				r.Stop = MasterLost
				return r
			}
		}
		if m.since > m.cap {
			r.Stop = MasterLost
			return r
		}
	}
	return r
}

// Checkpoint captures the master's prediction at the fork Run just took.
// A word enters the checkpoint's view once its value at a fork differs
// from its value at the previous fork (or the reseed); a store that leaves
// a word's value unchanged adds nothing. The journal's flush finds those
// words in the pages written since the previous fork, and ckpt builds them
// into this fork's layer of the current window's chain and counts the ones
// new since the reseed. The view is that chain over the previous window's
// final layer, and a slave reads every other word from its architected
// snapshot (mem.Layered, task.Checkpoint).
func (m *Master) Checkpoint() task.Checkpoint {
	prev, top, newWords := m.ckpt.Fork(&m.journal)
	return task.Checkpoint{
		Regs:         m.st.Regs,
		Prev:         prev,
		Layers:       top,
		NewDiffWords: newWords,
	}
}
