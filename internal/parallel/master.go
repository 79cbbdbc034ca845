package parallel

import (
	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/mem"
	"mssp/internal/state"
	"mssp/internal/task"
)

// masterLife is one incarnation of the master processor: a goroutine running
// the distilled program from a reseed point until it halts, gets lost, or is
// stopped by a squash. The coordinator owns the life's creation (it builds
// the memory image, so every architected-family snapshot the coordinator
// depends on stays ordered) and its teardown (close stop, then receive the
// exit report).
//
// Channel discipline: forkCh is unbuffered, so a fork either transfers
// synchronously to the coordinator or the master sees stop — a squashed
// life can never leave a stale fork buffered. exitCh has capacity one, so
// the master can always report its end and exit without waiting for the
// coordinator.
type masterLife struct {
	forkCh chan forkMsg
	exitCh chan masterExit
	stop   chan struct{}

	// st is the master's private machine state: distilled code overlaid on
	// an architected-memory snapshot as of the reseed. Master-goroutine
	// confined after the spawn handoff.
	st   *state.State
	code *cpu.Code
	// gate is the life's fork policy, master-goroutine confined after the
	// spawn handoff.
	gate core.ForkGate
}

// forkMsg is one taken fork: the next task's anchor, the number of times the
// anchor's FORK was crossed since the last taken fork (the slave's
// EndCount), and the checkpoint predicting machine state at the anchor.
type forkMsg struct {
	anchor uint64
	count  uint64
	ck     task.Checkpoint
}

// masterStop says why a master life ended.
type masterStop uint8

const (
	masterHalted masterStop = iota
	masterLost
	masterStopped // coordinator squashed this life
)

// masterExit is a life's final report. Per-life metric counts ride here (and
// nowhere else) so the coordinator folds them in with a happens-before edge
// instead of sharing counters across goroutines.
type masterExit struct {
	stop          masterStop
	insts         uint64
	skipped       uint64 // forks skipped by MinTaskSpacing
	policySkipped uint64 // forks suppressed by the adaptive fork policy
}

// masterChunk bounds one RunToStop call so the stop channel is polled at a
// predictable period even in fork-free distilled code.
const masterChunk = 4096

// runMaster is the master goroutine body. It runs the shared fork gate
// (core.ForkGate) on top of the devirtualized cpu.RunToStop loop, and learns
// what each fork interval wrote from the engine's page journal instead of
// teeing every store through an overlay — the hot loop is the same one the
// SEQ baseline runs.
func (e *Engine) runMaster(l *masterLife) {
	st := l.st
	// A local copy keeps the gate's counters off the cache lines the
	// coordinator reads (the life's channels).
	g := l.gate
	var exit masterExit

	// The journal records the pages written since the previous fork
	// (initially since the reseed image); cum accumulates all predicted
	// writes since reseed.
	e.journal.Attach(st.Mem)
	cum := mem.NewOverlay()

	for {
		select {
		case <-l.stop:
			exit.stop = masterStopped
			l.exitCh <- exit
			return
		default:
		}

		res, err := l.code.RunToStop(st, g.Budget(masterChunk))
		exit.insts += res.Steps
		g.Retire(res.Steps)
		if err != nil {
			exit.stop = masterLost
			l.exitCh <- exit
			return
		}

		switch res.Kind {
		case cpu.StopHalt:
			exit.stop = masterHalted
			l.exitCh <- exit
			return

		case cpu.StopFork:
			dec, c := g.Fork(res.Anchor)
			if dec == core.ForkSpaced {
				exit.skipped++
				break
			}
			if dec == core.ForkIneligible {
				exit.policySkipped++
				break
			}

			ck := e.masterCheckpoint(st, cum)
			select {
			case l.forkCh <- forkMsg{anchor: res.Anchor, count: c, ck: ck}:
			case <-l.stop:
				exit.stop = masterStopped
				l.exitCh <- exit
				return
			}

		case cpu.StopJalr:
			pc, ok := g.Jump(st.PC)
			if !ok {
				exit.stop = masterLost
				l.exitCh <- exit
				return
			}
			st.PC = pc
		}

		if g.Overrun() {
			exit.stop = masterLost
			l.exitCh <- exit
			return
		}
	}
}

// masterCheckpoint captures the master's current prediction. The words that
// changed since the previous fork come from flushing the journal, which
// compares only the pages written since then with their recorded prior
// contents, and are folded into the cumulative overlay; the checkpoint
// carries an O(1) snapshot of it — the same
// reads-fall-through-to-architected-snapshot contract as the deterministic
// machine's write log, modulo stores that rewrote a value in place (which
// the flush cannot see; they only make the prediction marginally sparser,
// and verification is indifferent to prediction quality).
func (e *Engine) masterCheckpoint(st *state.State, cum *mem.Overlay) task.Checkpoint {
	newWords := 0
	e.journal.Flush(func(a uint64, v, _ uint64) {
		if _, ok := cum.Get(a); !ok {
			newWords++
		}
		cum.Set(a, v)
	})
	ck := task.Checkpoint{
		Regs:         st.Regs,
		MemDiff:      cum.Snapshot(),
		NewDiffWords: newWords,
	}
	if e.Cfg.MasterSuppliesAllData {
		ck.FullMem = st.Mem.Snapshot()
	}
	return ck
}
