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
// depends on stays ordered) and its teardown (close stop, then receive up to
// the exit report).
//
// Channel discipline: a life sends everything on the engine's one fork
// queue (Engine.queue, capacity TaskBuffer), which every life reuses: each
// taken fork in order, then its exit report as its last message. So the
// coordinator receives every fork a life sent, in send order, before it
// learns that the life ended. The run loop handles them; stopMaster
// receives up to the exit report and drops them, which leaves the queue
// empty for the next life.
//
// The master deposits a fork and keeps running; a credit window bounds how
// far. The master takes a credit from the life's credit channel before it
// builds each checkpoint. The coordinator returns the credit when it
// receives the fork and grants one more each time a task of the life
// commits, up to TaskBuffer, and a new life starts with one. So
// speculation depth follows verified accuracy, and since the forks a life
// has queued never outnumber its window, a fork send never blocks; the exit
// report may wait behind a full queue, which the coordinator always drains.
type masterLife struct {
	credit chan struct{}
	stop   chan struct{}
	// window is the number of credits granted to the life: those in
	// credit, the one the master may hold, and those spent on forks still
	// queued. Coordinator-owned.
	window int

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

// lifeMsg is one message on the fork queue: a taken fork, or, as a life's
// last message, its exit report.
type lifeMsg struct {
	fork forkMsg
	exit masterExit
	last bool // exit is the life's report; fork is unset
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
	stop    masterStop
	insts   uint64
	skipped uint64 // forks skipped by MinTaskSpacing
}

// masterChunk bounds one RunToStop call so the stop channel is polled at a
// predictable period even in fork-free distilled code.
const masterChunk = 4096

// runMaster is the master goroutine body: it runs the life, then sends the
// life's exit report, its last message on the queue and its last touch of
// anything the engine shares.
func (e *Engine) runMaster(l *masterLife) {
	var exit masterExit
	exit.stop = e.master(l, &exit)
	e.queue <- lifeMsg{exit: exit, last: true}
}

// master runs the shared fork gate (core.ForkGate) on top of the
// devirtualized cpu.RunToStop loop until the life halts, gets lost or is
// stopped, counting into exit, and learns what each fork interval wrote
// from the engine's page journal instead of teeing every store through an
// overlay — the hot loop is the same one the SEQ baseline runs.
func (e *Engine) master(l *masterLife, exit *masterExit) masterStop {
	st := l.st
	// A local copy keeps the gate's counters off the cache lines the
	// coordinator reads (the life's channels and window).
	g := l.gate

	// The journal records the pages written since the previous fork
	// (initially since the reseed image); cum accumulates all predicted
	// writes since reseed.
	e.journal.Attach(st.Mem)
	cum := mem.NewOverlay()

	for {
		select {
		case <-l.stop:
			return masterStopped
		default:
		}

		res, err := l.code.RunToStop(st, g.Budget(masterChunk))
		exit.insts += res.Steps
		g.Retire(res.Steps)
		if err != nil {
			return masterLost
		}

		switch res.Kind {
		case cpu.StopHalt:
			return masterHalted

		case cpu.StopFork:
			taken, c := g.Fork(res.Anchor)
			if !taken {
				exit.skipped++
				break
			}

			select {
			case <-l.credit:
			case <-l.stop:
				return masterStopped
			}
			// With a credit in hand the send cannot block: the forks
			// queued ahead of this one hold the rest of the window, which
			// never exceeds the queue's capacity.
			e.queue <- lifeMsg{fork: forkMsg{anchor: res.Anchor, count: c, ck: e.masterCheckpoint(st, cum)}}

		case cpu.StopJalr:
			pc, ok := g.Jump(st.PC)
			if !ok {
				return masterLost
			}
			st.PC = pc
		}

		if g.Overrun() {
			return masterLost
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
	return task.Checkpoint{
		Regs:         st.Regs,
		MemDiff:      cum.Snapshot(),
		NewDiffWords: newWords,
	}
}
