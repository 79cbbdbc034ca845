package parallel

import (
	"mssp/internal/core"
	"mssp/internal/task"
)

// masterLife is one incarnation of the master processor: a goroutine running
// the engine's core.Master from a reseed point until it halts, gets lost, or
// is stopped by a squash. The coordinator owns the life's creation (it
// reseeds the master, building its memory image, so every
// architected-family snapshot the coordinator depends on stays ordered) and
// its teardown (close stop, then receive up to the exit report). In between
// the master is confined to the life's goroutine.
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
	// exit is the life's report: its steps and skipped forks summed over
	// the life, and in Stop how it ended (MasterHalted or MasterLost, any
	// other value for a life the coordinator stopped). The life's counts
	// ride here and nowhere else, so the coordinator folds them in with a
	// happens-before edge instead of sharing counters across goroutines.
	exit core.MasterRun
	last bool // exit is the life's report; fork is unset
}

// masterChunk bounds one Master.Run call so the stop channel is polled at a
// predictable period even in fork-free distilled code.
const masterChunk = 4096

// runMaster is the master goroutine body: it runs the life, then sends the
// life's exit report, its last message on the queue and its last touch of
// anything the engine shares.
func (e *Engine) runMaster(l *masterLife) {
	var exit core.MasterRun
	e.runLife(l, &exit)
	e.queue <- lifeMsg{exit: exit, last: true}
}

// runLife runs the engine's master until the life halts, gets lost or is
// stopped, counting into exit. Each taken fork waits for a credit, then
// goes on the queue with its checkpoint.
func (e *Engine) runLife(l *masterLife, exit *core.MasterRun) {
	ms := e.master
	for {
		select {
		case <-l.stop:
			return
		default:
		}

		r := ms.Run(masterChunk)
		exit.Steps += r.Steps
		exit.Skipped += r.Skipped
		exit.Stop = r.Stop
		switch r.Stop {
		case core.MasterHalted, core.MasterLost:
			return
		case core.MasterForked:
			select {
			case <-l.credit:
			case <-l.stop:
				return
			}
			// With a credit in hand the send cannot block: the forks
			// queued ahead of this one hold the rest of the window, which
			// never exceeds the queue's capacity.
			e.queue <- lifeMsg{fork: forkMsg{anchor: r.Anchor, count: r.Count, ck: ms.Checkpoint()}}
		}
	}
}
