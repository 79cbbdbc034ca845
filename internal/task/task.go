// Package task implements MSSP tasks: bounded regions of original-program
// execution performed speculatively by slave processors.
//
// A task is spawned with a checkpoint (the master's predicted register file
// and the memory words it changed) and a snapshot of architected state as of
// the spawn. The slave executes the original program from the task's start
// PC, reading each word from the checkpoint's memory view and falling back
// to the architected snapshot, while recording everything it read before
// writing (the live-in set) and everything it wrote (the live-out set). This
// is the ⟨S_in, n, S_out, k⟩ task tuple of the formal MSSP model, with the
// live-in set accumulated lazily as the actual read-before-write footprint.
// Both sets live in one mem.Table, the slave's speculative buffer, which is
// over the checkpoint's view and the snapshot (mem.Table.Over): loads and
// stores probe it once, and only a word's first read goes on to the view's
// entries for its page, looked up once per page, and then the snapshot. The
// live-in and live-out deltas are the table's two views.
//
// Task execution never touches architected state; the verify/commit unit
// (internal/core) decides later whether the recorded live-ins are consistent
// with architected state and, only then, superimposes the live-outs.
package task

import (
	"mssp/internal/cpu"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/state"
)

// Checkpoint is the master's prediction of machine state at a task boundary.
//
// Its memory is a layered view: Layers, the current window's chain, over
// Prev, the previous window's final layer, over an optional frozen base
// MemDiff, and reads outside all three fall through to the architected
// snapshot. The master (core.Master, through mem.Layered) adds one layer
// per fork and starts a new chain once every TaskBuffer forks, so the view
// holds the master's memory words that changed at the forks since the
// previous window began, at their values at this fork. A word enters a
// layer at a fork where its value differs from its value at the previous
// fork (or the reseed), so a store that leaves a word's value unchanged
// adds nothing. Older words need no place in the view: a fork is admitted
// only once every task forked a window or more before it has retired, so
// the task's snapshot already holds what they committed, and verification
// catches any word where it differs from the master's. Both engines run the
// same master, so the definition is the same in both.
//
// The page entries of one window's chain are read by up to 2×TaskBuffer
// checkpoints: those of its own window, through Layers, and those of the
// next window, through Prev. They are never written again: SetMem adds a
// private layer instead. A slave's table looks up a page's entries in
// Layers, Prev and MemDiff once, at its first read on the page. The master
// sets no base; Checkpoint{Regs: r, MemDiff: o} is the view of o alone.
type Checkpoint struct {
	// Regs is the full predicted register file.
	Regs [isa.NumRegs]uint64
	// MemDiff is the base of the memory view, a frozen overlay under both
	// chains, nil for none.
	MemDiff *mem.Overlay
	// Prev is the previous window's final layer, which holds the words of
	// every layer of that window (mem.Layer), nil for none.
	Prev *mem.Layer
	// Layers is the newest layer of the current window, which holds the
	// words of every layer below it in the window, nil for none.
	Layers *mem.Layer
	// NewDiffWords is the number of words whose value changed, for the
	// first time since the reseed, between the previous fork and this one
	// (checkpoint traffic, for the bandwidth experiments).
	NewDiffWords int
}

// SetMem binds addr to v in this checkpoint's view alone: it adds a private
// one-word layer on top, so the base and the layers other checkpoints share
// are never written. Fault injection corrupts checkpoint memory through it.
func (c *Checkpoint) SetMem(addr, v uint64) { c.Layers = c.Layers.With(addr, v) }

// Task is one speculative work unit.
type Task struct {
	// ID is the task's position in the fork sequence (0-based).
	ID uint64
	// Start is the original-program PC the task begins at.
	Start uint64
	// End is the original-program PC at which the task completes (the next
	// task's start). The task completes at the EndCount-th dynamic
	// occurrence of End: when the master skips fork points to enforce a
	// minimum task spacing, it may cross the end anchor several times
	// within one task, and the slave must let the same number of
	// occurrences pass. If HasEnd is false the task runs until halt or
	// the cap.
	End      uint64
	EndCount uint64 // occurrences of End to consume; 0 behaves as 1
	// HasEnd distinguishes a real end anchor from the run-to-halt drain case.
	HasEnd bool
	// Checkpoint is the master's state prediction at Start.
	Checkpoint Checkpoint
	// Snap is the architected state as of the spawn. The slave reads
	// values the master did not predict from here, and fetches original-
	// program code from here.
	Snap *state.State
	// Code, when non-nil, is the predecoded original program: the slave
	// fetches decoded instructions from it instead of decoding Snap's words
	// each step. The machine only sets it while the architected code
	// segment is unmodified, so table fetches and Snap fetches agree.
	Code *isa.DecodedProgram
	// NonSpec lists address ranges that must not be accessed
	// speculatively (memory-mapped I/O and other non-idempotent state).
	// A task touching one stops with OutcomeNonSpec and is executed
	// non-speculatively by the machine instead.
	NonSpec []AddrRange
	// Cancel, when non-nil, is polled periodically during execution; when
	// it returns true the task stops with OutcomeCanceled. The parallel
	// engine uses it to abandon in-flight slave work for squashed epochs
	// instead of letting stale tasks run to their cap. It must be safe to
	// call from the executing goroutine at any time.
	Cancel func() bool
}

// cancelEvery is the instruction period at which Cancel is polled: rare
// enough to stay off the hot path, frequent enough that a squashed task
// stops within microseconds.
const cancelEvery = 256

// Outcome classifies how a task execution ended.
type Outcome int

const (
	// OutcomeReachedEnd: the task reached its end PC.
	OutcomeReachedEnd Outcome = iota
	// OutcomeHalted: the task executed a halt instruction.
	OutcomeHalted
	// OutcomeOverflow: the instruction cap was hit before the end PC.
	OutcomeOverflow
	// OutcomeFault: the slave decoded an invalid instruction word
	// (possible when seeded with garbage predictions).
	OutcomeFault
	// OutcomeNonSpec: the task touched a non-speculative region and must
	// be re-executed non-speculatively.
	OutcomeNonSpec
	// OutcomeCanceled: the task's Cancel hook fired. Only abandoned (e.g.
	// squashed-epoch) executions end this way; a verify unit must never
	// see a canceled task at the commit head.
	OutcomeCanceled
)

// String names the outcome for logs and error messages.
func (o Outcome) String() string {
	switch o {
	case OutcomeReachedEnd:
		return "reached-end"
	case OutcomeHalted:
		return "halted"
	case OutcomeOverflow:
		return "overflow"
	case OutcomeFault:
		return "fault"
	case OutcomeNonSpec:
		return "nonspec"
	case OutcomeCanceled:
		return "canceled"
	}
	return "unknown"
}

// Exec is the result of executing a task on a slave.
//
// An Exec produced by Pool.Execute borrows pooled storage: it, and the
// LiveIn/LiveOut deltas it carries, are valid only until Pool.Release —
// engines that hand deltas to callbacks document the same borrow (see
// core.CommitEvent and docs/MEMORY.md). Clone the deltas to retain them.
type Exec struct {
	// Outcome says how the execution ended.
	Outcome Outcome
	// Steps is the number of original-program instructions executed (#t).
	Steps uint64
	// LiveIn is everything the slave read before writing, with the values
	// it observed (from the checkpoint's view or the snapshot).
	LiveIn *state.Delta
	// LiveOut is everything the slave wrote, plus the final PC.
	// Committing a safe task is exactly arch.Apply(LiveOut). Its memory
	// bindings and LiveIn's are the two views of one table, sorted by
	// address when the execution finished.
	LiveOut *state.Delta

	// sc points back at the pooled scratch this Exec borrows from, nil for
	// unpooled executions. Pool.Release uses it to recycle the storage.
	sc *scratch
}

// slaveEnv is a slave processor: the task's register file and PC over its
// architected snapshot, plus the capture machinery that logs live-ins and
// live-outs. It runs a task two ways. With a predecoded program the
// task executes on cpu's run loop (Code.RunCapture), which sends loads and
// stores to ReadMem/WriteMem through hook and logs register live-ins from
// per-dispatch masks. Without one, slaveEnv is the cpu.Env that cpu.Step
// drives, logging each register live-in as it is read: the reference path
// the run-loop path is tested against (TestExecuteFastSlowEquivalence, the
// chaos corpus's -interp differential).
type slaveEnv struct {
	t *Task

	// st holds the slave's registers and PC; st.Mem is the architected
	// snapshot, which instruction fetches read.
	st state.State
	// hook holds the register masks, the live-in delta, the end-anchor count
	// and the non-speculative-access flag both paths share; hook.Mem is this
	// env.
	hook cpu.Capture

	// tab holds the task's memory live-ins and live-outs. Loads and stores
	// go to it; a word's first read goes on to the checkpoint's view and
	// then the snapshot, which the table is over.
	tab *mem.Table
}

// reset arms e for task t over the empty table tab and the live-in delta
// over its In view, and puts tab over t's checkpoint and snapshot.
func (e *slaveEnv) reset(t *Task, tab *mem.Table, liveIn *state.Delta) {
	*e = slaveEnv{
		t:   t,
		st:  state.State{Regs: t.Checkpoint.Regs, PC: t.Start, Mem: t.Snap.Mem},
		tab: tab,
	}
	e.hook = cpu.Capture{Mem: e, LiveIn: liveIn, End: t.End, Unfused: len(t.NonSpec) != 0}
	if t.HasEnd {
		e.hook.Ends = max(t.EndCount, 1)
	}
	ck := &t.Checkpoint
	tab.Over(ck.MemDiff, ck.Prev, ck.Layers, t.Snap.Mem)
}

func (e *slaveEnv) ReadReg(r int) uint64 {
	if r == isa.RegZero {
		return 0
	}
	bit := uint32(1) << r
	if (e.hook.Read|e.hook.Written)&bit == 0 {
		e.hook.Read |= bit
		e.hook.LiveIn.SetReg(r, e.st.Regs[r])
	}
	return e.st.Regs[r]
}

func (e *slaveEnv) WriteReg(r int, v uint64) {
	if r == isa.RegZero {
		return
	}
	e.hook.Written |= 1 << r
	e.st.Regs[r] = v
}

func (e *slaveEnv) ReadMem(addr uint64) uint64 {
	if inRegions(e.t.NonSpec, addr) {
		e.hook.NonSpec = true
	}
	if v, ok := e.tab.Cached(addr); ok {
		return v
	}
	return e.tab.Load(addr)
}

func (e *slaveEnv) WriteMem(addr, v uint64) {
	if inRegions(e.t.NonSpec, addr) {
		e.hook.NonSpec = true
	}
	if !e.tab.StoreCached(addr, v) {
		e.tab.Store(addr, v)
	}
}

// Fetch reads instruction words from the architected snapshot only: like
// the real MSSP hardware, the verify unit does not track code reads as
// live-ins. A program may write its code, so the verify unit squashes a
// task whose live-out changes a code word, which the task may have fetched
// at its snapshot value after its store, and sequential mode performs the
// write with no task in flight (core.Retirer.Verify).
func (e *slaveEnv) Fetch(addr uint64) uint64 { return e.st.Mem.Read(addr) }

func (e *slaveEnv) PC() uint64      { return e.st.PC }
func (e *slaveEnv) SetPC(pc uint64) { e.st.PC = pc }

var _ cpu.Env = (*slaveEnv)(nil)

// Execute runs the task to completion on a virtual slave processor,
// executing at most cap instructions.
//
// With a predecode table present the task runs on cpu's run loop;
// otherwise it steps through the Env interface. The two paths are
// semantically identical (TestExecuteFastSlowEquivalence).
func (t *Task) Execute(cap uint64) *Exec {
	tab := mem.NewTable()
	env := new(slaveEnv)
	ex := &Exec{LiveIn: state.NewDeltaOver(tab.In()), LiveOut: state.NewDeltaOver(tab.Out())}
	env.reset(t, tab, ex.LiveIn)
	return t.execute(env, ex, cap)
}

// execute is the shared body behind Execute and Pool.Execute: env and ex
// carry the (fresh or recycled) capture machinery, already wired to t.
func (t *Task) execute(env *slaveEnv, ex *Exec, cap uint64) *Exec {
	if t.Code != nil {
		t.run(env, ex, cap)
	} else {
		t.step(env, ex, cap)
	}
	t.finish(env, ex)
	return ex
}

// stopOutcome maps the run loop's stops to task outcomes; StopSteps is the
// budget running out, which is an overflow only once the whole cap is spent.
var stopOutcome = [...]Outcome{
	cpu.StopHalt:    OutcomeHalted,
	cpu.StopFault:   OutcomeFault,
	cpu.StopEnd:     OutcomeReachedEnd,
	cpu.StopNonSpec: OutcomeNonSpec,
}

// run executes the task on cpu's run loop. A per-execution runner over the
// shared predecode table tracks this task's own stores into the code
// segment; code modifications are the machine's responsibility (it stops
// handing out Code once the architected code segment is written, and
// squashes a task whose live-out changes it).
// With a Cancel hook the budget runs in cancelEvery-step chunks, polled in
// between.
func (t *Task) run(env *slaveEnv, ex *Exec, cap uint64) {
	code := cpu.NewCode(t.Code)
	for ex.Steps < cap {
		chunk := cap - ex.Steps
		if t.Cancel != nil {
			if t.Cancel() {
				ex.Outcome = OutcomeCanceled
				return
			}
			chunk = min(chunk, cancelEvery)
		}
		st, err := code.RunCapture(&env.st, chunk, &env.hook)
		ex.Steps += st.Steps
		if err != nil || st.Kind != cpu.StopSteps {
			ex.Outcome = stopOutcome[st.Kind]
			return
		}
	}
	ex.Outcome = OutcomeOverflow
}

// step executes the task through the Env interface, one cpu.Step at a time.
func (t *Task) step(env *slaveEnv, ex *Exec, cap uint64) {
	for ex.Steps < cap {
		if t.Cancel != nil && ex.Steps%cancelEvery == 0 && t.Cancel() {
			ex.Outcome = OutcomeCanceled
			return
		}
		in, err := cpu.Step(env)
		if err != nil {
			ex.Outcome = OutcomeFault
			return
		}
		ex.Steps++
		if env.hook.NonSpec {
			// The offending instruction's effects stay in the task's
			// deltas and are discarded with it; the machine performs
			// the access non-speculatively instead.
			ex.Outcome = OutcomeNonSpec
			return
		}
		if in.Op == isa.OpHalt {
			ex.Outcome = OutcomeHalted
			return
		}
		if t.HasEnd && env.st.PC == t.End {
			if env.hook.Ends--; env.hook.Ends == 0 {
				ex.Outcome = OutcomeReachedEnd
				return
			}
		}
	}
	ex.Outcome = OutcomeOverflow
}

// finish completes the task's deltas on the slave's goroutine: it sorts the
// table, whose views are the deltas' memory parts, and adds the written
// registers and the final PC to the live-out delta.
func (t *Task) finish(env *slaveEnv, ex *Exec) {
	env.tab.Sort()
	for r := 1; r < isa.NumRegs; r++ {
		if env.hook.Written&(1<<r) != 0 {
			ex.LiveOut.SetReg(r, env.st.Regs[r])
		}
	}
	ex.LiveOut.SetPC(env.st.PC)
}
