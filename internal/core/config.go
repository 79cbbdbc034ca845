// Package core implements the MSSP machine: a master processor running a
// distilled program, a pool of slave processors executing original-program
// tasks, and the verify/commit unit that is the machine's sole writer of
// architected state.
//
// # Execution model
//
// The simulator is a deterministic discrete-event model layered over an
// exact functional execution:
//
//   - The master (Master) executes the distilled program in its own memory
//     image (distilled code + architected data as of its last reseed) on
//     cpu's run loop, journaling the pages it writes. Each FORK it takes
//     defines a task boundary: the open task's end PC becomes the fork's
//     anchor, and a new task is spawned carrying a checkpoint (master
//     registers + the words whose value the master changed since the
//     reseed) and a snapshot of current architected state.
//   - Slaves execute tasks (internal/task) against those frozen inputs,
//     recording live-ins and live-outs. Slave execution never reads anything
//     written after its spawn, exactly like a hardware slave reading stale
//     architected state — the verify unit is what catches the consequences.
//   - The verify/commit unit processes tasks in program order. A task whose
//     recorded live-ins match current architected state commits: its
//     live-outs are superimposed and the machine "jumps" #t sequential
//     steps. Anything else — a live-in mismatch, an overflow, a fault —
//     squashes the task, every younger task, and the master, which is then
//     reseeded from architected state at the failure point.
//   - If a squash makes no progress over the previous squash, the machine
//     falls back to bounded non-speculative sequential execution (the
//     paper's dual-mode operation), guaranteeing forward progress no matter
//     what the distiller produced.
//
// Timing is modeled with per-core CPIs, a spawn latency, commit-unit
// serialization, and a squash penalty; the functional layer is unaffected by
// timing parameters, which keeps correctness arguments independent of
// performance modeling (the paradigm's central decoupling, preserved in the
// simulator's structure).
package core

import (
	"fmt"

	"mssp/internal/state"
	"mssp/internal/task"
)

// Config sets the machine's structural and timing parameters.
type Config struct {
	// Slaves is the number of slave processors (the paper's P-1 of a
	// P-core CMP).
	Slaves int

	// TaskBuffer bounds in-flight (spawned, uncommitted) tasks: the
	// checkpoint/verification buffering. Queued tasks still contend for
	// the Slaves processors; buffering beyond the slave count lets the
	// master run ahead past an occasional long task instead of stalling
	// the moment every slave is busy. Zero means 4x Slaves.
	TaskBuffer int

	// MasterCPI is cycles per instruction for the master core. The master
	// is typically modeled as the same core type as the slaves (speedup
	// comes from the distilled program being shorter, not from a faster
	// clock), but the ratio is configurable.
	MasterCPI float64
	// SlaveCPI is cycles per instruction for the slave cores, which also
	// run sequential mode.
	SlaveCPI float64

	// SpawnLatency is the delay, in cycles, between the master retiring a
	// FORK and the assigned slave starting the task (checkpoint transfer).
	SpawnLatency float64

	// CommitLatency is the fixed cost of verifying and committing one
	// task.
	CommitLatency float64
	// CommitPerWord is the verify/commit cost per live-in plus live-out
	// word, on top of CommitLatency.
	CommitPerWord float64

	// SquashPenalty is the cost of discarding speculative state and
	// reseeding the master.
	SquashPenalty float64

	// MaxTaskLen caps slave task length in instructions; a task that
	// does not reach its end PC within the cap overflows and is treated
	// as a misspeculation (finite speculative buffering).
	MaxTaskLen uint64

	// MasterRunaheadCap bounds distilled instructions between taken forks;
	// exceeding it marks the master lost (it is stuck in a loop the
	// distiller broke) and lets recovery take over.
	MasterRunaheadCap uint64

	// MinTaskSpacing makes the master skip FORKs until at least this many
	// distilled instructions have executed since the last taken fork
	// (dynamic task-boundary thinning). Zero takes every fork.
	MinTaskSpacing uint64

	// SP is the initial stack pointer.
	SP uint64

	// MaxCommitted aborts the simulation after this many committed
	// instructions (runaway guard). Zero means a large default.
	MaxCommitted uint64

	// OnCommit, when non-nil, observes every architected-state advance
	// (task commits and sequential-fallback chunks), in order. Hooks must
	// not mutate the event's state.
	OnCommit func(CommitEvent)

	// OnSquash, when non-nil, observes every squash with its cause.
	OnSquash func(SquashEvent)

	// OnLifecycle, when non-nil, observes every task-lifecycle transition
	// (fork, dispatch, verify, commit, squash, fallback-enter/-exit) with
	// its model-time cycle stamp. Events are delivered from the machine's
	// single simulation goroutine in processing order; Cycle values within
	// one task are monotone, but across tasks the model time of a dispatch
	// may precede an already-delivered commit (the machine discovers slave
	// timing lazily, at verification). internal/obs consumes this hook;
	// attach additional observers with obs.Attach, which chains.
	OnLifecycle func(LifecycleEvent)

	// DisableFastPath drops the predecoded instruction tables, so every
	// execution context fetches and decodes from memory. The master of
	// both engines and sequential fallback then decode in cpu's run loop;
	// slaves step through the Env interface, so cpu.stepExec, the
	// reference semantics, runs every slave task. Functionally the two
	// paths are identical (the machine's output never depends on this
	// flag); the chaos harness runs both and diffs them.
	DisableFastPath bool

	// DisableFusion keeps the predecoded tables but skips the
	// superinstruction fusion pass (internal/fuse), so every fast-path
	// dispatch retires exactly one instruction. Like DisableFastPath it is
	// functionally invisible — fused execution is defined as the in-order
	// execution of the group's components — and exists for the chaos
	// harness's fused-vs-unfused differential leg and for ablation
	// benchmarks. Implied by DisableFastPath (no tables, nothing to fuse).
	DisableFusion bool

	// NonSpecRegions lists word-address ranges (memory-mapped I/O and
	// other non-idempotent state) that must never be accessed
	// speculatively. A task touching one is squashed and its region is
	// executed non-speculatively, per the formal model's treatment of
	// non-idempotent accesses.
	NonSpecRegions []task.AddrRange

	// Fault, when non-nil, injects deterministic faults into the machine's
	// speculative paths (internal/chaos drives this for differential
	// fuzzing). Injection can only corrupt predictions and perturb timing —
	// never architected state — so a correct machine stays a jumping
	// refinement of sequential execution under any fault plan.
	Fault *FaultInjection
}

// FaultInjection groups the deterministic fault-injection hooks. Every hook
// is optional; each is keyed by the task's fork sequence number so a seeded
// plan replays exactly. Hooks run on the machine's single simulation
// goroutine and must be pure functions of their arguments.
//
// The hooks cover the speculative surfaces the correctness argument has to
// survive: corrupted distilled-program hints (CorruptStart,
// CorruptCheckpoint), lost or late slave completions (DropCompletion,
// SlaveDelay), perturbed verify timing (VerifyJitter), and forced entry
// into sequential fallback (ForceFallback).
type FaultInjection struct {
	// CorruptStart perturbs the predicted start PC of a spawning task
	// (a corrupted FORK immediate). The task is spawned with the returned
	// PC; verification squashes it with SquashStartMismatch unless the
	// corruption happens to agree with architected state.
	CorruptStart func(taskID, start uint64) uint64

	// CorruptCheckpoint mutates the checkpoint a spawning task carries
	// (corrupted register predictions or memory words). It may assign
	// Regs, but must change memory only through task.Checkpoint.SetMem,
	// which adds a layer private to the task: the checkpoint's base and
	// layers are shared with other tasks' checkpoints. The slave executes
	// against the corrupted prediction; the verify unit catches any
	// consequence as a livein or fault squash.
	CorruptCheckpoint func(taskID uint64, ck *task.Checkpoint)

	// SlaveDelay returns extra cycles added to the task's slave completion
	// time (a slow or stalled slave). Timing only: the functional
	// execution is unaffected.
	SlaveDelay func(taskID uint64) float64

	// DropCompletion reports that the slave's completion for this task was
	// lost. The verify unit squashes the task with SquashDropped, as a
	// hardware commit unit would time out a silent slave.
	DropCompletion func(taskID uint64) bool

	// ForceFallback forces the machine into sequential fallback when this
	// task reaches verification: the task is squashed with SquashForced
	// and recovery runs non-speculative execution before reseeding the
	// master (a watchdog kicking the machine into its dual mode).
	ForceFallback func(taskID uint64) bool

	// VerifyJitter returns extra cycles added to the commit unit's
	// verification of this task, perturbing verify ordering in model time.
	// Timing only.
	VerifyJitter func(taskID uint64) float64
}

// DefaultConfig returns the 8-CPU configuration the experiments use as the
// baseline machine: one master plus seven slaves.
func DefaultConfig() Config {
	return Config{
		Slaves:            7,
		MasterCPI:         1.0,
		SlaveCPI:          1.0,
		SpawnLatency:      30,
		CommitLatency:     10,
		CommitPerWord:     0.125,
		SquashPenalty:     100,
		MaxTaskLen:        100_000,
		MasterRunaheadCap: 100_000,
		MinTaskSpacing:    100,
		SP:                1 << 28,
	}
}

// validate checks the structural parameters both engines read.
func (c *Config) validate() error {
	if c.Slaves < 1 {
		return fmt.Errorf("need at least one slave, got %d", c.Slaves)
	}
	if c.MaxTaskLen == 0 {
		return fmt.Errorf("MaxTaskLen must be positive")
	}
	if c.MasterRunaheadCap == 0 {
		return fmt.Errorf("MasterRunaheadCap must be positive")
	}
	return nil
}

// validateTiming checks the cycle model's parameters, which only Machine
// reads.
func (c *Config) validateTiming() error {
	if c.MasterCPI <= 0 || c.SlaveCPI <= 0 {
		return fmt.Errorf("CPIs must be positive")
	}
	if c.SpawnLatency < 0 || c.CommitLatency < 0 || c.CommitPerWord < 0 || c.SquashPenalty < 0 {
		return fmt.Errorf("negative latency")
	}
	return nil
}

// Lifecycle kinds, the values LifecycleEvent.Kind takes. Together they are
// the task-lifecycle state machine: a task is forked by the master,
// dispatched to a slave, verified by the commit unit, and then either
// committed or squashed; when the machine abandons speculation entirely it
// brackets the sequential mode with fallback-enter/-exit.
const (
	// LifecycleFork marks the master retiring a taken FORK: a new task
	// exists, carrying a checkpoint and an architected-state snapshot.
	LifecycleFork = "fork"
	// LifecycleDispatch marks a slave beginning to execute the task
	// (checkpoint transfer complete). Cycle is the slave's start time.
	LifecycleDispatch = "dispatch"
	// LifecycleVerify marks the commit unit beginning to compare the
	// task's recorded live-ins against architected state.
	LifecycleVerify = "verify"
	// LifecycleCommit marks a task whose live-ins matched: its live-outs
	// are superimposed and architected state jumps Steps instructions.
	LifecycleCommit = "commit"
	// LifecycleSquash marks a failed verification; Reason carries the
	// squash taxonomy (the Squash* constants) and Discarded the younger
	// tasks thrown away. Discarded tasks emit no further events — their
	// fork is their last.
	LifecycleSquash = "squash"
	// LifecycleFallbackEnter marks the machine entering bounded
	// non-speculative sequential execution (dual-mode operation).
	LifecycleFallbackEnter = "fallback-enter"
	// LifecycleFallbackExit marks the machine leaving sequential mode,
	// with Steps instructions committed architecturally.
	LifecycleFallbackExit = "fallback-exit"
)

// Squash reasons, the values SquashEvent.Reason and LifecycleEvent.Reason
// take. The first five are organic: the machine provokes them by itself
// when speculation goes wrong. The last two appear only under fault
// injection (Config.Fault) and never in a production configuration.
const (
	// SquashLiveIn marks a live-in mismatch: the master's distilled
	// program predicted a value the original program disagrees with.
	SquashLiveIn = "livein"
	// SquashOverflow marks a task that exceeded MaxTaskLen without
	// reaching its end PC (finite speculative buffering).
	SquashOverflow = "overflow"
	// SquashFault marks a task that faulted during speculative execution.
	SquashFault = "fault"
	// SquashNonSpec marks a task that touched a non-speculative region;
	// recovery replays the access architecturally in sequential mode.
	SquashNonSpec = "nonspec"
	// SquashStartMismatch marks a task whose predicted start PC disagreed
	// with the architected PC at verify time.
	SquashStartMismatch = "start-mismatch"
	// SquashDropped marks an injected lost slave completion
	// (FaultInjection.DropCompletion); never organic.
	SquashDropped = "dropped"
	// SquashForced marks an injected forced entry into sequential
	// fallback (FaultInjection.ForceFallback); never organic.
	SquashForced = "forced"
)

// OrganicSquashReasons lists the squash reasons the machine can provoke
// without fault injection, in canonical order. docs/OBSERVABILITY.md and
// docs/TESTING.md document the same taxonomy; cmd/doccheck enforces that.
var OrganicSquashReasons = []string{
	SquashLiveIn, SquashOverflow, SquashFault, SquashNonSpec, SquashStartMismatch,
}

// InjectedSquashReasons lists the squash reasons only fault injection
// (Config.Fault) can provoke, in canonical order.
var InjectedSquashReasons = []string{SquashDropped, SquashForced}

// AllSquashReasons returns the full taxonomy: organic reasons followed by
// injected ones.
func AllSquashReasons() []string {
	return append(append([]string(nil), OrganicSquashReasons...), InjectedSquashReasons...)
}

// LifecycleEvent is one task-lifecycle transition, delivered to
// Config.OnLifecycle. Field meaning varies by Kind; unused fields are zero.
type LifecycleEvent struct {
	// Kind is one of the Lifecycle* constants.
	Kind string
	// Cycle is the event's model time: the master clock for forks, the
	// slave start time for dispatches, the commit unit's times otherwise.
	Cycle float64
	// TaskID is the task's fork sequence number. It is meaningless for
	// fallback-enter/-exit, which concern no task.
	TaskID uint64
	// Start is the task's predicted original-program start PC (for
	// fallback-enter, the architected PC sequential execution resumes at).
	Start uint64
	// Steps is the number of original-program instructions committed
	// (commit and fallback-exit only).
	Steps uint64
	// Reason is the squash taxonomy value (squash only).
	Reason string
	// Halted reports that the advance ended at a HALT (commit and
	// fallback-exit only).
	Halted bool
	// Discarded is the number of younger in-flight tasks thrown away with
	// this one (squash only).
	Discarded int
	// Slave is the index of the slave processor the task ran on
	// (dispatch only).
	Slave int
	// Queue is the number of in-flight tasks after this fork, the
	// master's run-ahead depth (fork only).
	Queue int
}

// SquashEvent describes one pipeline squash.
type SquashEvent struct {
	// TaskID is the failing task's fork sequence number.
	TaskID uint64
	// Start is the task's predicted start PC.
	Start uint64
	// Reason is the squash taxonomy value (one of the Squash* constants).
	Reason string
	// Inconsistency is the first mismatching live-in cell (livein only).
	Inconsistency *state.Inconsistency
	// Discarded is the number of younger in-flight tasks thrown away.
	Discarded int
	// Steps is how many instructions the squashed task executed before the
	// verify unit rejected it — the wrong-path work the squash threw away.
	Steps uint64
	// LiveIn is the read-before-write footprint the squashed task observed,
	// exactly as the verify unit compared it. Like CommitEvent's deltas it
	// is borrowed pooled storage: valid only during the callback, cloned if
	// retained (see docs/MEMORY.md). The dynamic taint observer
	// (internal/taint) replays squashed tasks from it. Nil when the task
	// produced no execution (e.g. dropped completions).
	LiveIn *state.Delta
}

// CommitEvent describes one in-order advance of architected state.
type CommitEvent struct {
	// Kind is "task" for a committed task, "fallback" for a sequential
	// non-speculative chunk.
	Kind string
	// TaskID is the fork sequence number (tasks only).
	TaskID uint64
	// Start is the original PC the region began at.
	Start uint64
	// Steps is the number of original-program instructions the commit
	// advanced architected state by (#t).
	Steps uint64
	// Halted reports whether the region ended at a halt.
	Halted bool
	// LiveIn and LiveOut are the task's recorded sets (nil for fallback).
	// They borrow pooled storage and are valid only during the callback;
	// Clone them to retain (docs/MEMORY.md).
	LiveIn, LiveOut *state.Delta
	// Arch is the architected state after the commit. Observers must not
	// mutate it; clone before storing.
	Arch *state.State
}
