package core

import "fmt"

// Metrics aggregates everything the experiments report. All cycle values
// come from the event-timing model; all instruction counts come from the
// functional execution and are exact.
//
// # Squash-reason taxonomy
//
// A task reaching the verify/commit unit meets exactly one of six fates,
// counted by the Tasks* fields below and named in SquashEvent.Reason and
// LifecycleEvent.Reason. In the paper's terms:
//
//   - committed ("commit"): the recorded live-ins were consistent with
//     architected state (the formal model's task-safety condition), so the
//     live-outs were superimposed and execution jumped #t steps.
//   - livein: a live-in mismatch — the master's distilled program predicted
//     a value the original program disagrees with. This is the paradigm's
//     ordinary misspeculation: the distilled program is unverified by
//     construction, and live-in verification is what contains it.
//   - overflow: the task exceeded MaxTaskLen without reaching its end PC —
//     finite speculative buffering, treated as a misspeculation.
//   - fault: the task faulted during speculative execution (the fault may
//     itself be a consequence of a wrong prediction, so the task is
//     squashed and the original program re-executes non-speculatively).
//   - start-mismatch: the task's predicted start PC disagreed with the
//     architected PC at verify time — the master forked from a point
//     execution never reached.
//   - nonspec: the task touched a non-speculative region (memory-mapped
//     I/O, non-idempotent state); it is squashed and the access replayed
//     architecturally in sequential mode, exactly once.
//
// Two further fates — dropped and forced — exist only under fault
// injection (Config.Fault) and are counted by TasksDropped and
// TasksForced; a production configuration never sees them.
//
// docs/OBSERVABILITY.md carries the same taxonomy with the event schema;
// EXPERIMENTS.md's tables (E5, E9) report these counters per workload.
type Metrics struct {
	// CommittedInsts counts original-program instructions retired into
	// architected state, by task commits and sequential fallback alike.
	// It equals the sequential execution's instruction count: MSSP commits
	// the original program's work, whatever the distilled program did.
	CommittedInsts uint64
	// MasterInsts counts distilled-program instructions the master
	// executed, including run-ahead work thrown away by squashes. The
	// ratio MasterInsts/CommittedInsts is the dynamic distillation ratio.
	MasterInsts uint64
	// SeqFallbackInsts counts instructions executed in non-speculative
	// sequential mode (the dual-mode fallback), a subset of
	// CommittedInsts.
	SeqFallbackInsts uint64

	// TasksCommitted counts tasks whose live-ins verified and whose
	// live-outs were admitted into architected state.
	TasksCommitted uint64
	// TasksMisspec counts tasks squashed for a live-in mismatch at verify
	// (Reason "livein"): the master's prediction was wrong.
	TasksMisspec uint64
	// TasksOverflowed counts tasks squashed for exceeding MaxTaskLen
	// (Reason "overflow"): finite speculative buffering.
	TasksOverflowed uint64
	// TasksFaulted counts tasks squashed for faulting speculatively
	// (Reason "fault").
	TasksFaulted uint64
	// TasksStartMismatch counts tasks whose predicted start PC disagreed
	// with the architected PC at verify (Reason "start-mismatch").
	TasksStartMismatch uint64
	// TasksNonSpec counts tasks squashed for touching a non-speculative
	// (I/O) region (Reason "nonspec"); the access then executes
	// architecturally in sequential mode.
	TasksNonSpec uint64
	// TasksDropped counts tasks squashed by an injected lost slave
	// completion (Reason "dropped"); nonzero only under fault injection.
	TasksDropped uint64
	// TasksForced counts tasks squashed by an injected forced fallback
	// entry (Reason "forced"); nonzero only under fault injection.
	TasksForced uint64
	// TasksSquashedDown counts younger in-flight tasks discarded when an
	// older task failed — collateral squashes, not charged to the
	// taxonomy above.
	TasksSquashedDown uint64
	// Squashes counts pipeline squashes: one per failed verification,
	// regardless of how many younger tasks went down with it.
	Squashes uint64

	// Forks counts taken FORKs — spawned tasks.
	Forks uint64
	// ForksSkipped counts forks thinned by MinTaskSpacing (dynamic
	// task-boundary thinning).
	ForksSkipped uint64
	// MasterLost counts times the master lost its way: a fault in
	// distilled code, an untranslatable indirect-jump target, or the
	// run-ahead cap. Recovery reseeds it from architected state.
	MasterLost uint64
	// MasterHalts counts the master retiring HALT (normally once).
	MasterHalts uint64

	// LiveInWords counts recorded live-in words across committed tasks —
	// the verify unit's read-set traffic.
	LiveInWords uint64
	// LiveOutWords counts live-out words superimposed by committed tasks —
	// the commit traffic.
	LiveOutWords uint64
	// CheckpointNew sums task.Checkpoint.NewDiffWords over forks: the
	// words each checkpoint's memory diff gained over the previous one,
	// the master-to-slave bandwidth the paper budgets per task start. A
	// word enters a master life's diff at the first fork where its value
	// differs from its value at the previous fork, so a store that leaves
	// a word's value unchanged costs nothing. Both engines run the same
	// master, so the count means the same in both.
	CheckpointNew uint64

	// RunaheadSum accumulates the in-flight queue depth observed at each
	// spawn; RunaheadSum/Forks is how far the master runs ahead of the
	// commit point on average.
	RunaheadSum uint64

	// Cycles is the modeled end-to-end execution time.
	Cycles float64
	// MasterBoundCycles accumulates commit-to-commit gaps limited by the
	// master naming the next task (distillation too slow or too long).
	MasterBoundCycles float64
	// SlaveBoundCycles accumulates commit-to-commit gaps limited by slave
	// computation (tasks longer than the spawn cadence).
	SlaveBoundCycles float64
	// CommitBoundCycles accumulates commit-to-commit gaps limited by
	// commit-unit serialization (per-task and per-word verify cost).
	CommitBoundCycles float64
	// RecoveryCycles accumulates squash penalties plus sequential-fallback
	// execution time — the price of misspeculation.
	RecoveryCycles float64
	// SlaveBusyCycles accumulates slave compute time for committed tasks,
	// the numerator of SlaveUtilization.
	SlaveBusyCycles float64
}

// AddMaster folds master progress into the counters: r's instructions and
// skipped forks and, when r ended the life, its halt or loss.
func (m *Metrics) AddMaster(r MasterRun) {
	m.MasterInsts += r.Steps
	m.ForksSkipped += r.Skipped
	switch r.Stop {
	case MasterHalted:
		m.MasterHalts++
	case MasterLost:
		m.MasterLost++
	}
}

// CommitRate returns the fraction of executed tasks that committed.
func (m *Metrics) CommitRate() float64 {
	total := m.TasksCommitted + m.TasksMisspec + m.TasksOverflowed + m.TasksFaulted +
		m.TasksStartMismatch + m.TasksNonSpec + m.TasksDropped + m.TasksForced
	if total == 0 {
		return 0
	}
	return float64(m.TasksCommitted) / float64(total)
}

// MisspecRate returns misspeculations (of any kind, excluding downstream
// discards) per committed task.
func (m *Metrics) MisspecRate() float64 {
	if m.TasksCommitted == 0 {
		return 0
	}
	bad := m.TasksMisspec + m.TasksOverflowed + m.TasksFaulted + m.TasksStartMismatch +
		m.TasksNonSpec + m.TasksDropped + m.TasksForced
	return float64(bad) / float64(m.TasksCommitted)
}

// MeanTaskLen returns committed instructions per committed task.
func (m *Metrics) MeanTaskLen() float64 {
	if m.TasksCommitted == 0 {
		return 0
	}
	return float64(m.CommittedInsts-m.SeqFallbackInsts) / float64(m.TasksCommitted)
}

// DynamicDistillationRatio returns master (distilled) instructions per
// committed original instruction — the dynamic size of the distilled
// program relative to the original, the paper's distillation-effectiveness
// measure, as observed at run time.
func (m *Metrics) DynamicDistillationRatio() float64 {
	if m.CommittedInsts == 0 {
		return 0
	}
	return float64(m.MasterInsts) / float64(m.CommittedInsts)
}

// MeanRunahead returns the mean number of in-flight tasks at spawn time —
// how far the master runs ahead of the commit point.
func (m *Metrics) MeanRunahead() float64 {
	if m.Forks == 0 {
		return 0
	}
	return float64(m.RunaheadSum) / float64(m.Forks)
}

// SlaveUtilization returns the fraction of slave-cycles spent computing
// committed tasks, given the slave count.
func (m *Metrics) SlaveUtilization(slaves int) float64 {
	if m.Cycles <= 0 || slaves <= 0 {
		return 0
	}
	return m.SlaveBusyCycles / (m.Cycles * float64(slaves))
}

// CheckpointWordsPerTask returns mean new checkpoint words per taken fork.
func (m *Metrics) CheckpointWordsPerTask() float64 {
	if m.Forks == 0 {
		return 0
	}
	return float64(m.CheckpointNew) / float64(m.Forks)
}

// LiveInWordsPerTask returns mean live-in words per committed task.
func (m *Metrics) LiveInWordsPerTask() float64 {
	if m.TasksCommitted == 0 {
		return 0
	}
	return float64(m.LiveInWords) / float64(m.TasksCommitted)
}

// LiveOutWordsPerTask returns mean live-out words per committed task.
func (m *Metrics) LiveOutWordsPerTask() float64 {
	if m.TasksCommitted == 0 {
		return 0
	}
	return float64(m.LiveOutWords) / float64(m.TasksCommitted)
}

// String gives a compact one-line summary for logs.
func (m *Metrics) String() string {
	return fmt.Sprintf("cycles=%.0f insts=%d tasks=%d commit-rate=%.3f distill-ratio=%.3f squashes=%d fallback=%d",
		m.Cycles, m.CommittedInsts, m.TasksCommitted, m.CommitRate(),
		m.DynamicDistillationRatio(), m.Squashes, m.SeqFallbackInsts)
}
