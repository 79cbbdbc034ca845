// Package obs is the structured observability layer: it turns the MSSP
// machine's task-lifecycle hook (core.Config.OnLifecycle) into a typed
// event stream that sinks consume — a JSONL file for offline analysis
// (cmd/msspsim -trace, cmd/experiments -trace), the chaos harness's
// taxonomy coverage counter (chaos.Coverage), or the ASCII timeline
// recorder (internal/trace), which is one consumer of this stream.
//
// The event schema is documented in docs/OBSERVABILITY.md; it is stable
// and round-trips through JSONL (see ParseJSONL).
package obs

import (
	"mssp/internal/core"
)

// Kind classifies a lifecycle event. The values mirror the machine's
// core.Lifecycle* constants; together they form the task state machine
// fork → dispatch → verify → commit|squash, with fallback-enter/-exit
// bracketing sequential (non-speculative) mode.
type Kind string

// The event kinds, in the order a single task experiences them.
const (
	// KindFork is a taken FORK: the master spawned a task.
	KindFork Kind = core.LifecycleFork
	// KindDispatch is a slave beginning to execute a task.
	KindDispatch Kind = core.LifecycleDispatch
	// KindVerify is the commit unit beginning to verify a task's live-ins.
	KindVerify Kind = core.LifecycleVerify
	// KindCommit is a verified task advancing architected state.
	KindCommit Kind = core.LifecycleCommit
	// KindSquash is a failed verification; Reason carries the taxonomy.
	KindSquash Kind = core.LifecycleSquash
	// KindFallbackEnter is the machine entering sequential mode.
	KindFallbackEnter Kind = core.LifecycleFallbackEnter
	// KindFallbackExit is the machine leaving sequential mode.
	KindFallbackExit Kind = core.LifecycleFallbackExit
)

// NoTask is the Event.Task value of events that concern no task
// (fallback-enter and fallback-exit).
const NoTask int64 = -1

// Event is one task-lifecycle transition as emitted into sinks. It is the
// JSONL schema: one event per line, fields as tagged below, zero-valued
// optional fields omitted. See docs/OBSERVABILITY.md for the field-by-kind
// matrix.
type Event struct {
	// Seq is the event's position in its stream, dense from 0 per
	// attachment (one Attach numbers one machine run).
	Seq uint64 `json:"seq"`
	// Kind is the transition kind.
	Kind Kind `json:"kind"`
	// Cycle is the event's model time in cycles.
	Cycle float64 `json:"cycle"`
	// Task is the task's fork sequence number, or NoTask (-1) for
	// fallback events.
	Task int64 `json:"task"`
	// Start is the task's predicted original-program start PC (for
	// fallback-enter, the PC sequential execution resumes at).
	Start uint64 `json:"start,omitempty"`
	// Steps is the number of instructions committed (commit,
	// fallback-exit).
	Steps uint64 `json:"steps,omitempty"`
	// Reason is the squash taxonomy value: "livein", "overflow", "fault",
	// "nonspec" or "start-mismatch" (squash only).
	Reason string `json:"reason,omitempty"`
	// Halted reports the advance ended at a HALT (commit, fallback-exit).
	Halted bool `json:"halted,omitempty"`
	// Discarded is the number of younger tasks squashed alongside
	// (squash only).
	Discarded int `json:"discarded,omitempty"`
	// Slave is the slave processor index (dispatch only; absent means 0).
	Slave int `json:"slave,omitempty"`
	// Queue is the in-flight task count after a fork (fork only).
	Queue int `json:"queue,omitempty"`
	// Job labels the emitting run when one sink serves several (the
	// workload name in cmd/experiments -trace); empty for single-run sinks.
	Job string `json:"job,omitempty"`
}

// Sink consumes a stream of events. Emit is called from the machine's
// simulation goroutine; sinks shared across machines (the experiments JSONL
// file) must be safe for concurrent use, and the sinks in this package are.
type Sink interface {
	// Emit delivers one event. Implementations must not retain pointers
	// into ev (it is a value; retaining copies is fine).
	Emit(ev Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f(ev).
func (f SinkFunc) Emit(ev Event) { f(ev) }

// WithJob returns a sink that stamps every event's Job field before
// forwarding to s, so one shared sink can tell interleaved runs apart.
func WithJob(s Sink, job string) Sink {
	return SinkFunc(func(ev Event) {
		ev.Job = job
		s.Emit(ev)
	})
}

// Attach subscribes sink to cfg's lifecycle stream, chaining any hook
// already present (earlier subscribers keep firing first). Each Attach
// numbers its own stream: the first event it delivers has Seq 0.
func Attach(cfg *core.Config, sink Sink) {
	var seq uint64
	prev := cfg.OnLifecycle
	cfg.OnLifecycle = func(ev core.LifecycleEvent) {
		if prev != nil {
			prev(ev)
		}
		sink.Emit(fromLifecycle(ev, seq))
		seq++
	}
}

// fromLifecycle converts the machine's hook payload into the sink schema.
func fromLifecycle(ev core.LifecycleEvent, seq uint64) Event {
	task := int64(ev.TaskID)
	if ev.Kind == core.LifecycleFallbackEnter || ev.Kind == core.LifecycleFallbackExit {
		task = NoTask
	}
	return Event{
		Seq:       seq,
		Kind:      Kind(ev.Kind),
		Cycle:     ev.Cycle,
		Task:      task,
		Start:     ev.Start,
		Steps:     ev.Steps,
		Reason:    ev.Reason,
		Halted:    ev.Halted,
		Discarded: ev.Discarded,
		Slave:     ev.Slave,
		Queue:     ev.Queue,
	}
}
