package main

import (
	"fmt"
	"time"

	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/state"
	"mssp/internal/task"
)

// replay is the online replay pass: an OnCommit hook that re-executes each
// commit against a shadow state the benchmark owns, timing the task and
// state layers through their public calls. It never keeps more than the
// task in hand.
type replay struct {
	it     *item
	shadow *state.State
	pool   task.Pool
	empty  *mem.Overlay // the exact checkpoint's (empty) memory diff
	seq    *cpu.Code    // fallback chunks, one runner for the whole run
	replayTimes
	err error
}

// replayTimes is what the replay pass measured.
type replayTimes struct {
	snap, exec, verify, apply, fallback time.Duration
	tasks, taskInsts                    uint64
}

func (t *replayTimes) add(o replayTimes) {
	t.snap += o.snap
	t.exec += o.exec
	t.verify += o.verify
	t.apply += o.apply
	t.fallback += o.fallback
	t.tasks += o.tasks
	t.taskInsts += o.taskInsts
}

func newReplay(it *item) *replay {
	return &replay{
		it:     it,
		shadow: state.NewFromProgram(it.orig, it.cfg.SP),
		empty:  mem.NewOverlay(),
		seq:    cpu.NewCode(it.seqCode),
	}
}

// onCommit replays one commit: a task runs from an exact checkpoint (the
// shadow's registers and an empty diff) over a pooled snapshot of the
// shadow, bounded by the commit's step count; its live-ins must verify and
// its live-outs are applied. Fallback chunks replay on the sequential core.
func (r *replay) onCommit(ev core.CommitEvent) {
	if r.err != nil {
		return
	}
	if ev.Kind != "task" {
		start := time.Now()
		res, err := r.seq.RunState(r.shadow, ev.Steps)
		r.fallback += time.Since(start)
		if err == nil && res.Steps != ev.Steps {
			err = fmt.Errorf("replayed %d of %d fallback instructions", res.Steps, ev.Steps)
		}
		r.err = err
		return
	}
	if ev.Start != r.shadow.PC {
		r.err = fmt.Errorf("task %d starts at %d, shadow at %d", ev.TaskID, ev.Start, r.shadow.PC)
		return
	}
	t0 := time.Now()
	snap := r.pool.CloneState(r.shadow)
	t1 := time.Now()
	tk := &task.Task{
		ID:         ev.TaskID,
		Start:      ev.Start,
		Checkpoint: task.Checkpoint{Regs: r.shadow.Regs, MemDiff: r.empty},
		Snap:       snap,
		Code:       r.it.slaveCode,
		NonSpec:    r.it.cfg.NonSpecRegions,
	}
	ex := r.pool.Execute(tk, ev.Steps)
	t2 := time.Now()
	inc := r.shadow.FirstInconsistency(ex.LiveIn)
	t3 := time.Now()
	r.shadow.Apply(ex.LiveOut)
	t4 := time.Now()
	r.snap += t1.Sub(t0)
	r.exec += t2.Sub(t1)
	r.verify += t3.Sub(t2)
	r.apply += t4.Sub(t3)
	r.tasks++
	r.taskInsts += ex.Steps
	switch {
	case ex.Steps != ev.Steps:
		r.err = fmt.Errorf("task %d replayed %d of %d instructions", ev.TaskID, ex.Steps, ev.Steps)
	case inc != nil:
		r.err = fmt.Errorf("task %d: exact replay's live-ins do not verify: %v", ev.TaskID, inc)
	}
	r.pool.Release(ex)
	r.pool.ReleaseState(snap)
}

// solo is what a solo-master pass measured.
type solo struct {
	exec, ckpt   time.Duration
	insts, fused uint64
	forks        uint64
}

// masterStart rebuilds the master's first life the way the engines' reseed
// does: a snapshot of the initial architected memory with the distilled
// code copied over it, entered at the distilled twin of the entry point.
func masterStart(it *item) (*state.State, bool) {
	arch := state.NewFromProgram(it.orig, it.cfg.SP)
	dpc, ok := it.dist.OrigToDist[arch.PC]
	if !ok {
		return nil, false
	}
	img := arch.Mem.Snapshot()
	img.CopyWords(it.dist.Prog.Code.Base, it.dist.Prog.Code.Words)
	return &state.State{Regs: arch.Regs, PC: dpc, Mem: img}, true
}

// translate maps a distilled-code jalr target the way the masters do,
// reporting false when the master would be lost.
func translate(it *item, st *state.State) bool {
	if dpc, ok := it.dist.OrigToDist[st.PC]; ok {
		st.PC = dpc
		return true
	}
	return it.dist.Prog.InCode(st.PC)
}

// soloRunToStop runs the parallel engine's master alone, from the program's
// start to halt (or until it gets lost): the devirtualized RunToStop loop
// over the elided distilled table, the engine's fork-spacing and run-ahead
// rules, and a checkpoint — memory diff, overlay snapshot, memory snapshot —
// at every taken fork that follows a store. With no slaves and no squashes
// it never reseeds, so its fork count approximates the engine's.
func soloRunToStop(it *item) solo {
	var r solo
	st, ok := masterStart(it)
	if !ok {
		return r
	}
	cfg := it.cfg
	code := cpu.NewCode(it.masterCode)
	diffBase := st.Mem.Snapshot()
	cum := mem.NewOverlay()
	since := uint64(1) << 62 // the first fork is always taken
	var stores uint64
	start := time.Now()
run:
	for {
		chunk := uint64(4096)
		if since <= cfg.MasterRunaheadCap {
			chunk = min(chunk, cfg.MasterRunaheadCap-since+1)
		} else {
			chunk = 1
		}
		res, err := code.RunToStop(st, chunk)
		r.insts += res.Steps
		r.fused += res.Fused
		since += res.Steps
		stores += res.Stores
		if err != nil {
			break
		}
		switch res.Kind {
		case cpu.StopHalt:
			break run
		case cpu.StopFork:
			if since <= cfg.MinTaskSpacing {
				break
			}
			since = 0
			r.forks++
			if stores > 0 {
				t := time.Now()
				st.Mem.Diff(diffBase, func(a, v, _ uint64) { cum.Set(a, v) })
				_ = cum.Snapshot()
				diffBase = st.Mem.Snapshot()
				r.ckpt += time.Since(t)
				stores = 0
			}
		case cpu.StopJalr:
			if !translate(it, st) {
				break run
			}
		}
		if since > cfg.MasterRunaheadCap {
			break
		}
	}
	r.exec = time.Since(start) - r.ckpt
	return r
}

// soloStep runs the deterministic engine's master alone: Code.Step through
// a StateEnv over the plain predecoded distilled program, with the same
// fork and translation rules.
func soloStep(it *item) solo {
	var r solo
	st, ok := masterStart(it)
	if !ok {
		return r
	}
	cfg := it.cfg
	code := cpu.NewCode(isa.Predecode(it.dist.Prog))
	env := cpu.StateEnv{S: st}
	since := uint64(1) << 62
	start := time.Now()
run:
	for {
		in, err := code.Step(env)
		if err != nil {
			break
		}
		r.insts++
		since++
		switch in.Op {
		case isa.OpHalt:
			break run
		case isa.OpFork:
			if since > cfg.MinTaskSpacing {
				since = 0
				r.forks++
			}
		case isa.OpJalr:
			if !translate(it, st) {
				break run
			}
		}
		if since > cfg.MasterRunaheadCap {
			break
		}
	}
	r.exec = time.Since(start)
	return r
}
