package core

import (
	"fmt"
	"testing"

	"mssp/internal/state"
	"mssp/internal/task"
)

// TestClassify pins the verify unit's precedence order, one row per adjacent
// pair: each row makes two (or more) squash causes hold at once and expects
// the higher-precedence one. It also checks that Classify is pure: the
// architected state, the task and its execution are bit-identical after the
// call.
func TestClassify(t *testing.T) {
	const pc = 100
	newArch := func() *state.State {
		s := state.New()
		s.PC = pc
		s.Regs[3] = 7
		s.Mem.Write(0x1000, 5)
		return s
	}
	liveIn := func(r3 uint64) *state.Delta {
		d := state.NewDelta()
		d.SetReg(3, r3)
		d.SetMem(0x1000, 5)
		return d
	}
	consistent, stale := liveIn(7), liveIn(8)
	inject := func(drop, force bool) *FaultInjection {
		return &FaultInjection{
			DropCompletion: func(uint64) bool { return drop },
			ForceFallback:  func(uint64) bool { return force },
		}
	}

	cases := []struct {
		name    string
		start   uint64
		outcome task.Outcome
		liveIn  *state.Delta
		fault   *FaultInjection
		reason  string
		force   bool
	}{
		{"drop beats forced", pc + 1, task.OutcomeFault, stale, inject(true, true), SquashDropped, false},
		{"forced beats start-mismatch", pc + 1, task.OutcomeFault, stale, inject(false, true), SquashForced, true},
		{"start-mismatch beats overflow", pc + 1, task.OutcomeOverflow, stale, inject(false, false), SquashStartMismatch, false},
		{"overflow beats livein", pc, task.OutcomeOverflow, stale, nil, SquashOverflow, false},
		{"fault beats livein", pc, task.OutcomeFault, stale, nil, SquashFault, false},
		{"nonspec beats livein", pc, task.OutcomeNonSpec, stale, nil, SquashNonSpec, true},
		{"livein beats commit", pc, task.OutcomeReachedEnd, stale, nil, SquashLiveIn, false},
		{"commit", pc, task.OutcomeReachedEnd, consistent, inject(false, false), "", false},
		{"commit at halt", pc, task.OutcomeHalted, consistent, nil, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			arch := newArch()
			tk := &task.Task{ID: 9, Start: c.start}
			ex := &task.Exec{Outcome: c.outcome, Steps: 40, LiveIn: c.liveIn, LiveOut: liveIn(11)}
			digest := func() string {
				return fmt.Sprintf("%x %d/%d %v/%d %s %s",
					arch.Digest(), tk.ID, tk.Start, ex.Outcome, ex.Steps, ex.LiveIn, ex.LiveOut)
			}
			before := digest()

			v := Classify(arch, tk, ex, c.fault)

			if v.Reason != c.reason || v.ForceFallback != c.force {
				t.Errorf("verdict = {%q force=%v}, want {%q force=%v}", v.Reason, v.ForceFallback, c.reason, c.force)
			}
			if (v.Inconsistency != nil) != (c.reason == SquashLiveIn) {
				t.Errorf("Inconsistency = %v for reason %q", v.Inconsistency, v.Reason)
			}
			if v.Inconsistency != nil && v.Inconsistency.Cell != "r3" {
				t.Errorf("Inconsistency cell = %q, want r3", v.Inconsistency.Cell)
			}
			if after := digest(); after != before {
				t.Errorf("Classify mutated its inputs:\n before %s\n after  %s", before, after)
			}
		})
	}
}
