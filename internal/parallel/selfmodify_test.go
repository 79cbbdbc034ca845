package parallel_test

import (
	"testing"

	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/parallel"
	"mssp/internal/state"
)

// selfModifySrc writes its own code when the flag word at 1000 is set: its
// first iteration stores a zero word, a no-op, over the loop's first
// instruction, so only that iteration adds 3 and r4 ends at 3.
const selfModifySrc = `
	        ldi  r2, 3000         ; 0
	        ldi  r4, 0            ; 1
	loop:   addi r4, r4, 3        ; 2
	        ld   r1, 1000(r0)     ; 3: the flag
	        beq  r1, r0, next     ; 4
	        st   r0, 2(r0)        ; 5
	next:   addi r2, r2, -1       ; 6
	        bnez r2, loop         ; 7
	        st   r4, 1001(r0)     ; 8
	        halt                  ; 9
	.data
	.org 1000
	        .word 1
	        .word 0
`

// TestSelfModifyingCode runs selfModifySrc on both
// engines, with and without the predecoded tables. Slaves fetch their code
// from their tables or snapshots, so the task whose live-out changes the
// loop's code may have run the old instruction after its store, and every
// task admitted before its commit ran it. The verify unit must squash the
// writing task, and with it every younger one, as a live-in on the written
// word, and sequential mode performs the write; the run must end as the
// sequential run does.
func TestSelfModifyingCode(t *testing.T) {
	h := prep(t, selfModifySrc, 40, distill.DefaultOptions())
	want := state.NewFromProgram(h.orig, core.DefaultConfig().SP)
	if _, err := cpu.Seq(want, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if want.Regs[4] != 3 {
		t.Fatalf("the sequential run ends with r4 = %d, want 3", want.Regs[4])
	}
	for _, engine := range []string{"det", "parallel"} {
		for _, fast := range []bool{true, false} {
			cfg := core.DefaultConfig()
			cfg.Slaves = 2
			cfg.DisableFastPath = !fast
			codeSquashes := 0
			cfg.OnSquash = func(ev core.SquashEvent) {
				if ev.Reason == core.SquashLiveIn && ev.Inconsistency != nil && ev.Inconsistency.Cell == "m2" {
					codeSquashes++
				}
			}
			var final *state.State
			if engine == "det" {
				m, err := core.New(h.orig, h.dist, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				final = res.Final
			} else {
				res, err := parallel.Run(h.orig, h.dist, cfg)
				if err != nil {
					t.Fatal(err)
				}
				final = res.Final
			}
			if !final.Equal(want) {
				t.Errorf("%s, fast path %v: final state differs from the sequential run (r4 = %d, want %d)",
					engine, fast, final.Regs[4], want.Regs[4])
			}
			if codeSquashes == 0 {
				t.Errorf("%s, fast path %v: no task was squashed on the written code word", engine, fast)
			}
		}
	}
}
