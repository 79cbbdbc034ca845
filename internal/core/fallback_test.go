package core

import (
	"testing"

	"mssp/internal/asm"
	"mssp/internal/distill"
)

// fallbackRetirer initializes a retirer over src whose anchor set is the
// given one; Fallback reads nothing else of the distillation.
func fallbackRetirer(t *testing.T, src string, anchors []uint64, cfg Config) *Retirer {
	t.Helper()
	p := asm.MustAssemble(src)
	var r Retirer
	if err := r.Init(p, &distill.Result{Prog: p, Anchors: anchors}, cfg, func(uint64) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestFallbackStopRule pins sequential mode's stop rule, on the fused and
// unfused tables and with no table: it stops at every arrival at an anchor,
// a fall-through into one mid-block included, ends the run at a halt or a
// fault, runs at most 4×MaxTaskLen instructions, and a store into the code
// segment executes the rewritten word and stops new tasks from getting the
// predecoded table.
func TestFallbackStopRule(t *testing.T) {
	const anchored = `
	        ldi  r1, 1          ; 0
	        addi r2, r2, 1      ; 1
	mid:    addi r2, r2, 1      ; 2: anchor, reached by falling through
	        beq  r0, r0, tgt    ; 3
	        halt                ; 4
	tgt:    addi r3, r3, 1      ; 5: anchor, reached by a taken branch
	        halt                ; 6
	`
	const faulting = `
	        ldi  r2, 1000       ; 0
	        jr   r2             ; 1: into a data word that does not decode
	        halt
	.data
	.org 1000
	        .word -1
	`
	const spinning = `
	spin:   addi r1, r1, 1
	        j    spin
	        halt
	`
	const selfModifying = `
	        ldi  r1, 1          ; 0
	        st   r0, 3(r0)      ; 1: code[3] = 0, a nop
	        nop                 ; 2
	        ldi  r1, 2          ; 3: rewritten before it executes
	        halt                ; 4
	`
	type leg struct {
		steps, pc uint64
		done      bool
	}
	cases := []struct {
		name    string
		src     string
		anchors []uint64
		legs    []leg
		check   func(t *testing.T, r *Retirer)
	}{
		{name: "anchors", src: anchored, anchors: []uint64{2, 5},
			legs: []leg{{2, 2, false}, {2, 5, false}, {2, 6, true}}},
		{name: "fault", src: faulting, legs: []leg{{2, 1000, true}}},
		{name: "bound", src: spinning, legs: []leg{{20, 0, false}},
			check: func(t *testing.T, r *Retirer) {
				if r.Arch.Regs[1] != 10 {
					t.Errorf("r1 = %d, want 10", r.Arch.Regs[1])
				}
			}},
		{name: "self-modifying", src: selfModifying, legs: []leg{{5, 4, true}},
			check: func(t *testing.T, r *Retirer) {
				if r.Arch.Regs[1] != 1 {
					t.Errorf("r1 = %d, want 1: the rewritten word must execute", r.Arch.Regs[1])
				}
				if r.taskCode() != nil {
					t.Error("a store into the code segment left the code clean")
				}
			}},
	}
	for _, table := range []string{"fused", "unfused", "none"} {
		for _, tc := range cases {
			t.Run(table+"/"+tc.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.MaxTaskLen = 5
				cfg.DisableFusion = table == "unfused"
				cfg.DisableFastPath = table == "none"
				r := fallbackRetirer(t, tc.src, tc.anchors, cfg)
				if clean := r.taskCode() != nil; clean == cfg.DisableFastPath {
					t.Fatalf("fresh retirer: clean code = %v", clean)
				}
				var total uint64
				for i, want := range tc.legs {
					steps := r.Fallback()
					total += steps
					if got := (leg{steps, r.Arch.PC, r.Done}); got != want {
						t.Fatalf("leg %d: steps, pc, done = %v, want %v", i, got, want)
					}
				}
				if r.Metrics.SeqFallbackInsts != total || r.Metrics.CommittedInsts != total {
					t.Errorf("metrics count %d fallback and %d committed instructions, want %d",
						r.Metrics.SeqFallbackInsts, r.Metrics.CommittedInsts, total)
				}
				if tc.check != nil {
					tc.check(t, r)
				}
			})
		}
	}
}
