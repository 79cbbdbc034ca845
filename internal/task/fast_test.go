package task

import (
	"testing"

	"mssp/internal/asm"
	"mssp/internal/cpu"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// runBoth executes the same task once per path — fused (the production
// table, superinstruction dispatch included), plain predecoded (fused table
// stripped), and Env-stepping (no table) — and requires identical results.
// Returns the fused-path Exec.
func runBoth(t *testing.T, mk func() *Task, cap uint64) *Exec {
	t.Helper()
	fusedTask := mk()
	if fusedTask.Code == nil {
		t.Fatal("runBoth caller must set Code")
	}
	plainTask := mk()
	plainTask.Code.SetFused(nil)
	slowTask := mk()
	slowTask.Code = nil

	fused := fusedTask.Execute(cap)
	for _, leg := range []struct {
		name string
		ex   *Exec
	}{
		{"plain", plainTask.Execute(cap)},
		{"slow", slowTask.Execute(cap)},
	} {
		if fused.Outcome != leg.ex.Outcome || fused.Steps != leg.ex.Steps {
			t.Fatalf("fused %v/%d steps != %s %v/%d steps",
				fused.Outcome, fused.Steps, leg.name, leg.ex.Outcome, leg.ex.Steps)
		}
		if !fused.LiveIn.Equal(leg.ex.LiveIn) {
			t.Fatalf("live-in divergence:\nfused %s\n%s %s", fused.LiveIn, leg.name, leg.ex.LiveIn)
		}
		if !fused.LiveOut.Equal(leg.ex.LiveOut) {
			t.Fatalf("live-out divergence:\nfused %s\n%s %s", fused.LiveOut, leg.name, leg.ex.LiveOut)
		}
	}
	return fused
}

// mkCoded is mkTask plus a fused predecode table — deliberately built with
// no anchor set, so the run loop's end-anchor guards carry the whole
// correctness burden (production tables additionally exclude known anchors
// from group interiors).
func mkCoded(t *testing.T, src string, start, end uint64, hasEnd bool) func() *Task {
	t.Helper()
	p := asm.MustAssemble(src)
	return func() *Task {
		arch := state.NewFromProgram(p, 1<<19)
		arch.PC = start
		return &Task{
			Start:  start,
			End:    end,
			HasEnd: hasEnd,
			Checkpoint: Checkpoint{
				Regs:    arch.Regs,
				MemDiff: mem.NewOverlay(),
			},
			Snap: arch.Clone(),
			Code: fuse.Predecode(p, fuse.Options{}),
		}
	}
}

func TestExecuteFastSlowEquivalence(t *testing.T) {
	t.Run("halt", func(t *testing.T) {
		ex := runBoth(t, mkCoded(t, sumSrc, 0, 0, false), 1000)
		if ex.Outcome != OutcomeHalted || ex.Steps != 17 {
			t.Errorf("got %v/%d, want halted/17", ex.Outcome, ex.Steps)
		}
	})
	t.Run("reached-end", func(t *testing.T) {
		mk := mkCoded(t, sumSrc, 1, 1, true)
		wrap := func() *Task {
			tk := mk()
			tk.Checkpoint.Regs[1] = 5
			tk.Snap.WriteReg(1, 5)
			return tk
		}
		if ex := runBoth(t, wrap, 1000); ex.Outcome != OutcomeReachedEnd || ex.Steps != 3 {
			t.Errorf("got %v/%d, want reached-end/3", ex.Outcome, ex.Steps)
		}
	})
	t.Run("end-count", func(t *testing.T) {
		mk := mkCoded(t, sumSrc, 1, 1, true)
		wrap := func() *Task {
			tk := mk()
			tk.EndCount = 2
			tk.Checkpoint.Regs[1] = 5
			tk.Snap.WriteReg(1, 5)
			return tk
		}
		if ex := runBoth(t, wrap, 1000); ex.Outcome != OutcomeReachedEnd || ex.Steps != 6 {
			t.Errorf("got %v/%d, want reached-end/6 (two iterations)", ex.Outcome, ex.Steps)
		}
	})
	t.Run("overflow", func(t *testing.T) {
		if ex := runBoth(t, mkCoded(t, "spin: j spin\nhalt", 0, 1, true), 50); ex.Outcome != OutcomeOverflow {
			t.Errorf("got %v, want overflow", ex.Outcome)
		}
	})
	t.Run("fault", func(t *testing.T) {
		mk := mkCoded(t, "halt", 0, 0, false)
		wrap := func() *Task {
			tk := mk()
			tk.Start = 999
			tk.Snap.Mem.Write(999, ^uint64(0))
			return tk
		}
		if ex := runBoth(t, wrap, 10); ex.Outcome != OutcomeFault {
			t.Errorf("got %v, want fault", ex.Outcome)
		}
	})
	t.Run("nonspec", func(t *testing.T) {
		src := `
			ldi r1, 700
			ld  r2, 0(r1)
			halt
		`
		mk := mkCoded(t, src, 0, 0, false)
		wrap := func() *Task {
			tk := mk()
			tk.NonSpec = []AddrRange{{Lo: 700, Hi: 710}}
			return tk
		}
		if ex := runBoth(t, wrap, 10); ex.Outcome != OutcomeNonSpec {
			t.Errorf("got %v, want nonspec", ex.Outcome)
		}
	})
	t.Run("livein-capture", func(t *testing.T) {
		src := `
			start:  add  r3, r1, r2
			        ldi  r1, 9
			        add  r4, r1, r1
			        ld   r5, 0(r6)
			        st   r5, 1(r6)
			        ld   r7, 1(r6)
			        halt
		`
		mk := mkCoded(t, src, 0, 0, false)
		wrap := func() *Task {
			tk := mk()
			tk.Checkpoint.Regs[1] = 10
			tk.Checkpoint.Regs[2] = 20
			tk.Checkpoint.Regs[6] = 100
			tk.Snap.Mem.Write(100, 77)
			return tk
		}
		ex := runBoth(t, wrap, 100)
		if v, ok := ex.LiveIn.MemVal(100); !ok || v != 77 {
			t.Errorf("live-in m100 = %d,%v, want 77", v, ok)
		}
	})
	t.Run("self-modifying-store", func(t *testing.T) {
		// A store into the predecoded range must drop the fast path without
		// changing semantics: slave fetches always come from the frozen
		// snapshot, so both paths still see the original instruction at the
		// stored-to address.
		p := &isa.Program{
			Entry: 0,
			Code: isa.Segment{Base: 0, Words: []uint64{
				isa.Encode(isa.Inst{Op: isa.OpLdi, Rd: 1, Imm: int64(isa.Encode(isa.Inst{Op: isa.OpLdi, Rd: 3, Imm: 42}))}),
				isa.Encode(isa.Inst{Op: isa.OpSt, Rs1: 0, Rs2: 1, Imm: 3}),
				isa.Encode(isa.Inst{Op: isa.OpNop}),
				isa.Encode(isa.Inst{Op: isa.OpHalt}),
			}},
		}
		mk := func() *Task {
			arch := state.NewFromProgram(p, 1<<19)
			return &Task{
				Start:      0,
				Checkpoint: Checkpoint{Regs: arch.Regs, MemDiff: mem.NewOverlay()},
				Snap:       arch.Clone(),
				Code:       fuse.Predecode(p, fuse.Options{}),
			}
		}
		if ex := runBoth(t, mk, 100); ex.Outcome != OutcomeHalted {
			t.Errorf("got %v, want halted", ex.Outcome)
		}
	})
}

// everyKindSrc holds all six fused kinds in a table built with no anchor
// set: ldi pairs (alu+alu), a two- and a three-component counted loop
// (alu+br, alu+alu+br), the six-instruction read-modify-write loop (ld+op+st
// at its head, op+st one slot in), ld+op, and a plain ld+op+st. It ends in a
// halt that names a register no instruction writes: halt does not read rs1,
// so r4 must never become a live-in.
const everyKindSrc = `
	        ldi  r1, 3          ; 0
	        ldi  r6, 100        ; 1
	        ldi  r2, 4          ; 2
	l1:     addi r2, r2, -1     ; 3
	        bnez r2, l1         ; 4
	        ldi  r2, 3          ; 5
	l2:     addi r3, r3, 1      ; 6
	        addi r2, r2, -1     ; 7
	        bnez r2, l2         ; 8
	        ldi  r7, 3          ; 9
	l3:     ld   r5, 0(r6)      ; 10
	        add  r5, r5, r1     ; 11
	        st   r5, 0(r6)      ; 12
	        addi r6, r6, 1      ; 13
	        addi r7, r7, -1     ; 14
	        bnez r7, l3         ; 15
	        ld   r8, 0(r6)      ; 16
	        addi r8, r8, 2      ; 17
	        ld   r9, 1(r6)      ; 18
	        add  r9, r9, r8     ; 19
	        st   r9, 1(r6)      ; 20
	        halt r4, 7          ; 21
`

// TestExecuteFusedBudgetSweep overflows fused execution at every cap from 1
// up to past-halt: the budget must be able to expire at any offset inside a
// fused group (the dispatcher declines groups that do not fit and executes
// the tail singly) with step counts and live sets identical to the slow path.
// Over a table holding every fused kind it also puts the end anchor at every
// pc, consumed once and twice, so the fused end guard — a capturing run
// declines a group whose interior holds its end anchor — meets every budget.
func TestExecuteFusedBudgetSweep(t *testing.T) {
	for cap := uint64(1); cap <= 20; cap++ {
		runBoth(t, mkCoded(t, sumSrc, 0, 0, false), cap)
	}

	kinds := make(map[isa.FuseKind]bool)
	for _, f := range mkCoded(t, everyKindSrc, 0, 0, false)().Code.FusedTable() {
		kinds[f.Kind] = true
	}
	for k := isa.FuseAluAlu; k.String() != "fuse(?)"; k++ {
		if !kinds[k] {
			t.Fatalf("sweep program's fused table lacks %v", k)
		}
	}
	halt := runBoth(t, mkCoded(t, everyKindSrc, 0, 0, false), 1000)
	if halt.Outcome != OutcomeHalted {
		t.Fatalf("sweep program: got %v, want halted", halt.Outcome)
	}
	for end := uint64(0); end <= 21; end++ {
		for count := uint64(1); count <= 2; count++ {
			mk := mkCoded(t, everyKindSrc, 0, end, true)
			for cap := uint64(1); cap <= halt.Steps+1; cap++ {
				ex := runBoth(t, func() *Task {
					tk := mk()
					tk.EndCount = count
					return tk
				}, cap)
				if _, ok := ex.LiveIn.Reg(4); ok {
					t.Fatalf("end %d count %d cap %d: halt's rs1 became a live-in", end, count, cap)
				}
			}
		}
	}
}

// TestExecuteCancelFusedLoop pins cancel-poll liveness under fused dispatch:
// a counted loop retiring one fused group per iteration still meets the poll
// boundary, so Cancel fires within roughly one poll period.
func TestExecuteCancelFusedLoop(t *testing.T) {
	src := `
	        ldi  r1, 1000000
	loop:   addi r2, r2, 1
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
	`
	tk := mkCoded(t, src, 0, 0, false)()
	calls := 0
	tk.Cancel = func() bool {
		calls++
		return calls > 2 // let a couple of poll periods run first
	}
	ex := tk.Execute(1 << 20)
	if ex.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %v, want canceled", ex.Outcome)
	}
	// Three polls at ~256-step boundaries, each overshooting by at most one
	// group: well under four periods.
	if ex.Steps == 0 || ex.Steps >= 4*256 {
		t.Fatalf("steps = %d, want within a few poll periods", ex.Steps)
	}
}

func TestExecuteCancel(t *testing.T) {
	for _, withCode := range []bool{true, false} {
		mk := mkCoded(t, "spin: j spin\nhalt", 0, 1, true)
		tk := mk()
		if !withCode {
			tk.Code = nil
		}
		calls := 0
		tk.Cancel = func() bool {
			calls++
			return calls > 2 // let a couple of poll periods run first
		}
		ex := tk.Execute(1 << 20)
		if ex.Outcome != OutcomeCanceled {
			t.Errorf("withCode=%v: outcome = %v, want canceled", withCode, ex.Outcome)
		}
		if ex.Steps == 0 || ex.Steps >= 1<<20 {
			t.Errorf("withCode=%v: steps = %d, want a few poll periods", withCode, ex.Steps)
		}
	}
}

// TestExecuteWorkloadEquivalence runs every Train workload as one open task —
// the whole program from its entry, an exact checkpoint, no end anchor —
// through all three slave paths, and holds the result against the
// sequential core: the task halts, its live-ins verify against the snapshot
// it started from, and committing its live-outs reproduces cpu.Seq's final
// state.
func TestExecuteWorkloadEquivalence(t *testing.T) {
	const cap = 50_000_000
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(workloads.Train)
			code := fuse.Predecode(p, fuse.Options{})
			var snap *state.State
			ex := runBoth(t, func() *Task {
				arch := state.NewFromProgram(p, 1<<28)
				if snap == nil {
					snap = arch
				}
				return &Task{
					Start:      arch.PC,
					Checkpoint: Checkpoint{Regs: arch.Regs, MemDiff: mem.NewOverlay()},
					Snap:       arch,
					Code:       code,
				}
			}, cap)
			if ex.Outcome != OutcomeHalted {
				t.Fatalf("outcome %v after %d steps, want halted", ex.Outcome, ex.Steps)
			}
			if inc := snap.FirstInconsistency(ex.LiveIn); inc != nil {
				t.Fatalf("live-ins do not verify against the snapshot: %v", inc)
			}
			seq := state.NewFromProgram(p, 1<<28)
			if _, err := cpu.Seq(seq, cap); err != nil {
				t.Fatal(err)
			}
			snap.Apply(ex.LiveOut)
			if !snap.Equal(seq) {
				t.Fatalf("snapshot with live-outs applied differs from cpu.Seq's final state")
			}
		})
	}
}
