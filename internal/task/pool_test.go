package task

import (
	"sync"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/state"
)

// memSrc touches memory as well as registers so pooled runs exercise the
// live-out store, live-in overlay and checkpoint reader paths.
const memSrc = `
	        ldi  r1, 5          ; 0
	        ldi  r3, 100        ; 1
	loop:   ld   r4, 0(r3)      ; 2
	        add  r4, r4, r1     ; 3
	        st   r4, 0(r3)      ; 4
	        addi r3, r3, 1      ; 5
	        addi r1, r1, -1     ; 6
	        bnez r1, loop       ; 7
	        halt                ; 8
`

func sameExec(t *testing.T, got, want *Exec, ctx string) {
	t.Helper()
	if got.Outcome != want.Outcome || got.Steps != want.Steps {
		t.Fatalf("%s: %v/%d steps, want %v/%d", ctx, got.Outcome, got.Steps, want.Outcome, want.Steps)
	}
	if !got.LiveIn.Equal(want.LiveIn) {
		t.Fatalf("%s: live-in %s, want %s", ctx, got.LiveIn, want.LiveIn)
	}
	if !got.LiveOut.Equal(want.LiveOut) {
		t.Fatalf("%s: live-out %s, want %s", ctx, got.LiveOut, want.LiveOut)
	}
}

// Pooled execution must be observationally identical to unpooled execution,
// including on reuse (the second and later lives of the same scratch).
func TestPoolExecuteEquivalence(t *testing.T) {
	var p Pool
	for _, withCode := range []bool{true, false} {
		mk := mkCoded(t, memSrc, 0, 0, false)
		for life := 0; life < 3; life++ {
			tk := mk()
			if !withCode {
				tk.Code = nil
			}
			want := mk().Execute(1000)
			got := p.Execute(tk, 1000)
			sameExec(t, got, want, "pooled vs unpooled")
			p.Release(got)
		}
	}
}

// Exec lifetime contract: results stay valid until Release even when
// another execution is in flight on a different scratch.
func TestPoolDistinctScratchPerInflightExec(t *testing.T) {
	var p Pool
	mk := mkCoded(t, memSrc, 0, 0, false)
	a := p.Execute(mk(), 1000)
	b := p.Execute(mk(), 1000)
	sameExec(t, a, b, "two in-flight pooled runs")
	p.Release(a)
	p.Release(b)
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	var p Pool
	mk := mkCoded(t, memSrc, 0, 0, false)
	ex := p.Execute(mk(), 1000)
	p.Release(ex)
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	p.Release(ex)
}

func TestPoolReleaseUnpooledNoop(t *testing.T) {
	var p Pool
	mk := mkCoded(t, memSrc, 0, 0, false)
	ex := mk().Execute(1000)
	p.Release(ex) // must not panic or enqueue anything
	p.Release(nil)
	if len(p.scr) != 0 {
		t.Error("unpooled Exec ended up on the free list")
	}
}

// Steady-state pooled execution of a predecoded task allocates nothing: this
// is the claim behind the task/delta_allocs benchmark entry and the CI alloc
// gate.
func TestPoolExecuteZeroAlloc(t *testing.T) {
	var p Pool
	prog := asm.MustAssemble(memSrc)
	arch := state.NewFromProgram(prog, 1<<19)
	code := isa.Predecode(prog)
	ck := Checkpoint{Regs: arch.Regs, MemDiff: mem.NewOverlay()}
	snap := arch.Clone()
	tk := &Task{Start: 0, Checkpoint: ck, Snap: snap, Code: code}

	allocs := testing.AllocsPerRun(100, func() {
		ex := p.Execute(tk, 1000)
		if ex.Outcome != OutcomeHalted {
			t.Fatalf("outcome = %v, want halted", ex.Outcome)
		}
		p.Release(ex)
	})
	if allocs != 0 {
		t.Errorf("pooled Execute allocates %v per run, want 0", allocs)
	}
}

func TestPoolCloneState(t *testing.T) {
	var p Pool
	src := state.New()
	src.WriteReg(1, 11)
	src.Mem.Write(50, 5)

	a := p.CloneState(src)
	if !a.Equal(src) {
		t.Fatal("CloneState copy not equal to source")
	}
	p.ReleaseState(a)
	src.Mem.Write(50, 6)
	b := p.CloneState(src) // recycles a's map
	if b.Mem.Read(50) != 6 || b.ReadReg(1) != 11 {
		t.Error("recycled CloneState has wrong contents")
	}
	src.Mem.Write(50, 7)
	if b.Mem.Read(50) != 6 {
		t.Error("recycled clone sees later source writes")
	}
	p.ReleaseState(b)
	p.ReleaseState(nil) // no-op
}

// One pool shared by many goroutines, each running tasks that share one
// checkpoint's view, two chains of layers over a frozen base, which each
// slave's table reads — the parallel engine's exact usage. Run under -race
// this proves the pool locking and the sharing of the view sound.
func TestPoolConcurrentSharedCheckpoint(t *testing.T) {
	var p Pool
	prog := asm.MustAssemble(memSrc)
	arch := state.NewFromProgram(prog, 1<<19)
	code := isa.Predecode(prog)

	master := mem.NewOverlay()
	master.Set(100, 40) // seen by every task's first load
	frozen := master.Snapshot()
	prev := (*mem.Layer)(nil).With(101, 41).With(102, 1)
	top := (*mem.Layer)(nil).With(102, 42)
	ck := Checkpoint{Regs: arch.Regs, MemDiff: frozen, Prev: prev, Layers: top}

	want := (&Task{Start: 0, Checkpoint: ck, Snap: arch.Clone(), Code: code}).Execute(1000)
	for a, v := range map[uint64]uint64{100: 40, 101: 41, 102: 42, 103: 0} {
		if got, _ := want.LiveIn.MemVal(a); got != v {
			t.Fatalf("live-in m%d = %d, want %d", a, got, v)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		// Each worker gets its own snapshot-family member to clone from, and
		// its own copy of the expected deltas to compare against: a single
		// Memory or Table value must stay goroutine-confined, because even
		// Read and Load move their page caches.
		base := arch.Clone()
		wantIn, wantOut := want.LiveIn.Clone(), want.LiveOut.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tk := &Task{
					Start:      0,
					Checkpoint: ck,
					Snap:       base.Clone(),
					Code:       code,
				}
				ex := p.Execute(tk, 1000)
				if ex.Outcome != want.Outcome || !ex.LiveOut.Equal(wantOut) || !ex.LiveIn.Equal(wantIn) {
					errs <- errMismatch
					p.Release(ex)
					return
				}
				p.Release(ex)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

var errMismatch = errString("pooled concurrent execution diverged")

type errString string

func (e errString) Error() string { return string(e) }
