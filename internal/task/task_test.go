package task

import (
	"testing"

	"mssp/internal/asm"
	"mssp/internal/cpu"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/state"
)

// mkTask builds a task over the given program with an empty checkpoint diff
// and registers copied from the architected snapshot (a trivially safe
// checkpoint).
func mkTask(t *testing.T, src string, start, end uint64, hasEnd bool) (*Task, *state.State) {
	t.Helper()
	p := asm.MustAssemble(src)
	arch := state.NewFromProgram(p, 1<<19)
	arch.PC = start
	tk := &Task{
		Start:  start,
		End:    end,
		HasEnd: hasEnd,
		Checkpoint: Checkpoint{
			Regs:    arch.Regs,
			MemDiff: mem.NewOverlay(),
		},
		Snap: arch.Clone(),
	}
	return tk, arch
}

const sumSrc = `
	        ldi  r1, 5          ; 0
	loop:   add  r2, r2, r1     ; 1
	        addi r1, r1, -1     ; 2
	        bnez r1, loop       ; 3
	        halt                ; 4
`

func TestExecuteToHalt(t *testing.T) {
	tk, arch := mkTask(t, sumSrc, 0, 0, false)
	ex := tk.Execute(1000)
	if ex.Outcome != OutcomeHalted {
		t.Fatalf("outcome = %v, want halted", ex.Outcome)
	}
	if ex.Steps != 17 { // 1 + 3*5 + 1
		t.Errorf("steps = %d, want 17", ex.Steps)
	}
	if v, ok := ex.LiveOut.Reg(2); !ok || v != 15 {
		t.Errorf("live-out r2 = %d,%v, want 15", v, ok)
	}
	if !ex.LiveOut.HasPC || ex.LiveOut.PC != 4 {
		t.Errorf("live-out PC = %v,%d, want 4", ex.LiveOut.HasPC, ex.LiveOut.PC)
	}
	// Committing the live-outs must reproduce sequential execution.
	seqState := arch.Clone()
	if _, err := cpu.Seq(seqState, 17); err != nil {
		t.Fatal(err)
	}
	arch.Apply(ex.LiveOut)
	if !arch.Equal(seqState) {
		t.Error("commit does not match sequential execution (task safety violated)")
	}
}

func TestExecuteToEndPC(t *testing.T) {
	// End at the loop header: exactly one iteration (3 instructions after
	// the first visit).
	tk, _ := mkTask(t, sumSrc, 1, 1, true)
	tk.Checkpoint.Regs[1] = 5
	tk.Snap.WriteReg(1, 5)
	ex := tk.Execute(1000)
	if ex.Outcome != OutcomeReachedEnd {
		t.Fatalf("outcome = %v, want reached-end", ex.Outcome)
	}
	if ex.Steps != 3 {
		t.Errorf("steps = %d, want 3 (one loop iteration)", ex.Steps)
	}
	if !ex.LiveOut.HasPC || ex.LiveOut.PC != 1 {
		t.Errorf("final PC = %d, want 1", ex.LiveOut.PC)
	}
}

func TestStartEqualsEndRunsAtLeastOnce(t *testing.T) {
	tk, _ := mkTask(t, sumSrc, 1, 1, true)
	tk.Checkpoint.Regs[1] = 5
	ex := tk.Execute(1000)
	if ex.Steps == 0 {
		t.Error("task with start==end terminated without executing")
	}
}

func TestOverflow(t *testing.T) {
	tk, _ := mkTask(t, "spin: j spin\nhalt", 0, 1, true)
	ex := tk.Execute(50)
	if ex.Outcome != OutcomeOverflow || ex.Steps != 50 {
		t.Errorf("outcome = %v steps = %d, want overflow at 50", ex.Outcome, ex.Steps)
	}
}

func TestFaultOnGarbage(t *testing.T) {
	tk, _ := mkTask(t, "halt", 0, 0, false)
	tk.Start = 999 // garbage PC: memory there holds zero words
	tk.Snap.Mem.Write(999, ^uint64(0))
	env := &Task{
		Start:      999,
		Checkpoint: tk.Checkpoint,
		Snap:       tk.Snap,
	}
	ex := env.Execute(10)
	if ex.Outcome != OutcomeFault {
		t.Errorf("outcome = %v, want fault", ex.Outcome)
	}
}

func TestLiveInCapturesReadBeforeWrite(t *testing.T) {
	src := `
		start:  add  r3, r1, r2   ; reads r1, r2
		        ldi  r1, 9        ; writes r1 (already read)
		        add  r4, r1, r1   ; r1 now local, not a live-in
		        ld   r5, 0(r6)    ; reads r6 (reg) and mem[100]
		        st   r5, 1(r6)    ; store to mem[101]
		        ld   r7, 1(r6)    ; reads own store: not a live-in
		        halt
	`
	tk, _ := mkTask(t, src, 0, 0, false)
	tk.Checkpoint.Regs[1] = 10
	tk.Checkpoint.Regs[2] = 20
	tk.Checkpoint.Regs[6] = 100
	tk.Snap.Mem.Write(100, 77)
	ex := tk.Execute(100)
	if ex.Outcome != OutcomeHalted {
		t.Fatalf("outcome = %v", ex.Outcome)
	}

	// Live-in registers: r1, r2, r6 — not r3/r4/r5/r7 (written first).
	for _, want := range []struct {
		r int
		v uint64
	}{{1, 10}, {2, 20}, {6, 100}} {
		if v, ok := ex.LiveIn.Reg(want.r); !ok || v != want.v {
			t.Errorf("live-in r%d = %d,%v, want %d", want.r, v, ok, want.v)
		}
	}
	for _, r := range []int{3, 4, 5, 7} {
		if _, ok := ex.LiveIn.Reg(r); ok {
			t.Errorf("r%d recorded as live-in but was written first", r)
		}
	}
	// Live-in memory: address 100 only (101 was written first).
	if v, ok := ex.LiveIn.MemVal(100); !ok || v != 77 {
		t.Errorf("live-in m100 = %d,%v, want 77", v, ok)
	}
	if _, ok := ex.LiveIn.MemVal(101); ok {
		t.Error("m101 recorded as live-in but was written first")
	}
	// Live-outs: r1 (rewritten), r3, r4, r5, r7, m101.
	if v, ok := ex.LiveOut.MemVal(101); !ok || v != 77 {
		t.Errorf("live-out m101 = %d,%v, want 77", v, ok)
	}
	if v, ok := ex.LiveOut.Reg(3); !ok || v != 30 {
		t.Errorf("live-out r3 = %d,%v, want 30", v, ok)
	}
}

// TestCheckpointDiffOverridesSnapshot pins the order in which a slave reads
// its checkpoint's memory view, on both slave paths: a word bound in the
// current window's newest layer overrides an older layer of that window
// and the previous window's layer (Prev), Prev overrides the base
// (MemDiff), and the base overrides the architected snapshot. Verification
// keeps final state correct whatever a slave predicts, so no end-to-end
// test would notice a slave that skipped a layer.
func TestCheckpointDiffOverridesSnapshot(t *testing.T) {
	const far = 500 + 3*mem.PageWords    // on a page only the current window binds
	const prevOnly = far + mem.PageWords // on a page only Prev binds
	loads := []struct {
		addr uint64
		want uint64
	}{
		{500, 4},      // snapshot 1, base 2, Prev 3, older layer 10, newest layer 4
		{501, 2},      // snapshot 1, base 2
		{502, 3},      // snapshot 1, base 2, Prev 3
		{503, 5},      // snapshot 5
		{far, 6},      // newest layer 6
		{505, 8},      // base 7, SetMem's private layer 8
		{prevOnly, 9}, // Prev 9
	}
	words := make([]uint64, 0, len(loads)+1)
	for i, l := range loads {
		words = append(words, isa.Encode(isa.Inst{Op: isa.OpLd, Rd: uint8(i + 1), Rs1: 0, Imm: int64(l.addr)}))
	}
	p := &isa.Program{Entry: 0, Code: isa.Segment{Base: 0, Words: append(words, isa.Encode(isa.Inst{Op: isa.OpHalt}))}}
	arch := state.NewFromProgram(p, 1<<19)
	for _, a := range []uint64{500, 501, 502} {
		arch.Mem.Write(a, 1) // stale architected values
	}
	arch.Mem.Write(503, 5)
	base := mem.NewOverlay()
	for _, a := range []uint64{500, 501, 502} {
		base.Set(a, 2)
	}
	base.Set(505, 7)
	prev := (*mem.Layer)(nil).With(500, 3).With(502, 3).With(prevOnly, 9)
	newest := (*mem.Layer)(nil).With(500, 10).With(500, 4).With(far, 6)

	for _, code := range []*isa.DecodedProgram{nil, fuse.Predecode(p, fuse.Options{})} {
		ck := Checkpoint{Regs: arch.Regs, MemDiff: base, Prev: prev, Layers: newest}
		ck.SetMem(505, 8)
		tk := &Task{Start: 0, Checkpoint: ck, Snap: arch.Clone(), Code: code}
		ex := tk.Execute(100)
		if ex.Outcome != OutcomeHalted {
			t.Fatalf("run loop %v: outcome = %v", code != nil, ex.Outcome)
		}
		for i, l := range loads {
			if v, ok := ex.LiveIn.MemVal(l.addr); !ok || v != l.want {
				t.Errorf("run loop %v: live-in m%d = %d, want %d", code != nil, l.addr, v, l.want)
			}
			if v, _ := ex.LiveOut.Reg(i + 1); v != l.want {
				t.Errorf("run loop %v: r%d = %d, want %d", code != nil, i+1, v, l.want)
			}
		}
	}
	// SetMem's layer is the task's own: a slave's table over the shared
	// view still reads the base.
	tab := mem.NewTable()
	tab.Over(base, prev, newest, arch.Mem)
	if v := tab.Load(505); v != 7 {
		t.Errorf("shared view reads m505 = %d after SetMem, want the base's 7", v)
	}
}

// TestCheckpointWindowReadsSnapshotBelowIt runs a task over the views a
// mem.Layered hands out, as the master builds them, on both slave paths. A
// word the master changed more than 2W forks before the task's fork has
// left the view, so the slave reads it from its architected snapshot; a
// word the master changed at the task's own fork reads the master's value.
func TestCheckpointWindowReadsSnapshotBelowIt(t *testing.T) {
	const window = 3
	const old, recent = 600, 700
	p := asm.MustAssemble(`
		ldi r3, 600
		ld  r1, 0(r3)
		ld  r2, 100(r3)
		halt
	`)
	arch := state.NewFromProgram(p, 1<<19)
	arch.Mem.Write(old, 1) // stale architected values
	arch.Mem.Write(recent, 1)
	master := arch.Mem.Snapshot()
	var j mem.Journal
	j.Attach(master)
	lay := mem.NewLayered(window)
	master.Write(old, 2)
	prev, top, _ := lay.Fork(&j) // the first fork changes old
	const last = 2*window + 2
	for f := 2; f <= last; f++ {
		master.Write(recent, uint64(f)) // every later fork changes recent
		prev, top, _ = lay.Fork(&j)
	}
	for _, code := range []*isa.DecodedProgram{nil, fuse.Predecode(p, fuse.Options{})} {
		tk := &Task{Start: 0, Checkpoint: Checkpoint{Regs: arch.Regs, Prev: prev, Layers: top}, Snap: arch.Clone(), Code: code}
		ex := tk.Execute(100)
		if ex.Outcome != OutcomeHalted {
			t.Fatalf("run loop %v: outcome = %v", code != nil, ex.Outcome)
		}
		if v, _ := ex.LiveIn.MemVal(old); v != 1 {
			t.Errorf("run loop %v: m%d = %d, want the snapshot's 1", code != nil, old, v)
		}
		if v, _ := ex.LiveIn.MemVal(recent); v != last {
			t.Errorf("run loop %v: m%d = %d, want the master's %d", code != nil, recent, v, last)
		}
	}
}

func TestWrongCheckpointDetectableAtVerify(t *testing.T) {
	// The slave computes with a wrong register prediction; the live-in
	// record must expose it against architected state.
	tk, arch := mkTask(t, sumSrc, 0, 0, false)
	tk.Checkpoint.Regs[2] = 999 // master mispredicts r2 (accumulator seed)
	ex := tk.Execute(1000)
	if ex.Outcome != OutcomeHalted {
		t.Fatalf("outcome = %v", ex.Outcome)
	}
	if arch.Consistent(ex.LiveIn) {
		t.Error("wrong checkpoint value not visible in live-in set")
	}
}

func TestExecutionIsolatedFromArchitectedState(t *testing.T) {
	tk, arch := mkTask(t, sumSrc, 0, 0, false)
	before := arch.Clone()
	_ = tk.Execute(1000)
	if !arch.Equal(before) {
		t.Error("task execution mutated architected state")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeReachedEnd: "reached-end",
		OutcomeHalted:     "halted",
		OutcomeOverflow:   "overflow",
		OutcomeFault:      "fault",
		Outcome(99):       "unknown",
	} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

// Tasks with identical inputs must produce identical results even when
// executed concurrently (slave independence).
func TestConcurrentExecutionIndependence(t *testing.T) {
	mk := func() *Task {
		tk, _ := mkTask(t, sumSrc, 0, 0, false)
		return tk
	}
	ref := mk().Execute(1000)
	const n = 16
	results := make(chan *Exec, n)
	for i := 0; i < n; i++ {
		tk := mk()
		go func() { results <- tk.Execute(1000) }()
	}
	for i := 0; i < n; i++ {
		ex := <-results
		if ex.Outcome != ref.Outcome || ex.Steps != ref.Steps {
			t.Fatalf("concurrent divergence: %v/%d vs %v/%d", ex.Outcome, ex.Steps, ref.Outcome, ref.Steps)
		}
		if !ex.LiveOut.Equal(ref.LiveOut) || !ex.LiveIn.Equal(ref.LiveIn) {
			t.Fatal("concurrent live set divergence")
		}
	}
}
