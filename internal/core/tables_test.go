package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/task"
)

// sameTables reports whether a and b are the same table objects and the
// same anchor map.
func sameTables(a, b distill.Tables) bool {
	return a.Orig == b.Orig && a.Dist == b.Dist &&
		reflect.ValueOf(a.Anchors).Pointer() == reflect.ValueOf(b.Anchors).Pointer()
}

// TestMachinesShareTables checks that machines built from one original
// program and one distillation run on the same tables, which the
// distillation builds once per program and fusion setting: fused tables by
// default, a distinct plain pair under DisableFusion, none under
// DisableFastPath, and one table per variant however many goroutines build
// machines at once. (The parallel engine's half is the test of the same
// name in internal/parallel.)
func TestMachinesShareTables(t *testing.T) {
	h := prep(t, fsrc(2000), 50, distill.DefaultOptions())
	fused := DefaultConfig()
	plain := fused
	plain.DisableFusion = true
	none := fused
	none.DisableFastPath = true
	build := func(orig bool, d *distill.Result, cfg Config) *Machine {
		t.Helper()
		p := h.orig
		if !orig {
			p = asm.MustAssemble(fsrc(2000))
		}
		m, err := New(p, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	a, b := build(true, h.dist, fused), build(true, h.dist, fused)
	if !sameTables(a.Tables, b.Tables) {
		t.Error("two fused machines hold different tables")
	}
	if a.master.table != a.Tables.Dist {
		t.Error("the master does not run the machine's distilled table")
	}
	if a.Tables.Orig.FusedTable() == nil || a.Tables.Dist.FusedTable() == nil {
		t.Error("the default tables are not fused")
	}
	pa, pb := build(true, h.dist, plain), build(true, h.dist, plain)
	if !sameTables(pa.Tables, pb.Tables) {
		t.Error("two plain machines hold different tables")
	}
	if pa.Tables.Orig == a.Tables.Orig || pa.Tables.Dist == a.Tables.Dist {
		t.Error("DisableFusion shares a fused table")
	}
	if pa.Tables.Orig.FusedTable() != nil || pa.Tables.Dist.FusedTable() != nil {
		t.Error("DisableFusion's tables are fused")
	}
	n := build(true, h.dist, none)
	if n.Tables.Orig != nil || n.Tables.Dist != nil {
		t.Error("DisableFastPath built tables")
	}
	if !sameTables(n.Tables, distill.Tables{Anchors: a.Tables.Anchors}) {
		t.Error("DisableFastPath holds another anchor set")
	}
	// Another original program under the same distillation (a Ref program
	// under a Train distillation) gets its own original table only.
	o := build(false, h.dist, fused)
	if o.Tables.Orig == a.Tables.Orig || o.Tables.Dist != a.Tables.Dist {
		t.Error("a second original program shares the first one's table, or not the distilled one")
	}

	// Eight goroutines building machines from one fresh distillation get
	// one table per variant.
	d, err := distill.Distill(h.orig, h.prof, distill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	cfgs := []Config{fused, plain, none}
	got := make([][3]distill.Tables, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cfgs {
				v := (w + i) % len(cfgs)
				m, err := New(h.orig, d, cfgs[v])
				if err != nil {
					t.Error(err)
					return
				}
				got[w][v] = m.Tables
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for v := range cfgs {
			if !sameTables(got[w][v], got[0][v]) {
				t.Errorf("goroutine %d, variant %d: another table than goroutine 0's", w, v)
			}
		}
	}
	if sameTables(got[0][0], a.Tables) {
		t.Error("a second distillation shares the first one's tables")
	}
}

// selfPatchSrc stores into its own code segment when the flag word at 1000
// is set: it writes its loop's first word back over itself, every
// iteration. The word keeps its value, so the flag changes no result.
const selfPatchSrc = `
	        ldi  r2, 3000         ; 0
	        ldi  r4, 0            ; 1
	loop:   addi r4, r4, 3        ; 2
	        ld   r1, 1000(r0)     ; 3: the flag
	        beq  r1, r0, next     ; 4
	        ld   r5, 2(r0)        ; 5
	        st   r5, 2(r0)        ; 6
	next:   addi r2, r2, -1       ; 7
	        bnez r2, loop         ; 8
	        st   r4, 1001(r0)     ; 9
	        halt                  ; 10
	.data
	.org 1000
	        .word 0
	        .word 0
`

// TestSelfPatchLeavesSharedTableClean runs two machines on one table: one
// whose program stores into its own code segment, and then one whose
// program does not. The first stops handing the table out to its tasks;
// the second still runs on it, the table keeps its words, and each machine
// ends equal to its sequential run.
func TestSelfPatchLeavesSharedTableClean(t *testing.T) {
	h := prep(t, selfPatchSrc, 40, distill.DefaultOptions())
	words := slices.Clone(h.orig.Code.Words)
	var tables []distill.Tables
	for _, flag := range []uint64{1, 0} {
		m, err := New(h.orig, h.dist, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, m.Tables)
		m.Arch.Mem.Write(1000, flag)
		want := m.Arch.Clone()
		if _, err := cpu.Seq(want, 1_000_000); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Final.Equal(want) {
			t.Fatalf("flag %d: final state differs from the sequential run\nmssp: %s\nseq:  %s",
				flag, res.Final.Dump(), want.Dump())
		}
		if m.codeClean != (flag == 0) {
			t.Errorf("flag %d: codeClean = %v", flag, m.codeClean)
		}
		if m.Metrics.TasksCommitted == 0 {
			t.Errorf("flag %d: no task committed", flag)
		}
		if _, _, _, w := m.Tables.Orig.Table(); !slices.Equal(w, words) {
			t.Fatalf("flag %d: the shared table's words changed", flag)
		}
	}
	if !sameTables(tables[0], tables[1]) {
		t.Error("the two machines hold different tables")
	}
}

// loopSrc is one task per iteration: the anchor at 0 starts and ends it,
// it reads r1 and writes r2, and it touches no memory, so a committed
// iteration leaves architected state where the next one starts.
const loopSrc = `
	loop:   add  r2, r1, r1
	        j    loop
	        halt
`

// TestAdmissionAllocs pins that admitting a task allocates nothing in
// steady state: Retirer.Fork into a reused task, with and without checkpoint
// corruption, and the deterministic machine's whole life of a queue entry,
// from spawn through execution to commit.
func TestAdmissionAllocs(t *testing.T) {
	p := asm.MustAssemble(loopSrc)
	for _, corrupt := range []bool{false, true} {
		cfg := DefaultConfig()
		if corrupt {
			cfg.Fault = &FaultInjection{CorruptCheckpoint: func(id uint64, ck *task.Checkpoint) {
				ck.Regs[5] = id
			}}
		}
		m, err := New(p, &distill.Result{Prog: p, Anchors: []uint64{0}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var f InFlight
		fork := func() {
			m.Fork(&f.T, 0, task.Checkpoint{Regs: m.Arch.Regs}, 0)
			m.Release(&f)
		}
		fork()
		if allocs := testing.AllocsPerRun(100, fork); allocs != 0 {
			t.Errorf("corrupt=%v: Fork allocates %v objects, want 0", corrupt, allocs)
		}
		if corrupt && f.T.Checkpoint.Regs[5] != f.T.ID {
			t.Error("the corruption did not reach the task's checkpoint")
		}

		life := func() {
			m.spawn(0, task.Checkpoint{Regs: m.Arch.Regs})
			open := m.openTask()
			open.T.End, open.T.EndCount, open.T.HasEnd = 0, 1, true
			open.closed = true
			if m.verifyHead() {
				t.Fatal("the loop task squashed")
			}
		}
		life()
		before := m.Metrics.TasksCommitted
		if allocs := testing.AllocsPerRun(100, life); allocs != 0 {
			t.Errorf("corrupt=%v: spawn to commit allocates %v objects, want 0", corrupt, allocs)
		}
		if got := m.Metrics.TasksCommitted - before; got != 101 {
			t.Errorf("corrupt=%v: %d tasks committed, want 101", corrupt, got)
		}
		if m.Arch.PC != 0 || m.Arch.Regs[2] != 0 || m.queue.n != 0 {
			t.Errorf("corrupt=%v: pc %d, r2 %d, %d queued after the commits", corrupt, m.Arch.PC, m.Arch.Regs[2], m.queue.n)
		}
	}
}
