package cpu

// Edge-case tests for superinstruction dispatch: control entering a group's
// interior, self-modifying stores landing inside groups (including from a
// fused store into the group that follows it), and step budgets expiring at
// every possible offset within fused groups. The programs double as equivalence
// programs (equiv_test.go registers them), so every executor — slow,
// predecoded, fused switch — faces them.

import (
	"testing"

	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// jumpIntoPairProgram jumps to the second instruction of a fused alu+alu
// pair. The pair entry lives only at its head, so the landing pc must
// execute singly and skip the pair's first component entirely.
func jumpIntoPairProgram(t testing.TB) *isa.Program {
	return progFromInsts(t, []isa.Inst{
		{Op: isa.OpJal, Rd: 0, Imm: 2},          // 0: skip into the pair below
		{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1}, // 1: head of fused pair (1,2) — skipped
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 1}, // 2: pair interior: the landing pc
		{Op: isa.OpHalt},                        // 3
	}, nil, nil)
}

// storeIntoPairProgram stores a replacement word over the second instruction
// of a not-yet-executed fused pair (5,6). The table must go permanently
// dirty and the modified instruction must execute from memory.
func storeIntoPairProgram(t testing.TB) *isa.Program {
	t.Helper()
	repl, err := isa.EncodeChecked(isa.Inst{Op: isa.OpLdi, Rd: 5, Imm: 99})
	if err != nil {
		t.Fatalf("encode replacement: %v", err)
	}
	return progFromInsts(t, []isa.Inst{
		{Op: isa.OpLdi, Rd: 3, Imm: 4096},       // 0: r3 = &replacement word
		{Op: isa.OpLd, Rd: 4, Rs1: 3},           // 1: r4 = encoded "ldi r5, 99"
		{Op: isa.OpSt, Rs1: 0, Rs2: 4, Imm: 6},  // 2: code[6] = r4 — pair interior
		{Op: isa.OpNop},                         // 3
		{Op: isa.OpNop},                         // 4
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1}, // 5: head of fused pair (5,6)
		{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1}, // 6: overwritten before execution
		{Op: isa.OpHalt},                        // 7
	}, nil, []isa.Segment{{Base: 4096, Words: []uint64{repl}}})
}

// chainSelfModifyProgram is a six-instruction read-modify-write loop
// (ld+op+st, then alu+alu+br) whose fused store overwrites the head of the
// group that follows it, every iteration. The dispatcher must mark the table
// dirty at the store and run the following group singly from memory so the
// freshly stored word executes — the same order the slow path produces. The
// replacement adds 100 to r9 where the original added 1; with 4 iterations
// and the store landing before the first execution of pc 6, r9 must end at
// 400.
func chainSelfModifyProgram(t testing.TB) *isa.Program {
	t.Helper()
	repl, err := isa.EncodeChecked(isa.Inst{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 100})
	if err != nil {
		t.Fatalf("encode replacement: %v", err)
	}
	return progFromInsts(t, []isa.Inst{
		{Op: isa.OpLdi, Rd: 7, Imm: 4096},        // 0: r7 = &replacement word
		{Op: isa.OpLdi, Rd: 8, Imm: 6},           // 1: r8 = &code[6]
		{Op: isa.OpLdi, Rd: 1, Imm: 4},           // 2: r1 = loop count
		{Op: isa.OpLd, Rd: 4, Rs1: 7},            // 3: loop head: r4 = replacement
		{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 0},  // 4:
		{Op: isa.OpSt, Rs1: 8, Rs2: 4},           // 5: code[6] = r4 (dirties the next group)
		{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 1},  // 6: overwritten with "addi r9, r9, 100"
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1}, // 7:
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 3},  // 8: back-edge to the loop head
		{Op: isa.OpHalt},                         // 9
	}, nil, []isa.Segment{{Base: 4096, Words: []uint64{repl}}})
}

// TestChainSelfModifyResult pins the absolute outcome (not just equivalence):
// the stored word must take effect before pc 6 first executes.
func TestChainSelfModifyResult(t *testing.T) {
	p := chainSelfModifyProgram(t)
	d := fuse.Predecode(p, fuse.Options{})
	if k := d.FusedTable()[3].Kind; k != isa.FuseLdAluSt {
		t.Fatalf("slot 3 fused as %v, want %v", k, isa.FuseLdAluSt)
	}
	s := state.NewFromProgram(p, 1<<28)
	res, err := NewCode(d).RunState(s, 10_000)
	if err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, err)
	}
	if got := s.Regs[9]; got != 400 {
		t.Fatalf("r9 = %d, want 400 (replacement must execute from the first iteration)", got)
	}
}

// TestFusedStepLimitSweep runs fused dispatch with every step budget from 0
// to past-halt and demands bit-identical outcomes with the slow path — a
// budget must be able to expire at any offset inside any fused group without
// semantic drift.
func TestFusedStepLimitSweep(t *testing.T) {
	progs := []struct {
		name string
		prog *isa.Program
	}{
		{"tight", workloads.MicroTight(5)},
		{"mem", workloads.MicroMem(5)},
		{"chain-selfmod", chainSelfModifyProgram(t)},
	}
	for _, tp := range progs {
		t.Run(tp.name, func(t *testing.T) {
			d := fuse.Predecode(tp.prog, fuse.Options{})
			for max := uint64(0); max <= 60; max++ {
				ref := state.NewFromProgram(tp.prog, 1<<28)
				refRes, refErr := Run(StateEnv{S: ref}, max)
				s := state.NewFromProgram(tp.prog, 1<<28)
				res, err := NewCode(d).RunState(s, max)
				if res != refRes || (err == nil) != (refErr == nil) {
					t.Fatalf("max=%d: res=%+v err=%v, slow res=%+v err=%v",
						max, res, err, refRes, refErr)
				}
				if !s.Equal(ref) {
					t.Fatalf("max=%d: state diverged\n%s\nvs slow\n%s",
						max, s.Dump(), ref.Dump())
				}
			}
		})
	}
}
