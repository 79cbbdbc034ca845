package cpu

import (
	"errors"
	"fmt"
	"testing"

	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// The equivalence suite holds the fast-path contract: every execution core —
// the slow Env interpreter, the devirtualized loop, and both predecoded
// variants — produces bit-identical final states, step counts and faults on
// the same program. docs/PERFORMANCE.md points here.

// equivProgram is a test program plus the step bound to run it under.
type equivProgram struct {
	name string
	prog *isa.Program
	max  uint64
}

// progFromInsts assembles instructions at base 0 into a Program, then
// patches raw words on top (for invalid-word and data-in-code cases).
func progFromInsts(t testing.TB, insts []isa.Inst, raw map[int]uint64, data []isa.Segment) *isa.Program {
	t.Helper()
	words := make([]uint64, len(insts))
	for i, in := range insts {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			t.Fatalf("bad instruction %v: %v", in, err)
		}
		words[i] = w
	}
	for i, w := range raw {
		words[i] = w
	}
	return &isa.Program{Code: isa.Segment{Base: 0, Words: words}, Data: data}
}

// tightLoopProgram and memLoopProgram are the shared micro-benchmark loops
// (see internal/workloads/micro.go), aliased for the tests here.
func tightLoopProgram(t testing.TB, iters int64) *isa.Program {
	return workloads.MicroTight(iters)
}

func memLoopProgram(t testing.TB, iters int64) *isa.Program {
	return workloads.MicroMem(iters)
}

// selfModifyingProgram stores a replacement instruction word over a
// not-yet-executed code address, so the predecoded table goes stale before
// the modified instruction executes. The fast path must detect the store and
// execute the new word, exactly like the slow path.
func selfModifyingProgram(t testing.TB) *isa.Program {
	t.Helper()
	repl, err := isa.EncodeChecked(isa.Inst{Op: isa.OpLdi, Rd: 5, Imm: 99})
	if err != nil {
		t.Fatalf("encode replacement: %v", err)
	}
	return progFromInsts(t, []isa.Inst{
		{Op: isa.OpLdi, Rd: 3, Imm: 4096},      // 0: r3 = &replacement word
		{Op: isa.OpLd, Rd: 4, Rs1: 3},          // 1: r4 = encoded "ldi r5, 99"
		{Op: isa.OpSt, Rs1: 0, Rs2: 4, Imm: 5}, // 2: code[5] = r4
		{Op: isa.OpNop},                        // 3
		{Op: isa.OpNop},                        // 4
		{Op: isa.OpLdi, Rd: 5, Imm: 1},         // 5: overwritten before execution
		{Op: isa.OpHalt},                       // 6
	}, nil, []isa.Segment{{Base: 4096, Words: []uint64{repl}}})
}

// faultProgram runs two instructions and then hits an undecodable word.
func faultProgram(t testing.TB) *isa.Program {
	t.Helper()
	bad := ^uint64(0)
	if isa.Decode(bad).Op.Valid() {
		t.Fatalf("all-ones word unexpectedly decodes")
	}
	return progFromInsts(t, []isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 7},
		{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 9},
		{Op: isa.OpHalt}, // patched to the bad word below
	}, map[int]uint64{2: bad}, nil)
}

// jumpOffTableProgram jumps past the end of the code segment into memory
// that holds one more valid instruction and a halt, forcing the predecoded
// runners onto their out-of-table fallback fetch.
func jumpOffTableProgram(t testing.TB) *isa.Program {
	t.Helper()
	tail := make([]uint64, 2)
	for i, in := range []isa.Inst{
		{Op: isa.OpAddi, Rd: 7, Rs1: 7, Imm: 77},
		{Op: isa.OpHalt},
	} {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			t.Fatalf("encode tail: %v", err)
		}
		tail[i] = w
	}
	return progFromInsts(t, []isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.OpJal, Rd: 0, Imm: 100},
		{Op: isa.OpHalt},
	}, nil, []isa.Segment{{Base: 100, Words: tail}})
}

func equivPrograms(t testing.TB) []equivProgram {
	progs := []equivProgram{
		{"tight-loop", tightLoopProgram(t, 50), 10_000},
		{"mem-loop", memLoopProgram(t, 50), 10_000},
		{"self-modifying", selfModifyingProgram(t), 10_000},
		{"fault", faultProgram(t), 10_000},
		{"jump-off-table", jumpOffTableProgram(t), 10_000},
		{"step-limit", tightLoopProgram(t, 50), 17}, // exhaust max mid-loop
		{"jump-into-pair", jumpIntoPairProgram(t), 10_000},
		{"store-into-pair", storeIntoPairProgram(t), 10_000},
		{"chain-selfmod", chainSelfModifyProgram(t), 10_000},
	}
	for _, w := range workloads.All() {
		progs = append(progs, equivProgram{"workload-" + w.Name, w.Build(workloads.Train), 50_000_000})
	}
	return progs
}

// execResult captures everything observable about a bounded run.
type execResult struct {
	res   RunResult
	err   error
	final *state.State
}

func (r execResult) describe() string {
	if r.err != nil {
		return fmt.Sprintf("steps=%d halted=%v err=%v pc=%d", r.res.Steps, r.res.Halted, r.err, r.final.PC)
	}
	return fmt.Sprintf("steps=%d halted=%v pc=%d", r.res.Steps, r.res.Halted, r.final.PC)
}

// executors enumerates every execution core under test.
var executors = []struct {
	name string
	run  func(p *isa.Program, s *state.State, max uint64) (RunResult, error)
}{
	{"slow-env", func(p *isa.Program, s *state.State, max uint64) (RunResult, error) {
		return Run(StateEnv{S: s}, max)
	}},
	{"devirt", func(p *isa.Program, s *state.State, max uint64) (RunResult, error) {
		return NewCode(nil).RunState(s, max)
	}},
	{"predecode-devirt", func(p *isa.Program, s *state.State, max uint64) (RunResult, error) {
		return NewCode(isa.Predecode(p)).RunState(s, max)
	}},
	{"predecode-step", func(p *isa.Program, s *state.State, max uint64) (RunResult, error) {
		c := NewCode(isa.Predecode(p))
		env := StateEnv{S: s}
		var res RunResult
		for res.Steps < max {
			in, err := c.Step(env)
			if err != nil {
				return res, err
			}
			res.Steps++
			if in.Op == isa.OpHalt {
				res.Halted = true
				break
			}
		}
		return res, nil
	}},
	{"fused-devirt", func(p *isa.Program, s *state.State, max uint64) (RunResult, error) {
		return NewCode(fuse.Predecode(p, fuse.Options{})).RunState(s, max)
	}},
	{"fused-anchors", func(p *isa.Program, s *state.State, max uint64) (RunResult, error) {
		// Anchors at every third pc knock out the groups they interrupt;
		// whatever still fuses must behave identically.
		anchors := make(map[uint64]bool)
		for pc := p.Code.Base; pc < p.Code.Base+uint64(len(p.Code.Words)); pc += 3 {
			anchors[pc] = true
		}
		return NewCode(fuse.Predecode(p, fuse.Options{Anchors: anchors})).RunState(s, max)
	}},
	{"fused-stops", func(p *isa.Program, s *state.State, max uint64) (RunResult, error) {
		// The RunToStop contract over a fused table: resume across fork/jalr
		// stops until halt, fault, or budget exhaustion.
		c := NewCode(fuse.Predecode(p, fuse.Options{}))
		var total RunResult
		for total.Steps < max {
			st, err := c.RunToStop(s, max-total.Steps)
			total.Steps += st.Steps
			if err != nil {
				return total, err
			}
			if st.Kind == StopHalt {
				total.Halted = true
				break
			}
			if st.Kind == StopSteps {
				break
			}
		}
		return total, nil
	}},
}

// TestFastSlowEquivalence runs every program through every execution core and
// demands bit-identical outcomes: final state, step count, halt flag, and
// fault identity.
func TestFastSlowEquivalence(t *testing.T) {
	for _, ep := range equivPrograms(t) {
		t.Run(ep.name, func(t *testing.T) {
			var ref execResult
			for i, ex := range executors {
				s := state.NewFromProgram(ep.prog, 1<<28)
				res, err := ex.run(ep.prog, s, ep.max)
				got := execResult{res: res, err: err, final: s}
				if i == 0 {
					ref = got
					continue
				}
				if got.res != ref.res {
					t.Errorf("%s: result %s, slow-env %s", ex.name, got.describe(), ref.describe())
				}
				if !got.final.Equal(ref.final) {
					t.Errorf("%s: final state differs from slow-env\n%s\nvs\n%s",
						ex.name, got.final.Dump(), ref.final.Dump())
				}
				var gf, rf *Fault
				if errors.As(got.err, &gf) != errors.As(ref.err, &rf) || (gf != nil && *gf != *rf) {
					t.Errorf("%s: fault %v, slow-env fault %v", ex.name, got.err, ref.err)
				}
			}
		})
	}
}

// TestCodeDirtyTransition pins down the dirty-flag mechanics: a store into
// the code segment flips Dirty, the flag persists across RunState calls, and
// stores outside the segment leave it clear. A dirty fused table stays
// demoted for good: a re-run from the entry fetches through memory.
func TestCodeDirtyTransition(t *testing.T) {
	p := selfModifyingProgram(t)
	c := NewCode(isa.Predecode(p))
	s := state.NewFromProgram(p, 1<<28)
	if c.Dirty() {
		t.Fatalf("fresh runner is dirty")
	}
	// Run up to and including the self-modifying store (3 instructions).
	if _, err := c.RunState(s, 3); err != nil {
		t.Fatalf("RunState: %v", err)
	}
	if !c.Dirty() {
		t.Fatalf("store into code segment did not dirty the runner")
	}
	// Finish the program on the (now slow) fetch path: the rewritten
	// instruction must execute.
	if _, err := c.RunState(s, 100); err != nil {
		t.Fatalf("RunState (resumed): %v", err)
	}
	if got := s.ReadReg(5); got != 99 {
		t.Fatalf("r5 = %d after self-modification, want 99", got)
	}

	p2 := memLoopProgram(t, 3)
	c2 := NewCode(isa.Predecode(p2))
	s2 := state.NewFromProgram(p2, 1<<28)
	if _, err := c2.RunState(s2, 1000); err != nil {
		t.Fatalf("RunState: %v", err)
	}
	if c2.Dirty() {
		t.Fatalf("data store dirtied the runner")
	}

	// Same transition through the Env-based Step path.
	c3 := NewCode(isa.Predecode(p))
	s3 := state.NewFromProgram(p, 1<<28)
	env := StateEnv{S: s3}
	for i := 0; i < 3; i++ {
		if _, err := c3.Step(env); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if !c3.Dirty() {
		t.Fatalf("Step path: store into code segment did not dirty the runner")
	}

	// A store into a fused pair's interior: the table goes permanently
	// dirty and the rewritten instruction executes from memory, on this
	// run and on a re-run from the entry.
	t.Run("fused-pair-stays-dirty", func(t *testing.T) {
		p4 := storeIntoPairProgram(t)
		c4 := NewCode(fuse.Predecode(p4, fuse.Options{}))
		for run := 0; run < 2; run++ {
			s4 := state.NewFromProgram(p4, 1<<28)
			res, err := c4.RunState(s4, 10_000)
			if err != nil || !res.Halted {
				t.Fatalf("fused run %d: halted=%v err=%v", run, res.Halted, err)
			}
			if !c4.Dirty() {
				t.Fatalf("fused run %d: store into a fused pair did not leave the runner dirty", run)
			}
			if got := s4.Regs[5]; got != 99 {
				t.Fatalf("fused run %d: r5 = %d, want 99 (rewritten instruction must execute)", run, got)
			}
		}
	})
}

// TestPredecodeTable checks the DecodedProgram accessors against Decode.
func TestPredecodeTable(t *testing.T) {
	p := faultProgram(t)
	d := isa.Predecode(p)
	if d.Base() != p.Code.Base || d.Len() != len(p.Code.Words) {
		t.Fatalf("table shape: base %d len %d, want %d %d", d.Base(), d.Len(), p.Code.Base, len(p.Code.Words))
	}
	for i, w := range p.Code.Words {
		pc := p.Code.Base + uint64(i)
		if !d.Covers(pc) {
			t.Fatalf("Covers(%d) = false inside table", pc)
		}
		in, valid, ok := d.At(pc)
		if !ok {
			t.Fatalf("At(%d) not ok", pc)
		}
		want := isa.Decode(w)
		if in != want || valid != want.Op.Valid() {
			t.Fatalf("At(%d) = %v/%v, want %v/%v", pc, in, valid, want, want.Op.Valid())
		}
		if d.Word(pc) != w {
			t.Fatalf("Word(%d) = %#x, want %#x", pc, d.Word(pc), w)
		}
	}
	if d.Covers(p.Code.Base + uint64(len(p.Code.Words))) {
		t.Fatalf("Covers reports true past the table end")
	}
	if _, _, ok := d.At(p.Code.Base - 1); ok && p.Code.Base == 0 {
		// base 0: pc-1 wraps to a huge index, must be out of range
		t.Fatalf("At(base-1) unexpectedly ok")
	}
}
