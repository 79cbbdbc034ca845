package dataflow_test

import (
	"testing"

	"mssp/internal/cfg"
	"mssp/internal/chaos"
	"mssp/internal/cpu"
	"mssp/internal/dataflow"
	"mssp/internal/isa"
	"mssp/internal/state"
)

// The property tests run every analysis against ground truth: a traced
// sequential execution of chaos-generated programs. Static may-facts must
// over-approximate what one concrete run actually did; a single violated
// step is an unsoundness bug in an analysis, not test flake, because both
// sides are deterministic.

const propTraceCap = 60000

// traceStep records one executed instruction with the registers its
// semantics actually read and wrote.
type traceStep struct {
	pc     uint64
	reads  dataflow.RegSet
	writes dataflow.RegSet
}

// traceEnv wraps an Env and records register traffic per step.
type traceEnv struct {
	cpu.StateEnv
	reads, writes dataflow.RegSet
}

func (e *traceEnv) ReadReg(r int) uint64 {
	e.reads = e.reads.Add(uint8(r))
	return e.StateEnv.ReadReg(r)
}

func (e *traceEnv) WriteReg(r int, v uint64) {
	e.writes = e.writes.Add(uint8(r))
	e.StateEnv.WriteReg(r, v)
}

// collectTrace runs prog sequentially, recording per-step register traffic.
func collectTrace(t *testing.T, g *cfg.Graph) []traceStep {
	t.Helper()
	s := state.NewFromProgram(g.Prog, 1<<28)
	env := &traceEnv{StateEnv: cpu.StateEnv{S: s}}

	var steps []traceStep
	for len(steps) < propTraceCap {
		pc := s.PC
		env.reads, env.writes = 0, 0
		in, err := cpu.Step(env)
		if err != nil {
			t.Fatalf("trace fault at pc %d: %v", pc, err)
		}
		steps = append(steps, traceStep{pc: pc, reads: env.reads, writes: env.writes})
		if in.Op == isa.OpHalt {
			return steps
		}
	}
	t.Fatalf("program did not halt within %d steps", propTraceCap)
	return nil
}

// plainCorpus yields chaos programs without indirect jumps, with their CFGs.
func plainCorpus(t *testing.T, seeds int) []*cfg.Graph {
	t.Helper()
	var out []*cfg.Graph
	for seed := 1; seed <= seeds; seed++ {
		gen := chaos.Generate(uint64(seed))
		g, err := cfg.Build(gen.Prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !g.HasIndirect {
			out = append(out, g)
		}
	}
	// The checks below are vacuous on an empty corpus; the generator must
	// keep producing a healthy share of statically analyzable programs.
	if len(out) < seeds/4 {
		t.Fatalf("only %d/%d chaos programs are indirect-free; corpus too thin", len(out), seeds)
	}
	return out
}

func corpusSize(t *testing.T) int {
	if testing.Short() {
		return 20
	}
	return 80
}

// TestLivenessCoversTrace checks the defining property of may-liveness
// against ground truth: walking the trace backward, any register that will
// be read again before being overwritten must be in the static live set at
// every intermediate step.
func TestLivenessCoversTrace(t *testing.T) {
	for i, g := range plainCorpus(t, corpusSize(t)) {
		steps := collectTrace(t, g)
		lf := dataflow.Live(g, dataflow.LivenessOptions{})
		var dynLive dataflow.RegSet
		for j := len(steps) - 1; j >= 0; j-- {
			st := steps[j]
			dynLive = dynLive&^st.writes | st.reads
			if got := lf.Before(st.pc); dynLive&^got != 0 {
				t.Fatalf("corpus[%d] step %d pc %d: dynamically live %v not in static %v",
					i, j, st.pc, dynLive, got)
			}
		}
	}
}

// TestMayInitCoversTrace checks that every register actually written before
// a step is in the static may-initialized set there.
func TestMayInitCoversTrace(t *testing.T) {
	for i, g := range plainCorpus(t, corpusSize(t)) {
		steps := collectTrace(t, g)
		mi := dataflow.MayInit(g, dataflow.RegSet(0).Add(uint8(isa.RegSP)))
		var written dataflow.RegSet
		for j, st := range steps {
			if written&^mi.Before(st.pc) != 0 {
				t.Fatalf("corpus[%d] step %d pc %d: dynamically written %v not in may-init %v",
					i, j, st.pc, written, mi.Before(st.pc))
			}
			written = written.Union(st.writes)
		}
	}
}
