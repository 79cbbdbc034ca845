// Package profile collects the execution profiles that drive program
// distillation: per-instruction execution counts, conditional-branch bias,
// and the task-boundary anchor set.
//
// Anchors are the static program counters at which the distiller will insert
// FORK task markers. They are selected online during a profiling run, the
// way trace-driven task selection works in practice: walking the dynamic
// instruction stream, a program counter is marked as an anchor whenever at
// least stride instructions have executed since the last anchor and the
// previous instruction ended a basic block (so every anchor is a block
// leader). The same static anchor therefore recurs roughly every stride
// dynamic instructions on the profiled input.
package profile

import (
	"fmt"
	"sort"

	"mssp/internal/cfg"
	"mssp/internal/cpu"
	"mssp/internal/isa"
	"mssp/internal/state"
)

// Profile summarizes one or more training runs of a program.
type Profile struct {
	// Exec counts how many times each instruction address executed.
	Exec map[uint64]uint64
	// Taken and NotTaken count conditional branch outcomes per address.
	Taken    map[uint64]uint64
	NotTaken map[uint64]uint64
	// Anchors is the static task-boundary set, ascending.
	Anchors []uint64
	// Total is the number of instructions executed while profiling.
	Total uint64
	// Halted reports whether the profiled run reached a halt.
	Halted bool
	// Stride is the anchor stride the profile was collected with.
	Stride uint64
}

// Options configures a profiling run.
type Options struct {
	// Stride is the target dynamic distance between task anchors.
	Stride uint64
	// MaxSteps bounds the run; zero means a large default.
	MaxSteps uint64
	// SP is the initial stack pointer; zero means a default placement.
	SP uint64
}

const (
	defaultMaxSteps = 200_000_000
	defaultSP       = 1 << 28
)

// Collect runs the program on the sequential model, gathering a profile.
//
// Collection is two-pass. The first pass gathers counts; the second selects
// anchors with those counts in hand: an anchor should recur roughly every
// stride dynamic instructions, so block leaders that execute far more often
// than Total/stride (hot inner-loop headers) are ineligible — task
// boundaries get hoisted to outer-loop level, where the master's and the
// architected execution's crossing counts are robust to distilled-path
// deviations inside inner loops. If no eligible leader shows up for a long
// time the constraint is relaxed rather than leaving a huge region
// anchorless.
func Collect(p *isa.Program, opts Options) (*Profile, error) {
	if opts.Stride == 0 {
		return nil, fmt.Errorf("profile: Stride must be positive")
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	if opts.SP == 0 {
		opts.SP = defaultSP
	}
	prof := &Profile{
		Exec:     make(map[uint64]uint64),
		Taken:    make(map[uint64]uint64),
		NotTaken: make(map[uint64]uint64),
		Stride:   opts.Stride,
	}

	// Both passes run the program on the run loop one stretch per call: from
	// the PC through the first instruction that ends a block or stores. Only
	// a stretch's last instruction can branch, and a store that rewrites
	// code lands only at a stretch's end, so lengths computed from the code
	// words hold until the runner turns dirty; from then on, and outside the
	// code segment, a stretch is one instruction.
	code := isa.Predecode(p)
	base, insts, _, _ := code.Table()
	lens := make([]uint64, len(insts))
	for i := len(insts) - 1; i >= 0; i-- {
		lens[i] = 1
		if op := insts[i].Op; i+1 < len(insts) && !op.EndsBlock() && op != isa.OpSt {
			lens[i] += lens[i+1]
		}
	}
	// next runs the stretch at s.PC, or its first max instructions, and
	// returns the run and the op of the last instruction run.
	next := func(s *state.State, c *cpu.Code, max uint64) (res cpu.RunResult, last isa.Op, err error) {
		n := uint64(1)
		if i := s.PC - base; i < uint64(len(lens)) && !c.Dirty() {
			n = min(lens[i], max)
			last = insts[i+n-1].Op
		} else {
			last = isa.Decode(s.Mem.Read(s.PC)).Op
		}
		res, err = c.RunState(s, n)
		return res, last, err
	}

	// Pass 1: counts, one tally per stretch, credited to each of its pcs
	// when the pass ends.
	type stretch struct{ pc, n uint64 }
	runs := make(map[stretch]uint64)
	s, c := state.NewFromProgram(p, opts.SP), cpu.NewCode(code)
	for prof.Total < opts.MaxSteps {
		pc := s.PC
		res, last, err := next(s, c, opts.MaxSteps-prof.Total)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		runs[stretch{pc, res.Steps}]++
		prof.Total += res.Steps

		if end := pc + res.Steps - 1; last.IsBranch() {
			if s.PC == end+1 {
				prof.NotTaken[end]++
			} else {
				prof.Taken[end]++
			}
		}
		if res.Halted {
			prof.Halted = true
			break
		}
	}
	for st, k := range runs {
		for pc := st.pc; pc < st.pc+st.n; pc++ {
			prof.Exec[pc] += k
		}
	}

	// Pass 2: anchor selection. A location is eligible when (a) its
	// recurrence interval (Total / Exec) is at least about half the
	// stride, and (b) it is a natural-loop header, a direct call target,
	// or the entry — points whose dynamic crossing counts are stable when
	// the distiller prunes branches around them. (An anchor inside an
	// if-arm would be crossed a different number of times by the master
	// once the branch is pruned, misaligning task boundaries.) When no
	// eligible point appears for 8 strides the structural constraint is
	// relaxed to any block leader.
	budget := 2 * prof.Total / opts.Stride
	if budget == 0 {
		budget = 1
	}
	structural := map[uint64]bool{p.Entry: true}
	if g, err := cfg.Build(p); err == nil {
		for _, l := range g.NaturalLoops() {
			structural[l.Header] = true
		}
		for pc := p.Code.Base; pc < p.Code.End(); pc++ {
			if in := p.InstAt(pc); in.Op == isa.OpJal && in.Rd != isa.RegZero {
				structural[uint64(in.Imm)] = true
			}
		}
	}
	// Only a stretch's first pc can follow a block end, so anchors are
	// decided once per stretch.
	anchorSet := map[uint64]bool{}
	sinceAnchor := uint64(0)
	blockEnded := true // program start behaves like a boundary
	s, c = state.NewFromProgram(p, opts.SP), cpu.NewCode(code)
	for steps := uint64(0); steps < opts.MaxSteps; {
		if pc := s.PC; blockEnded {
			switch {
			case anchorSet[pc]:
				// Crossing an existing anchor restarts the spacing count,
				// keeping the static anchor set minimal.
				sinceAnchor = 0
			case sinceAnchor >= opts.Stride && prof.Exec[pc] <= budget && structural[pc],
				sinceAnchor >= 8*opts.Stride && prof.Exec[pc] <= budget,
				sinceAnchor >= 16*opts.Stride:
				anchorSet[pc] = true
				sinceAnchor = 0
			}
		}
		res, last, err := next(s, c, opts.MaxSteps-steps)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		steps += res.Steps
		sinceAnchor += res.Steps
		blockEnded = last.EndsBlock()
		if res.Halted {
			break
		}
	}

	prof.Anchors = make([]uint64, 0, len(anchorSet))
	for a := range anchorSet {
		prof.Anchors = append(prof.Anchors, a)
	}
	sort.Slice(prof.Anchors, func(i, j int) bool { return prof.Anchors[i] < prof.Anchors[j] })
	return prof, nil
}

// Bias returns the taken fraction of the conditional branch at pc and the
// total number of times it executed.
func (p *Profile) Bias(pc uint64) (takenFrac float64, total uint64) {
	t, nt := p.Taken[pc], p.NotTaken[pc]
	total = t + nt
	if total == 0 {
		return 0, 0
	}
	return float64(t) / float64(total), total
}
