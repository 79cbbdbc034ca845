package workloads

import "mssp/internal/isa"

// Micro-benchmark programs shared by the internal/cpu benchmarks and
// cmd/msspbench. They are not registered workloads — they exist to measure
// the interpreter itself, not to model SPEC kernels — but live here so the
// benchmark suite and the tracked-baseline tool measure the same programs.

func microProg(insts []isa.Inst) *isa.Program {
	words := make([]uint64, len(insts))
	for i, in := range insts {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			panic(err)
		}
		words[i] = w
	}
	return &isa.Program{Code: isa.Segment{Base: 0, Words: words}}
}

// MicroTight is the pure-ALU benchmark loop: 3 instructions per iteration,
// 3*iters+2 dynamic instructions total.
func MicroTight(iters int64) *isa.Program {
	return microProg([]isa.Inst{
		{Op: isa.OpLdi, Rd: 1, Imm: iters},
		{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 1},
		{Op: isa.OpHalt},
	})
}

// MicroMem adds a load/store pair per iteration: 6 instructions per
// iteration, 6*iters+3 dynamic instructions total.
func MicroMem(iters int64) *isa.Program {
	return microProg([]isa.Inst{
		{Op: isa.OpLdi, Rd: 1, Imm: iters},
		{Op: isa.OpLdi, Rd: 3, Imm: 4096},
		{Op: isa.OpLd, Rd: 4, Rs1: 3},
		{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 1},
		{Op: isa.OpSt, Rs1: 3, Rs2: 4},
		{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 2},
		{Op: isa.OpHalt},
	})
}
