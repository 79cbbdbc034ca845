// Package cpu implements the MIR sequential execution model — the SEQ
// reference machine against which the MSSP machine's correctness is measured.
//
// Execution is defined against the Env interface rather than a concrete
// state so the same single-step semantics, Step, drives the reference
// executions: the reference interpreter (Run), slave processors on the Env
// path (which layer live-in/live-out capture on top), and the taint replay.
// This is the determinism requirement of the formal model made structural:
// two consistent environments stepping the same instruction produce the
// same writes, because they run the same code path here, which evaluates
// the reference semantics isa.ALU and isa.Taken. Everything else — the SEQ
// baseline, the master, fast-path slaves, the profiler and sequential
// fallback — runs the devirtualized loop in fast.go, the one other copy,
// which the equivalence tests hold to the reference.
package cpu

import (
	"fmt"

	"mssp/internal/isa"
	"mssp/internal/state"
)

// Env is the cell-access interface the single-step semantics runs against.
//
// Fetch is distinct from ReadMem so execution contexts can observe data reads
// (live-ins) without drowning in instruction fetches; MIR programs are not
// self-modifying, and the MSSP verify unit, like the real design, does not
// verify code reads.
type Env interface {
	ReadReg(r int) uint64
	WriteReg(r int, v uint64)
	ReadMem(addr uint64) uint64
	WriteMem(addr, v uint64)
	PC() uint64
	SetPC(pc uint64)
	Fetch(addr uint64) uint64
}

// Fault is an execution fault: an undecodable instruction word. Misspeculated
// slave tasks can fault (for example after being seeded with a garbage PC);
// the MSSP engine treats a faulting task as a misspeculation.
type Fault struct {
	PC   uint64
	Word uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("cpu: invalid instruction word %#x at pc %d", f.Word, f.PC)
}

// Step executes one instruction in env and returns it.
//
// Halt is a fixpoint: executing a halt leaves the PC on the halt instruction,
// so stepping a halted machine halts again. This makes n-step sequential
// execution total, which the refinement checker relies on.
//
// Step is the slow path: it fetches and decodes the instruction word through
// the environment on every call.
func Step(env Env) (isa.Inst, error) {
	pc := env.PC()
	w := env.Fetch(pc)
	in := isa.Decode(w)
	if !in.Op.Valid() {
		return in, &Fault{PC: pc, Word: w}
	}
	stepExec(env, in, pc)
	return in, nil
}

// stepExec applies one decoded instruction's semantics to env, including the
// PC update; the fault check happened at fetch. Register writers compute
// through isa.ALU and conditional branches through isa.Taken, the reference
// semantics. It reads exactly the registers in.Regs reports, the footprint
// the run loop logs as live-ins. Nop and FORK (which the master interprets)
// only advance the PC.
func stepExec(env Env, in isa.Inst, pc uint64) {
	next := pc + 1
	switch op := in.Op; {
	case op >= isa.OpAdd && op <= isa.OpLdih:
		a, b := uint64(0), uint64(in.Imm)
		if op != isa.OpLdi {
			a = env.ReadReg(int(in.Rs1))
		}
		if op <= isa.OpSltu {
			b = env.ReadReg(int(in.Rs2))
		}
		env.WriteReg(int(in.Rd), isa.ALU(op, a, b))
	case op.IsBranch():
		if isa.Taken(op, env.ReadReg(int(in.Rs1)), env.ReadReg(int(in.Rs2))) {
			next = uint64(in.Imm)
		}
	case op == isa.OpLd:
		env.WriteReg(int(in.Rd), env.ReadMem(env.ReadReg(int(in.Rs1))+uint64(in.Imm)))
	case op == isa.OpSt:
		env.WriteMem(env.ReadReg(int(in.Rs1))+uint64(in.Imm), env.ReadReg(int(in.Rs2)))
	case op == isa.OpJal:
		env.WriteReg(int(in.Rd), pc+1)
		next = uint64(in.Imm)
	case op == isa.OpJalr:
		next = env.ReadReg(int(in.Rs1)) + uint64(in.Imm)
		env.WriteReg(int(in.Rd), pc+1)
	case op == isa.OpHalt:
		next = pc // halt is a fixpoint
	}
	env.SetPC(next)
}

// RunResult summarizes a bounded run.
type RunResult struct {
	Steps  uint64 // instructions executed (a halt instruction counts once)
	Halted bool   // reached a halt instruction
}

// Run executes at most max instructions in env, stopping early at a halt or
// a fault. The halt instruction itself counts as an executed instruction.
func Run(env Env, max uint64) (RunResult, error) {
	var res RunResult
	for res.Steps < max {
		in, err := Step(env)
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
}

// StateEnv adapts a *state.State to the Env interface. Instruction fetches
// read from the same memory as data accesses.
type StateEnv struct {
	S *state.State
}

func (e StateEnv) ReadReg(r int) uint64       { return e.S.ReadReg(r) }
func (e StateEnv) WriteReg(r int, v uint64)   { e.S.WriteReg(r, v) }
func (e StateEnv) ReadMem(addr uint64) uint64 { return e.S.Mem.Read(addr) }
func (e StateEnv) WriteMem(addr, v uint64)    { e.S.Mem.Write(addr, v) }
func (e StateEnv) PC() uint64                 { return e.S.PC }
func (e StateEnv) SetPC(pc uint64)            { e.S.PC = pc }
func (e StateEnv) Fetch(addr uint64) uint64   { return e.S.Mem.Read(addr) }

var _ Env = StateEnv{}

// Seq advances a state by n instructions under the sequential model and
// returns the number actually executed (fewer than n only at a halt or
// fault). This is the seq(S, n) of the formal model.
//
// Seq runs on the devirtualized loop, decoding each instruction from
// memory; callers that hold the program can go faster still by predecoding
// it and using Code.RunState.
func Seq(s *state.State, n uint64) (uint64, error) {
	var stop StopResult
	res, _, err := runConcrete(s, nil, false, n, false, &stop, nil)
	return res.Steps, err
}
