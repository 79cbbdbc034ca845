// Package cpu implements the MIR sequential execution model — the SEQ
// reference machine against which the MSSP machine's correctness is measured.
//
// Execution is defined against the Env interface rather than a concrete
// state so the same single-step semantics drives the reference
// interpreter, the profiler, sequential fallback, and slave processors
// (which layer live-in/live-out capture on top). This is the determinism
// requirement of the formal model made structural: two consistent
// environments stepping the same instruction produce the same writes,
// because they run the same code path here. The master processor and the
// fast paths run the same semantics on the devirtualized loop in fast.go,
// which the equivalence tests hold to Step.
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
// the environment on every call. Execution contexts that know their program
// up front step through a Code instead, which serves decoded instructions
// from a predecoded table with identical semantics.
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
// PC update. It is the single definition of per-instruction semantics for
// every Env-based execution context; the fault check happened at fetch.
func stepExec(env Env, in isa.Inst, pc uint64) {
	next := pc + 1
	switch in.Op {
	case isa.OpNop, isa.OpFork:
		// FORK is architecturally a no-op; the master engine interprets it.

	case isa.OpAdd:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))+env.ReadReg(int(in.Rs2)))
	case isa.OpSub:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))-env.ReadReg(int(in.Rs2)))
	case isa.OpMul:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))*env.ReadReg(int(in.Rs2)))
	case isa.OpDiv, isa.OpRem:
		env.WriteReg(int(in.Rd), isa.ALU(in.Op, env.ReadReg(int(in.Rs1)), env.ReadReg(int(in.Rs2))))
	case isa.OpAnd:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))&env.ReadReg(int(in.Rs2)))
	case isa.OpOr:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))|env.ReadReg(int(in.Rs2)))
	case isa.OpXor:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))^env.ReadReg(int(in.Rs2)))
	case isa.OpSll:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))<<(env.ReadReg(int(in.Rs2))&63))
	case isa.OpSrl:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))>>(env.ReadReg(int(in.Rs2))&63))
	case isa.OpSra:
		env.WriteReg(int(in.Rd), uint64(int64(env.ReadReg(int(in.Rs1)))>>(env.ReadReg(int(in.Rs2))&63)))
	case isa.OpSlt:
		env.WriteReg(int(in.Rd), boolWord(int64(env.ReadReg(int(in.Rs1))) < int64(env.ReadReg(int(in.Rs2)))))
	case isa.OpSltu:
		env.WriteReg(int(in.Rd), boolWord(env.ReadReg(int(in.Rs1)) < env.ReadReg(int(in.Rs2))))

	case isa.OpAddi:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))+uint64(in.Imm))
	case isa.OpAndi:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))&uint64(in.Imm))
	case isa.OpOri:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))|uint64(in.Imm))
	case isa.OpXori:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))^uint64(in.Imm))
	case isa.OpSlli:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))<<(uint64(in.Imm)&63))
	case isa.OpSrli:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))>>(uint64(in.Imm)&63))
	case isa.OpSrai:
		env.WriteReg(int(in.Rd), uint64(int64(env.ReadReg(int(in.Rs1)))>>(uint64(in.Imm)&63)))
	case isa.OpSlti:
		env.WriteReg(int(in.Rd), boolWord(int64(env.ReadReg(int(in.Rs1))) < in.Imm))
	case isa.OpSltui:
		env.WriteReg(int(in.Rd), boolWord(env.ReadReg(int(in.Rs1)) < uint64(in.Imm)))
	case isa.OpMuli:
		env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))*uint64(in.Imm))

	case isa.OpLdi:
		env.WriteReg(int(in.Rd), uint64(in.Imm))
	case isa.OpLdih:
		low := env.ReadReg(int(in.Rs1)) & 0xffffffff
		env.WriteReg(int(in.Rd), uint64(in.Imm)<<32|low)

	case isa.OpLd:
		env.WriteReg(int(in.Rd), env.ReadMem(env.ReadReg(int(in.Rs1))+uint64(in.Imm)))
	case isa.OpSt:
		env.WriteMem(env.ReadReg(int(in.Rs1))+uint64(in.Imm), env.ReadReg(int(in.Rs2)))

	case isa.OpBeq:
		if env.ReadReg(int(in.Rs1)) == env.ReadReg(int(in.Rs2)) {
			next = uint64(in.Imm)
		}
	case isa.OpBne:
		if env.ReadReg(int(in.Rs1)) != env.ReadReg(int(in.Rs2)) {
			next = uint64(in.Imm)
		}
	case isa.OpBlt:
		if int64(env.ReadReg(int(in.Rs1))) < int64(env.ReadReg(int(in.Rs2))) {
			next = uint64(in.Imm)
		}
	case isa.OpBge:
		if int64(env.ReadReg(int(in.Rs1))) >= int64(env.ReadReg(int(in.Rs2))) {
			next = uint64(in.Imm)
		}
	case isa.OpBltu:
		if env.ReadReg(int(in.Rs1)) < env.ReadReg(int(in.Rs2)) {
			next = uint64(in.Imm)
		}
	case isa.OpBgeu:
		if env.ReadReg(int(in.Rs1)) >= env.ReadReg(int(in.Rs2)) {
			next = uint64(in.Imm)
		}

	case isa.OpJal:
		env.WriteReg(int(in.Rd), pc+1)
		next = uint64(in.Imm)
	case isa.OpJalr:
		target := env.ReadReg(int(in.Rs1)) + uint64(in.Imm)
		env.WriteReg(int(in.Rd), pc+1)
		next = target

	case isa.OpHalt:
		next = pc // halt is a fixpoint
	}

	env.SetPC(next)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
// Seq runs on the devirtualized fast path (RunState); callers that hold the
// program can go faster still by predecoding it and using Code.RunState.
func Seq(s *state.State, n uint64) (uint64, error) {
	res, err := RunState(s, n)
	return res.Steps, err
}
