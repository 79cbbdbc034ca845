package cpu

// This file is the fast-path execution core (see docs/PERFORMANCE.md).
//
// The slow path — Step over the Env interface — pays, per dynamic
// instruction, one Fetch through memory, one Decode, and five-plus virtual
// calls. It runs only in the reference executions (the cpu package
// comment). The fast path removes those costs in two independent layers:
//
//   - Predecode: a Code runner serves instructions from an
//     isa.DecodedProgram table instead of Fetch+Decode.
//   - Devirtualization: Seq / Code.RunState / RunToStop / RunCapture
//     execute directly against a concrete *state.State and *mem.Memory on
//     one run loop, runConcrete. The SEQ baseline, cpu.Seq, the refinement
//     checker's replay, the profiler, sequential fallback and the master of
//     both engines run it with no hook; slaves run it through a Capture,
//     which logs their live-ins, buffers their stores and adds their stop
//     rules.
//
// isa.ALU and isa.Taken are the reference semantics, which stepExec and the
// fused fallback evaluate; runConcrete's inlined switch is the one other
// copy, held to them op by op (TestRunLoopMatchesISA) and program by program
// (TestFastSlowEquivalence, the chaos corpus differential). MIR is not
// self-modifying, but if a store does land in the predecoded code segment
// the runner notices and permanently falls back to fetching through
// memory, so even self-modifying programs execute exactly like the slow
// path.

import (
	"math/bits"

	"mssp/internal/isa"
	// The run loop's loads and stores call mem.Memory's Read and Write
	// through state.State. The compiler inlines a function of another
	// package only where it reads that package's export data, so cpu
	// imports mem itself to keep those calls inlined.
	_ "mssp/internal/mem"
	"mssp/internal/state"
)

// Code is a fast-path instruction source over a predecoded program, with
// the bookkeeping that keeps it semantically transparent: a dirty flag set
// the moment a store hits the predecoded code segment, after which every
// fetch goes through memory again (slow path).
//
// A Code is cheap (two words) and single-use per execution context; the
// underlying isa.DecodedProgram is immutable and shared. A nil table is
// allowed and means "always slow path", so callers can thread an optional
// table without branching.
type Code struct {
	prog  *isa.DecodedProgram
	dirty bool
}

// NewCode returns a runner over the given predecoded table (nil for a
// pure slow-path runner).
func NewCode(prog *isa.DecodedProgram) *Code { return &Code{prog: prog} }

// Dirty reports whether a store has hit the code segment, invalidating the
// predecoded table for the rest of this runner's life.
func (c *Code) Dirty() bool { return c.dirty }

// Step is the package-level Step: it fetches through env and ignores the
// table. It remains only for benchmark/replay.go, which times it as a
// master's path, and goes when that does.
func (c *Code) Step(env Env) (isa.Inst, error) { return Step(env) }

// RunState executes at most max instructions directly against s on the
// fully devirtualized loop: concrete register file and memory accesses,
// predecoded fetches, no interface dispatch. Stopping rules and semantics
// are identical to Run over StateEnv. The runner's dirty flag persists
// across calls, so a self-modifying program stays on the slow fetch path
// for this runner's whole life.
func (c *Code) RunState(s *state.State, max uint64) (RunResult, error) {
	var stop StopResult
	res, dirty, err := runConcrete(s, c.prog, c.dirty, max, false, &stop, nil)
	c.dirty = dirty
	return res, err
}

// StopKind classifies why RunToStop or RunCapture returned.
type StopKind uint8

const (
	// StopSteps: the step budget ran out.
	StopSteps StopKind = iota
	// StopHalt: a halt instruction executed (PC is the halt fixpoint).
	StopHalt
	// StopFork: a FORK instruction executed; Anchor holds its immediate
	// (an original-program PC) and the state's PC is past the fork.
	StopFork
	// StopJalr: an indirect jump executed; the state's PC is the raw,
	// untranslated target. Master engines translate it and resume.
	StopJalr
	// StopFault: an invalid instruction word (also reported as an error).
	StopFault
	// StopEnd: a capturing run arrived at its end anchor for the last time.
	StopEnd
	// StopNonSpec: a capturing run's load or store touched a
	// non-speculative region; that instruction has executed.
	StopNonSpec
)

// StopResult reports a RunToStop or RunCapture stop.
type StopResult struct {
	Steps  uint64   // instructions executed this call (stop event included)
	Kind   StopKind //
	Anchor uint64   // FORK immediate, valid when Kind == StopFork
	// Stores is the number of store instructions executed this call, for
	// callers that relate checkpoint cost to the master stores behind it.
	Stores uint64
	// Fused is the number of instructions retired through fused
	// (superinstruction) dispatches this call; Fused/Steps is the dynamic
	// fusion ratio msspbench tracks as dispatch/fused_ratio.
	Fused uint64
}

// RunToStop executes at most max instructions directly against s on the
// devirtualized loop, additionally stopping — with the instruction's effects
// applied and the PC advanced — at every FORK (reporting its anchor) and
// every JALR (leaving the untranslated target in s.PC for the caller to
// map). It exists for the master (core.Master), which runs the distilled
// program here at full fast-path speed for both engines and layers
// fork/translation policy on top, instead of stepping through the Env
// interface. The dirty flag persists like RunState's.
func (c *Code) RunToStop(s *state.State, max uint64) (StopResult, error) {
	var stop StopResult
	res, dirty, err := runConcrete(s, c.prog, c.dirty, max, true, &stop, nil)
	c.dirty = dirty
	stop.Steps = res.Steps
	return stop, err
}

// RunCapture executes at most max instructions directly against s on the
// devirtualized loop for a speculative task: s holds the task's registers
// and PC, s.Mem is the image instructions are fetched from, and cp carries
// everything that makes the run a slave's — its loads and stores, its
// register live-ins and live-outs, and its extra stop rules (StopEnd,
// StopNonSpec). A run may be resumed by calling RunCapture again with the
// same cp; the dirty flag persists like RunState's.
func (c *Code) RunCapture(s *state.State, max uint64, cp *Capture) (StopResult, error) {
	var stop StopResult
	res, dirty, err := runConcrete(s, c.prog, c.dirty, max, false, &stop, cp)
	c.dirty = dirty
	stop.Steps = res.Steps
	return stop, err
}

// MemPort is where a capturing run sends its data loads and stores.
type MemPort interface {
	ReadMem(addr uint64) uint64
	WriteMem(addr, v uint64)
}

// Capture is the run loop's slave hook (RunCapture). A slave differs from
// the SEQ machine only in what it observes and where it stops, so the
// Capture holds exactly that: data accesses go to Mem, registers the run
// reads before writing are logged to LiveIn once per dispatch from the
// dispatch's read-before-write mask, and the run also stops on the last
// arrival at End and after any access that sets NonSpec. The SEQ and master
// paths pass a nil Capture.
type Capture struct {
	// Mem performs every data load and store (instruction fetches read the
	// run's state memory).
	Mem MemPort
	// LiveIn receives each register the run reads before writing it, with
	// the value read.
	LiveIn *state.Delta
	// Read and Written are the registers read before being written, and the
	// registers written, so far.
	Read, Written uint32
	// End is the end anchor and Ends the arrivals at it still to come; the
	// run stops with StopEnd on the last one. Ends == 0 means no anchor.
	End, Ends uint64
	// NonSpec is set by Mem when an access touches a non-speculative
	// region; the run then stops with StopNonSpec.
	NonSpec bool
	// Unfused makes every instruction dispatch singly, for tasks whose
	// NonSpec stop must fall right after the offending access even inside
	// what would be a fused group.
	Unfused bool
}

// note logs one dispatch's register footprint (isa.Inst.Regs, precomputed
// per table slot as RegsAt and FusedRegsAt): registers it reads before
// writing that the run has neither read nor written yet become live-ins at
// their current values, and its writes join Written.
func (c *Capture) note(s *state.State, reads, writes uint32) {
	if in := reads &^ (c.Read | c.Written); in != 0 {
		c.Read |= in
		for ; in != 0; in &= in - 1 {
			r := bits.TrailingZeros32(in)
			c.LiveIn.SetReg(r, s.Regs[r])
		}
	}
	c.Written |= writes
}

// endWithin reports whether the end anchor lies in [pc, pc+n).
func (c *Capture) endWithin(pc, n uint64) bool { return c.Ends != 0 && c.End-pc < n }

// stopAfter applies the stop rules a capturing run checks after every
// dispatch: a non-speculative access, then arrival at the end anchor. It
// returns StopSteps to keep going.
func (c *Capture) stopAfter(pc uint64) StopKind {
	if c.NonSpec {
		return StopNonSpec
	}
	if pc == c.End && c.Ends != 0 {
		if c.Ends--; c.Ends == 0 {
			return StopEnd
		}
	}
	return StopSteps
}

// aluQuick computes one straight-line register-writing fused component's
// value (OpAdd..OpLdih) for the ops that dominate fused groups in practice —
// the addi back-edge/induction forms, constant loads and register adds —
// reporting ok=false for everything else so the dispatch site falls back to
// aluVal. The split exists purely for the inliner: isa.ALU's switch is far
// past the inline budget, and an out-of-line call per component was measured
// to cancel the entire fused-dispatch win (docs/PERFORMANCE.md); keeping the
// fallback call out of this function keeps it under the budget, so the hot
// ops execute with zero call overhead.
func aluQuick(s *state.State, in *isa.Inst) (uint64, bool) {
	switch in.Op {
	case isa.OpAddi:
		return rdr(s, in.Rs1) + uint64(in.Imm), true
	case isa.OpLdi:
		return uint64(in.Imm), true
	case isa.OpAdd:
		return rdr(s, in.Rs1) + rdr(s, in.Rs2), true
	}
	return 0, false
}

// brQuick evaluates a conditional-branch fused component's condition for the
// loop back-edge compares (bne, blt), with ok=false sending the dispatch
// site to brTaken; see aluQuick for why the fallback lives at the call site.
func brQuick(s *state.State, in *isa.Inst) (taken, ok bool) {
	// Every branch op reads both source registers, so the reads hoist out of
	// the switch (which also keeps this function under the inline budget).
	a, b := rdr(s, in.Rs1), rdr(s, in.Rs2)
	switch in.Op {
	case isa.OpBne:
		return a != b, true
	case isa.OpBlt:
		return int64(a) < int64(b), true
	}
	return false, false
}

// aluVal computes one fused ALU component's value (OpAdd..OpLdih) through
// isa.ALU: b is rs2 for the three-register ops and the immediate otherwise.
func aluVal(s *state.State, in *isa.Inst) uint64 {
	b := uint64(in.Imm)
	if in.Op <= isa.OpSltu {
		b = rdr(s, in.Rs2)
	}
	return isa.ALU(in.Op, rdr(s, in.Rs1), b)
}

// brTaken evaluates a conditional-branch fused component through isa.Taken.
func brTaken(s *state.State, in *isa.Inst) bool {
	return isa.Taken(in.Op, rdr(s, in.Rs1), rdr(s, in.Rs2))
}

// rdr reads register r of s; register 0 reads as zero. The &31 lets the
// compiler drop the bounds check (decode already masks to five bits).
func rdr(s *state.State, r uint8) uint64 {
	if r == 0 {
		return 0
	}
	return s.Regs[r&31]
}

// wrr writes register r of s; writes to register 0 are discarded.
func wrr(s *state.State, r uint8, v uint64) {
	if r != 0 {
		s.Regs[r&31] = v
	}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// runConcrete is the devirtualized interpreter loop behind Seq,
// Code.RunState, Code.RunToStop and Code.RunCapture. When code is non-nil
// and not dirty, instructions come from the predecode table; otherwise each
// fetch reads memory and decodes. It returns the (possibly updated) dirty
// flag. With stops set, fork and jalr instructions end the run after
// executing (the RunToStop contract); the StopResult's Steps field is filled
// by the caller. A non-nil c makes the run a slave's (see Capture); every
// hook site tests c first, so the SEQ and master paths pay one predictable
// branch per dispatch and per memory access.
//
// The stop report is filled through an out-pointer rather than returned:
// returning it by value pushed the function's return state past the
// register ABI's capacity and spilled the loop's hot locals to the stack,
// which is where the cpu/run_tight drift between the fastpath and predict
// baselines came from (see docs/PERFORMANCE.md).
//
// Its switch is the second copy of the per-instruction semantics, held to
// the reference, isa.ALU and isa.Taken, as the file comment says.
func runConcrete(s *state.State, code *isa.DecodedProgram, dirty bool, max uint64, stops bool, stop *StopResult, c *Capture) (RunResult, bool, error) {
	var res RunResult
	m := s.Mem
	pc := s.PC

	var base uint64
	var insts []isa.Inst
	var valid []bool
	var words []uint64
	var fusedTab []isa.FusedInst
	if code != nil {
		base, insts, valid, words = code.Table()
		fusedTab = code.FusedTable()
	}
	// ilen doubles as the fast-path flag: zeroing it (here when the runner
	// starts dirty, or mid-run when a store hits the code segment) sends
	// every subsequent fetch through memory with a single compare per
	// iteration instead of a separate boolean test.
	ilen := uint64(len(insts))
	flen := uint64(len(fusedTab))
	if code == nil || dirty {
		ilen, flen = 0, 0
	}
	if c != nil && c.Unfused {
		flen = 0
	}

	// Stores and fused-retire counts accumulate in locals (registers) and
	// flush to the out-parameter at every exit: a through-the-pointer
	// increment per dispatch would cost a load+store in the hottest path.
	// The step budget runs as a countdown for the same reason — one live
	// register serves both the loop condition and the fused budget check;
	// exits reconstruct res.Steps as max-left.
	var stores, fusedN uint64
	left := max

	var in isa.Inst
	for left != 0 {
		// Superinstruction dispatch: a fused group headed at this pc retires
		// in one trip around the loop, provided the remaining step budget
		// covers the whole group — otherwise the components execute singly
		// below, so a budget expires mid-group exactly as it would unfused.
		// Groups perform every architectural write in program order (modulo
		// proved-dead elisions, see internal/fuse), contain no stopping ops,
		// and end any store last, so the dirty transition happens after the
		// group like after a single store. A capturing run also declines a
		// group whose interior holds its end anchor: every arrival there must
		// be seen (fuse.Options.Anchors keeps known anchors out of interiors;
		// this guard covers ends the fusion pass was not told of).
		if i := pc - base; i < flen && fusedTab[i].Kind != isa.FuseNone && uint64(fusedTab[i].N) <= left &&
			(c == nil || !c.endWithin(pc+1, uint64(fusedTab[i].N)-1)) {
			f := &fusedTab[i]
			if c != nil {
				reads, writes := code.FusedRegsAt(i)
				c.note(s, reads, writes)
			}
			switch f.Kind {
			case isa.FuseAluAlu:
				v, ok := aluQuick(s, &f.A)
				if !ok {
					v = aluVal(s, &f.A)
				}
				wrr(s, f.RdA, v)
				if v, ok = aluQuick(s, &f.B); !ok {
					v = aluVal(s, &f.B)
				}
				wrr(s, f.B.Rd, v)
				pc += 2
			case isa.FuseAluBr:
				v, ok := aluQuick(s, &f.A)
				if !ok {
					v = aluVal(s, &f.A)
				}
				wrr(s, f.RdA, v)
				t, ok := brQuick(s, &f.B)
				if !ok {
					t = brTaken(s, &f.B)
				}
				if t {
					pc = uint64(f.B.Imm)
				} else {
					pc += 2
				}
			case isa.FuseAluAluBr:
				v, ok := aluQuick(s, &f.A)
				if !ok {
					v = aluVal(s, &f.A)
				}
				wrr(s, f.RdA, v)
				if v, ok = aluQuick(s, &f.B); !ok {
					v = aluVal(s, &f.B)
				}
				wrr(s, f.RdB, v)
				t, ok := brQuick(s, &f.C)
				if !ok {
					t = brTaken(s, &f.C)
				}
				if t {
					pc = uint64(f.C.Imm)
				} else {
					pc += 3
				}
			case isa.FuseLdOp:
				var v uint64
				if a := rdr(s, f.A.Rs1) + uint64(f.A.Imm); c == nil {
					v = m.Read(a)
				} else {
					v = c.Mem.ReadMem(a)
				}
				wrr(s, f.RdA, v)
				v, ok := aluQuick(s, &f.B)
				if !ok {
					v = aluVal(s, &f.B)
				}
				wrr(s, f.B.Rd, v)
				pc += 2
			case isa.FuseOpSt:
				v, ok := aluQuick(s, &f.A)
				if !ok {
					v = aluVal(s, &f.A)
				}
				wrr(s, f.RdA, v)
				addr := rdr(s, f.B.Rs1) + uint64(f.B.Imm)
				if c == nil {
					m.Write(addr, rdr(s, f.B.Rs2))
				} else {
					c.Mem.WriteMem(addr, rdr(s, f.B.Rs2))
				}
				stores++
				if addr-base < ilen {
					ilen, flen, dirty = 0, 0, true
				}
				pc += 2
			case isa.FuseLdAluSt:
				var v uint64
				if a := rdr(s, f.A.Rs1) + uint64(f.A.Imm); c == nil {
					v = m.Read(a)
				} else {
					v = c.Mem.ReadMem(a)
				}
				wrr(s, f.RdA, v)
				v, ok := aluQuick(s, &f.B)
				if !ok {
					v = aluVal(s, &f.B)
				}
				wrr(s, f.RdB, v)
				addr := rdr(s, f.C.Rs1) + uint64(f.C.Imm)
				if c == nil {
					m.Write(addr, rdr(s, f.C.Rs2))
				} else {
					c.Mem.WriteMem(addr, rdr(s, f.C.Rs2))
				}
				stores++
				if addr-base < ilen {
					ilen, flen, dirty = 0, 0, true
				}
				pc += 3
			}
			left -= uint64(f.N)
			fusedN += uint64(f.N)
		} else {
			if i < ilen {
				if !valid[i] {
					s.PC = pc
					stop.Kind = StopFault
					res.Steps = max - left
					stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
					return res, dirty, &Fault{PC: pc, Word: words[i]}
				}
				in = insts[i]
				if c != nil {
					reads, writes := code.RegsAt(i)
					c.note(s, reads, writes)
				}
			} else {
				w := m.Read(pc)
				in = isa.Decode(w)
				if !in.Op.Valid() {
					s.PC = pc
					stop.Kind = StopFault
					res.Steps = max - left
					stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
					return res, dirty, &Fault{PC: pc, Word: w}
				}
				if c != nil {
					reads, writes := in.Regs()
					c.note(s, reads, writes)
				}
			}

			next := pc + 1
			switch in.Op {
			case isa.OpNop:

			case isa.OpFork:
				if stops {
					s.PC = next
					left--
					stop.Kind, stop.Anchor = StopFork, uint64(in.Imm)
					res.Steps = max - left
					stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
					return res, dirty, nil
				}

			case isa.OpAdd:
				wrr(s, in.Rd, rdr(s, in.Rs1)+rdr(s, in.Rs2))
			case isa.OpSub:
				wrr(s, in.Rd, rdr(s, in.Rs1)-rdr(s, in.Rs2))
			case isa.OpMul:
				wrr(s, in.Rd, rdr(s, in.Rs1)*rdr(s, in.Rs2))
			case isa.OpDiv, isa.OpRem:
				wrr(s, in.Rd, isa.ALU(in.Op, rdr(s, in.Rs1), rdr(s, in.Rs2)))
			case isa.OpAnd:
				wrr(s, in.Rd, rdr(s, in.Rs1)&rdr(s, in.Rs2))
			case isa.OpOr:
				wrr(s, in.Rd, rdr(s, in.Rs1)|rdr(s, in.Rs2))
			case isa.OpXor:
				wrr(s, in.Rd, rdr(s, in.Rs1)^rdr(s, in.Rs2))
			case isa.OpSll:
				wrr(s, in.Rd, rdr(s, in.Rs1)<<(rdr(s, in.Rs2)&63))
			case isa.OpSrl:
				wrr(s, in.Rd, rdr(s, in.Rs1)>>(rdr(s, in.Rs2)&63))
			case isa.OpSra:
				wrr(s, in.Rd, uint64(int64(rdr(s, in.Rs1))>>(rdr(s, in.Rs2)&63)))
			case isa.OpSlt:
				wrr(s, in.Rd, boolWord(int64(rdr(s, in.Rs1)) < int64(rdr(s, in.Rs2))))
			case isa.OpSltu:
				wrr(s, in.Rd, boolWord(rdr(s, in.Rs1) < rdr(s, in.Rs2)))

			case isa.OpAddi:
				wrr(s, in.Rd, rdr(s, in.Rs1)+uint64(in.Imm))
			case isa.OpAndi:
				wrr(s, in.Rd, rdr(s, in.Rs1)&uint64(in.Imm))
			case isa.OpOri:
				wrr(s, in.Rd, rdr(s, in.Rs1)|uint64(in.Imm))
			case isa.OpXori:
				wrr(s, in.Rd, rdr(s, in.Rs1)^uint64(in.Imm))
			case isa.OpSlli:
				wrr(s, in.Rd, rdr(s, in.Rs1)<<(uint64(in.Imm)&63))
			case isa.OpSrli:
				wrr(s, in.Rd, rdr(s, in.Rs1)>>(uint64(in.Imm)&63))
			case isa.OpSrai:
				wrr(s, in.Rd, uint64(int64(rdr(s, in.Rs1))>>(uint64(in.Imm)&63)))
			case isa.OpSlti:
				wrr(s, in.Rd, boolWord(int64(rdr(s, in.Rs1)) < in.Imm))
			case isa.OpSltui:
				wrr(s, in.Rd, boolWord(rdr(s, in.Rs1) < uint64(in.Imm)))
			case isa.OpMuli:
				wrr(s, in.Rd, rdr(s, in.Rs1)*uint64(in.Imm))

			case isa.OpLdi:
				wrr(s, in.Rd, uint64(in.Imm))
			case isa.OpLdih:
				low := rdr(s, in.Rs1) & 0xffffffff
				wrr(s, in.Rd, uint64(in.Imm)<<32|low)

			case isa.OpLd:
				var v uint64
				if a := rdr(s, in.Rs1) + uint64(in.Imm); c == nil {
					v = m.Read(a)
				} else {
					v = c.Mem.ReadMem(a)
				}
				wrr(s, in.Rd, v)
			case isa.OpSt:
				addr := rdr(s, in.Rs1) + uint64(in.Imm)
				if c == nil {
					m.Write(addr, rdr(s, in.Rs2))
				} else {
					c.Mem.WriteMem(addr, rdr(s, in.Rs2))
				}
				stores++
				if addr-base < ilen {
					// Self-modifying store: the table is stale from here on.
					ilen, flen, dirty = 0, 0, true
				}

			case isa.OpBeq:
				if rdr(s, in.Rs1) == rdr(s, in.Rs2) {
					next = uint64(in.Imm)
				}
			case isa.OpBne:
				if rdr(s, in.Rs1) != rdr(s, in.Rs2) {
					next = uint64(in.Imm)
				}
			case isa.OpBlt:
				if int64(rdr(s, in.Rs1)) < int64(rdr(s, in.Rs2)) {
					next = uint64(in.Imm)
				}
			case isa.OpBge:
				if int64(rdr(s, in.Rs1)) >= int64(rdr(s, in.Rs2)) {
					next = uint64(in.Imm)
				}
			case isa.OpBltu:
				if rdr(s, in.Rs1) < rdr(s, in.Rs2) {
					next = uint64(in.Imm)
				}
			case isa.OpBgeu:
				if rdr(s, in.Rs1) >= rdr(s, in.Rs2) {
					next = uint64(in.Imm)
				}

			case isa.OpJal:
				wrr(s, in.Rd, pc+1)
				next = uint64(in.Imm)
			case isa.OpJalr:
				target := rdr(s, in.Rs1) + uint64(in.Imm)
				wrr(s, in.Rd, pc+1)
				next = target
				if stops {
					s.PC = next
					left--
					stop.Kind = StopJalr
					res.Steps = max - left
					stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
					return res, dirty, nil
				}

			case isa.OpHalt:
				s.PC = pc // halt is a fixpoint
				left--
				res.Halted = true
				stop.Kind = StopHalt
				res.Steps = max - left
				stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
				return res, dirty, nil
			}

			pc = next
			left--
		}
		if c != nil {
			if k := c.stopAfter(pc); k != StopSteps {
				s.PC = pc
				stop.Kind = k
				res.Steps = max - left
				stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
				return res, dirty, nil
			}
		}
	}
	s.PC = pc
	stop.Kind = StopSteps
	res.Steps = max - left
	stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
	return res, dirty, nil
}
