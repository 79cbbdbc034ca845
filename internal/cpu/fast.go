package cpu

// This file is the fast-path execution core (see docs/PERFORMANCE.md).
//
// The slow path — Step over the Env interface — pays, per dynamic
// instruction, one Fetch through memory, one Decode, and five-plus virtual
// calls. The fast path removes those costs in two independent layers:
//
//   - Predecode: a Code runner serves instructions from an
//     isa.DecodedProgram table instead of Fetch+Decode. This layer keeps
//     the Env interface, so the master and slave contexts (which need
//     their read/write interception) use it unchanged.
//   - Devirtualization: RunState / Code.RunState execute directly against
//     a concrete *state.State and *mem.Memory, with no interface dispatch
//     at all. The SEQ baseline, cpu.Seq and the refinement checker's
//     replay run here.
//
// Semantics are identical to the slow path by construction and by test
// (TestFastSlowEquivalence, the chaos corpus differential): MIR is not
// self-modifying, but if a store does land in the predecoded code segment
// the runner notices and permanently falls back to fetching through
// memory, so even self-modifying programs execute exactly like the slow
// path.

import (
	"mssp/internal/isa"
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

// Step executes one instruction in env, exactly like Step, but fetching
// from the predecoded table whenever the PC lies inside it and no store
// has dirtied it.
func (c *Code) Step(env Env) (isa.Inst, error) {
	pc := env.PC()
	var in isa.Inst
	if c.prog != nil && !c.dirty {
		if tin, valid, ok := c.prog.At(pc); ok {
			if !valid {
				return tin, &Fault{PC: pc, Word: c.prog.Word(pc)}
			}
			in = tin
		} else {
			w := env.Fetch(pc)
			in = isa.Decode(w)
			if !in.Op.Valid() {
				return in, &Fault{PC: pc, Word: w}
			}
		}
	} else {
		w := env.Fetch(pc)
		in = isa.Decode(w)
		if !in.Op.Valid() {
			return in, &Fault{PC: pc, Word: w}
		}
	}
	stepExec(env, in, pc)
	// A store into the code segment makes the table stale; re-reading rs1
	// here is safe (stores never write registers) and unobservable (the
	// execution above already recorded the rs1 read where that matters).
	if in.Op == isa.OpSt && c.prog != nil && !c.dirty &&
		c.prog.Covers(env.ReadReg(int(in.Rs1))+uint64(in.Imm)) {
		c.dirty = true
	}
	return in, nil
}

// Run executes at most max instructions in env through the predecoded
// table, with Run's stopping rules.
func (c *Code) Run(env Env, max uint64) (RunResult, error) {
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
}

// RunState executes at most max instructions directly against s on the
// fully devirtualized loop: concrete register file and memory accesses,
// predecoded fetches, no interface dispatch. Stopping rules and semantics
// are identical to Run over StateEnv. The runner's dirty flag persists
// across calls, so a self-modifying program stays on the slow fetch path
// for this runner's whole life.
func (c *Code) RunState(s *state.State, max uint64) (RunResult, error) {
	var stop StopResult
	res, dirty, err := runConcrete(s, c.prog, c.dirty, max, false, &stop)
	c.dirty = dirty
	return res, err
}

// RunState executes at most max instructions directly against s with no
// interface dispatch, decoding each instruction from memory (no predecoded
// table). This is the devirtualized drop-in for Run(StateEnv{S: s}, max).
func RunState(s *state.State, max uint64) (RunResult, error) {
	var stop StopResult
	res, _, err := runConcrete(s, nil, false, max, false, &stop)
	return res, err
}

// StopKind classifies why RunToStop returned.
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
)

// StopResult reports a RunToStop stop.
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
// map). It exists for master engines: the true-parallel runtime's master
// goroutine runs the distilled program here at full fast-path speed and
// layers fork/translation policy on top, instead of stepping through the
// Env interface. The dirty flag persists like RunState's.
func (c *Code) RunToStop(s *state.State, max uint64) (StopResult, error) {
	var stop StopResult
	res, dirty, err := runConcrete(s, c.prog, c.dirty, max, true, &stop)
	c.dirty = dirty
	stop.Steps = res.Steps
	return stop, err
}

// DivSigned exposes the MIR signed-division semantics (divide by zero yields
// all ones; INT64_MIN / -1 wraps) for execution loops outside this package,
// such as the slave fast path in internal/task.
func DivSigned(a, b uint64) uint64 { return divSigned(a, b) }

// RemSigned exposes the MIR signed-remainder semantics (remainder by zero
// yields rs1; INT64_MIN % -1 yields 0); see DivSigned.
func RemSigned(a, b uint64) uint64 { return remSigned(a, b) }

// BoolWord returns 1 for true and 0 for false, the MIR comparison result
// encoding.
func BoolWord(b bool) uint64 { return boolWord(b) }

// aluQuick computes one straight-line register-writing fused component's
// value (OpAdd..OpLdih) for the ops that dominate fused groups in practice —
// the addi back-edge/induction forms, constant loads and register adds —
// reporting ok=false for everything else so the dispatch site falls back to
// the full-switch aluVal. The split exists purely for the inliner: aluVal's
// 26-way switch is far past the inline budget, and an out-of-line call per
// component was measured to cancel the entire fused-dispatch win
// (docs/PERFORMANCE.md); keeping the fallback call out of this function
// keeps it under the budget, so the hot ops execute with zero call overhead.
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
// site to the full brTaken; see aluQuick for why the fallback lives at the
// call site.
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

// aluVal computes one fused ALU component's value (OpAdd..OpLdih); the
// per-op semantics mirror runConcrete's cases exactly.
func aluVal(s *state.State, in *isa.Inst) uint64 {
	var v uint64
	switch in.Op {
	case isa.OpAdd:
		v = rdr(s, in.Rs1) + rdr(s, in.Rs2)
	case isa.OpSub:
		v = rdr(s, in.Rs1) - rdr(s, in.Rs2)
	case isa.OpMul:
		v = rdr(s, in.Rs1) * rdr(s, in.Rs2)
	case isa.OpDiv:
		v = divSigned(rdr(s, in.Rs1), rdr(s, in.Rs2))
	case isa.OpRem:
		v = remSigned(rdr(s, in.Rs1), rdr(s, in.Rs2))
	case isa.OpAnd:
		v = rdr(s, in.Rs1) & rdr(s, in.Rs2)
	case isa.OpOr:
		v = rdr(s, in.Rs1) | rdr(s, in.Rs2)
	case isa.OpXor:
		v = rdr(s, in.Rs1) ^ rdr(s, in.Rs2)
	case isa.OpSll:
		v = rdr(s, in.Rs1) << (rdr(s, in.Rs2) & 63)
	case isa.OpSrl:
		v = rdr(s, in.Rs1) >> (rdr(s, in.Rs2) & 63)
	case isa.OpSra:
		v = uint64(int64(rdr(s, in.Rs1)) >> (rdr(s, in.Rs2) & 63))
	case isa.OpSlt:
		v = boolWord(int64(rdr(s, in.Rs1)) < int64(rdr(s, in.Rs2)))
	case isa.OpSltu:
		v = boolWord(rdr(s, in.Rs1) < rdr(s, in.Rs2))
	case isa.OpAddi:
		v = rdr(s, in.Rs1) + uint64(in.Imm)
	case isa.OpAndi:
		v = rdr(s, in.Rs1) & uint64(in.Imm)
	case isa.OpOri:
		v = rdr(s, in.Rs1) | uint64(in.Imm)
	case isa.OpXori:
		v = rdr(s, in.Rs1) ^ uint64(in.Imm)
	case isa.OpSlli:
		v = rdr(s, in.Rs1) << (uint64(in.Imm) & 63)
	case isa.OpSrli:
		v = rdr(s, in.Rs1) >> (uint64(in.Imm) & 63)
	case isa.OpSrai:
		v = uint64(int64(rdr(s, in.Rs1)) >> (uint64(in.Imm) & 63))
	case isa.OpSlti:
		v = boolWord(int64(rdr(s, in.Rs1)) < in.Imm)
	case isa.OpSltui:
		v = boolWord(rdr(s, in.Rs1) < uint64(in.Imm))
	case isa.OpMuli:
		v = rdr(s, in.Rs1) * uint64(in.Imm)
	case isa.OpLdi:
		v = uint64(in.Imm)
	case isa.OpLdih:
		v = uint64(in.Imm)<<32 | rdr(s, in.Rs1)&0xffffffff
	}
	return v
}

// brTaken evaluates a conditional-branch fused component's condition,
// mirroring runConcrete's branch cases exactly.
func brTaken(s *state.State, in *isa.Inst) bool {
	switch in.Op {
	case isa.OpBeq:
		return rdr(s, in.Rs1) == rdr(s, in.Rs2)
	case isa.OpBne:
		return rdr(s, in.Rs1) != rdr(s, in.Rs2)
	case isa.OpBlt:
		return int64(rdr(s, in.Rs1)) < int64(rdr(s, in.Rs2))
	case isa.OpBge:
		return int64(rdr(s, in.Rs1)) >= int64(rdr(s, in.Rs2))
	case isa.OpBltu:
		return rdr(s, in.Rs1) < rdr(s, in.Rs2)
	}
	// isa.OpBgeu: the builder admits only branch opcodes here.
	return rdr(s, in.Rs1) >= rdr(s, in.Rs2)
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

// runConcrete is the devirtualized interpreter loop shared by RunState,
// Code.RunState and Code.RunToStop. When code is non-nil and not dirty,
// instructions come from the predecode table; otherwise each fetch reads
// memory and decodes. It returns the (possibly updated) dirty flag. With
// stops set, fork and jalr instructions end the run after executing (the
// RunToStop contract); the StopResult's Steps field is filled by the caller.
//
// The stop report is filled through an out-pointer rather than returned:
// returning it by value pushed the function's return state past the
// register ABI's capacity and spilled the loop's hot locals to the stack,
// which is where the cpu/run_tight drift between the fastpath and predict
// baselines came from (see docs/PERFORMANCE.md).
//
// Per-instruction semantics mirror stepExec exactly; the equivalence suite
// and the chaos corpus differential hold the two definitions together.
func runConcrete(s *state.State, code *isa.DecodedProgram, dirty bool, max uint64, stops bool, stop *StopResult) (RunResult, bool, error) {
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
		if i := pc - base; i < ilen {
			// Superinstruction dispatch: a fused group headed at this pc
			// retires in one trip around the loop, provided the remaining
			// step budget covers the whole group — otherwise the components
			// execute singly below, so a budget expires mid-group exactly as
			// it would unfused. Groups perform every architectural write in
			// program order (modulo proved-dead elisions, see internal/fuse),
			// contain no stopping ops, and end any store last, so the dirty
			// transition happens after the group like after a single store.
			if i < flen {
				f := &fusedTab[i]
				if k := f.Kind; k != isa.FuseNone && uint64(f.N) <= left {
					if k >= isa.FuseLoopAB {
						// Loop superinstruction: the final branch targets this
						// group's own head, so iterate locally while the branch
						// is taken and the budget allows whole groups. The
						// components are pure register ops (no loads, stores,
						// or stopping instructions), so nothing inside an
						// iteration can fault, stop, or dirty the table; when
						// the budget ceiling (iters) is hit, pc is back at the
						// head and the remaining <N steps execute singly below.
						if k == isa.FuseLoopChain {
							// Chained loop: this ld+op+st group plus the
							// alu+alu+br group at head+3, whose branch
							// returns here. Each local iteration retires all
							// six instructions; the store ends the first
							// half, so a self-modifying hit leaves the local
							// loop with pc at the second group's head and the
							// rest executes singly off the (now stale) table
							// path, exactly like the unfused order.
							g := &fusedTab[i+3]
							if left < 6 {
								// Budget tail: dispatch the head group alone,
								// like a plain ld+op+st.
								wrr(s, f.RdA, m.Read(rdr(s, f.A.Rs1)+uint64(f.A.Imm)))
								v, ok := aluQuick(s, &f.B)
								if !ok {
									v = aluVal(s, &f.B)
								}
								wrr(s, f.RdB, v)
								addr := rdr(s, f.C.Rs1) + uint64(f.C.Imm)
								m.Write(addr, rdr(s, f.C.Rs2))
								stores++
								if addr-base < ilen {
									ilen, flen, dirty = 0, 0, true
								}
								pc += 3
								left -= 3
								fusedN += 3
								continue
							}
							iters := left / 6
							var done uint64
							for it := uint64(0); it < iters; it++ {
								wrr(s, f.RdA, m.Read(rdr(s, f.A.Rs1)+uint64(f.A.Imm)))
								v, ok := aluQuick(s, &f.B)
								if !ok {
									v = aluVal(s, &f.B)
								}
								wrr(s, f.RdB, v)
								addr := rdr(s, f.C.Rs1) + uint64(f.C.Imm)
								m.Write(addr, rdr(s, f.C.Rs2))
								stores++
								done += 3
								if addr-base < ilen {
									ilen, flen, dirty = 0, 0, true
									pc += 3
									break
								}
								if v, ok = aluQuick(s, &g.A); !ok {
									v = aluVal(s, &g.A)
								}
								wrr(s, g.RdA, v)
								if v, ok = aluQuick(s, &g.B); !ok {
									v = aluVal(s, &g.B)
								}
								wrr(s, g.RdB, v)
								done += 3
								t, ok := brQuick(s, &g.C)
								if !ok {
									t = brTaken(s, &g.C)
								}
								if !t {
									pc += 6
									break
								}
							}
							left -= done
							fusedN += done
							continue
						}
						n := uint64(f.N)
						iters := left / n
						var done uint64
						exit := false
						if k == isa.FuseLoopAAB {
							for done < iters {
								v, ok := aluQuick(s, &f.A)
								if !ok {
									v = aluVal(s, &f.A)
								}
								wrr(s, f.RdA, v)
								if v, ok = aluQuick(s, &f.B); !ok {
									v = aluVal(s, &f.B)
								}
								wrr(s, f.RdB, v)
								done++
								t, ok := brQuick(s, &f.C)
								if !ok {
									t = brTaken(s, &f.C)
								}
								if !t {
									exit = true
									break
								}
							}
						} else {
							for done < iters {
								v, ok := aluQuick(s, &f.A)
								if !ok {
									v = aluVal(s, &f.A)
								}
								wrr(s, f.RdA, v)
								done++
								t, ok := brQuick(s, &f.B)
								if !ok {
									t = brTaken(s, &f.B)
								}
								if !t {
									exit = true
									break
								}
							}
						}
						if exit {
							pc += n
						}
						fusedN += done * n
						left -= done * n
						continue
					}
					switch k {
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
						wrr(s, f.RdA, m.Read(rdr(s, f.A.Rs1)+uint64(f.A.Imm)))
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
						m.Write(addr, rdr(s, f.B.Rs2))
						stores++
						if addr-base < ilen {
							ilen, flen, dirty = 0, 0, true
						}
						pc += 2
					case isa.FuseLdAluSt:
						wrr(s, f.RdA, m.Read(rdr(s, f.A.Rs1)+uint64(f.A.Imm)))
						v, ok := aluQuick(s, &f.B)
						if !ok {
							v = aluVal(s, &f.B)
						}
						wrr(s, f.RdB, v)
						addr := rdr(s, f.C.Rs1) + uint64(f.C.Imm)
						m.Write(addr, rdr(s, f.C.Rs2))
						stores++
						if addr-base < ilen {
							ilen, flen, dirty = 0, 0, true
						}
						pc += 3
					}
					left -= uint64(f.N)
					fusedN += uint64(f.N)
					continue
				}
			}
			if !valid[i] {
				s.PC = pc
				stop.Kind = StopFault
				res.Steps = max - left
				stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
				return res, dirty, &Fault{PC: pc, Word: words[i]}
			}
			in = insts[i]
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
		case isa.OpDiv:
			wrr(s, in.Rd, divSigned(rdr(s, in.Rs1), rdr(s, in.Rs2)))
		case isa.OpRem:
			wrr(s, in.Rd, remSigned(rdr(s, in.Rs1), rdr(s, in.Rs2)))
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
			wrr(s, in.Rd, m.Read(rdr(s, in.Rs1)+uint64(in.Imm)))
		case isa.OpSt:
			addr := rdr(s, in.Rs1) + uint64(in.Imm)
			m.Write(addr, rdr(s, in.Rs2))
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
	s.PC = pc
	stop.Kind = StopSteps
	res.Steps = max - left
	stop.Stores, stop.Fused = stop.Stores+stores, stop.Fused+fusedN
	return res, dirty, nil
}
