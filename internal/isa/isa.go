// Package isa defines MIR, the 64-bit RISC instruction set architecture used
// by the MSSP reproduction.
//
// MIR is a word machine: memory is an array of 64-bit words addressed by
// 64-bit word addresses, and every instruction occupies exactly one word.
// The program counter therefore advances by one per instruction, which keeps
// the assembler, the control-flow analyses and the distiller's relayout pass
// simple without losing anything the MSSP paradigm cares about.
//
// The ISA deliberately mirrors the shape of the Alpha/RISC ISAs the original
// MSSP work targeted: a flat register file, simple ALU operations,
// displacement-addressed loads and stores, compare-and-branch conditional
// branches with absolute targets, and JAL/JALR for calls and indirect jumps.
// One instruction is MSSP-specific: FORK, which appears only in distilled
// programs and marks a task boundary (its immediate is the original-program
// PC at which the spawned task begins).
package isa

import "fmt"

// NumRegs is the number of general-purpose registers.
const NumRegs = 32

// Conventional register assignments. R0 is hardwired to zero; writes to it
// are discarded. The remaining conventions are calling-convention only and
// carry no hardware meaning.
const (
	RegZero = 0  // always reads as zero
	RegRV   = 1  // function return value
	RegArg0 = 2  // first argument
	RegArg1 = 3  // second argument
	RegArg2 = 4  // third argument
	RegArg3 = 5  // fourth argument
	RegTmp  = 6  // first caller-saved temporary
	RegSP   = 30 // stack pointer
	RegRA   = 31 // return address (link register)
)

// Op enumerates MIR opcodes.
type Op uint8

// Opcode space. The groups matter to the decoder and to the CFG builder:
// everything before the branch group is a straight-line instruction.
const (
	// OpNop does nothing.
	OpNop Op = iota

	// Three-register ALU operations: rd <- rs1 op rs2.
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; division by zero yields all-ones (no trap)
	OpRem // signed; remainder by zero yields rs1
	OpAnd
	OpOr
	OpXor
	OpSll // shift left logical by rs2 (mod 64)
	OpSrl // shift right logical by rs2 (mod 64)
	OpSra // shift right arithmetic by rs2 (mod 64)
	OpSlt // rd <- (rs1 < rs2) signed ? 1 : 0
	OpSltu

	// Register-immediate ALU operations: rd <- rs1 op imm.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpSltui
	OpMuli

	// OpLdi loads the sign-extended 32-bit immediate into rd.
	OpLdi
	// OpLdih sets the high 32 bits of rd to imm, keeping the low 32 bits.
	OpLdih

	// Memory operations; the effective word address is rs1+imm.
	OpLd // rd <- mem[rs1+imm]
	OpSt // mem[rs1+imm] <- rs2

	// Conditional branches compare rs1 against rs2 and, when the condition
	// holds, jump to the absolute word address in imm.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu

	// OpJal writes the return address (pc+1) into rd and jumps to the
	// absolute address imm.
	OpJal
	// OpJalr writes pc+1 into rd and jumps to rs1+imm.
	OpJalr

	// OpHalt stops the machine. rs1+imm is an exit code (by convention 0).
	OpHalt

	// OpFork marks an MSSP task boundary in a distilled program. Its
	// immediate is the original-program PC at which the task starts.
	// Architecturally it is a no-op; the master processor interprets it.
	OpFork

	numOps // sentinel
)

var opNames = [numOps]string{
	OpNop:   "nop",
	OpAdd:   "add",
	OpSub:   "sub",
	OpMul:   "mul",
	OpDiv:   "div",
	OpRem:   "rem",
	OpAnd:   "and",
	OpOr:    "or",
	OpXor:   "xor",
	OpSll:   "sll",
	OpSrl:   "srl",
	OpSra:   "sra",
	OpSlt:   "slt",
	OpSltu:  "sltu",
	OpAddi:  "addi",
	OpAndi:  "andi",
	OpOri:   "ori",
	OpXori:  "xori",
	OpSlli:  "slli",
	OpSrli:  "srli",
	OpSrai:  "srai",
	OpSlti:  "slti",
	OpSltui: "sltui",
	OpMuli:  "muli",
	OpLdi:   "ldi",
	OpLdih:  "ldih",
	OpLd:    "ld",
	OpSt:    "st",
	OpBeq:   "beq",
	OpBne:   "bne",
	OpBlt:   "blt",
	OpBge:   "bge",
	OpBltu:  "bltu",
	OpBgeu:  "bgeu",
	OpJal:   "jal",
	OpJalr:  "jalr",
	OpHalt:  "halt",
	OpFork:  "fork",
}

// String returns the assembler mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps }

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op >= OpBeq && op <= OpBgeu }

// IsJump reports whether op unconditionally transfers control (JAL/JALR).
func (op Op) IsJump() bool { return op == OpJal || op == OpJalr }

// EndsBlock reports whether op terminates a basic block: branches, jumps
// and halt all do.
func (op Op) EndsBlock() bool { return op.IsBranch() || op.IsJump() || op == OpHalt }

// HasRd reports whether the instruction writes register rd.
func (op Op) HasRd() bool {
	switch {
	case op >= OpAdd && op <= OpLdih:
		return true
	case op == OpLd, op == OpJal, op == OpJalr:
		return true
	}
	return false
}

// ReadsRs1 reports whether the instruction reads register rs1.
func (op Op) ReadsRs1() bool {
	switch {
	case op >= OpAdd && op <= OpSltu: // three-register ALU
		return true
	case op >= OpAddi && op <= OpMuli: // register-immediate ALU
		return true
	case op == OpLdih, op == OpLd, op == OpSt, op == OpJalr, op == OpHalt:
		return true
	case op.IsBranch():
		return true
	}
	return false
}

// ReadsRs2 reports whether the instruction reads register rs2.
func (op Op) ReadsRs2() bool {
	switch {
	case op >= OpAdd && op <= OpSltu:
		return true
	case op == OpSt:
		return true
	case op.IsBranch():
		return true
	}
	return false
}

// ALU returns the value register-writing op (OpAdd..OpLdih) computes from
// a, the rs1 value, and b, the rs2 value for the three-register ops and the
// immediate otherwise. Arithmetic wraps, shift amounts are taken mod 64,
// comparisons yield 1 or 0, and division never traps: x/0 is all ones, x%0
// is x, INT64_MIN/-1 wraps to INT64_MIN and INT64_MIN%-1 is 0. OpLdi yields
// b, and OpLdih puts b's low half over a's low 32 bits. Any other op yields
// 0. ALU and Taken are the reference semantics: internal/cpu's Env
// interpreter and its fused dispatcher's fallback evaluate them, its run
// loop's inlined switch is tested against them op by op, and the taint
// analysis in internal/dataflow evaluates them on exactly-known operands.
func ALU(op Op, a, b uint64) uint64 {
	switch op {
	case OpAdd, OpAddi:
		return a + b
	case OpSub:
		return a - b
	case OpMul, OpMuli:
		return a * b
	case OpDiv:
		switch {
		case b == 0:
			return ^uint64(0)
		case int64(a) == -1<<63 && int64(b) == -1:
			return a
		}
		return uint64(int64(a) / int64(b))
	case OpRem:
		switch {
		case b == 0:
			return a
		case int64(a) == -1<<63 && int64(b) == -1:
			return 0
		}
		return uint64(int64(a) % int64(b))
	case OpAnd, OpAndi:
		return a & b
	case OpOr, OpOri:
		return a | b
	case OpXor, OpXori:
		return a ^ b
	case OpSll, OpSlli:
		return a << (b & 63)
	case OpSrl, OpSrli:
		return a >> (b & 63)
	case OpSra, OpSrai:
		return uint64(int64(a) >> (b & 63))
	case OpSlt, OpSlti:
		if int64(a) < int64(b) {
			return 1
		}
	case OpSltu, OpSltui:
		if a < b {
			return 1
		}
	case OpLdi:
		return b
	case OpLdih:
		return b<<32 | a&0xffffffff
	}
	return 0
}

// Taken reports whether conditional branch op is taken on a, the rs1
// value, and b, the rs2 value; signed and unsigned compares as the mnemonics
// say. Any other op is never taken. Like ALU, it is the reference
// semantics.
func Taken(op Op, a, b uint64) bool {
	switch op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return int64(a) < int64(b)
	case OpBge:
		return int64(a) >= int64(b)
	case OpBltu:
		return a < b
	case OpBgeu:
		return a >= b
	}
	return false
}

// Inst is a decoded MIR instruction.
type Inst struct {
	Op  Op
	Rd  uint8 // destination register
	Rs1 uint8 // first source register
	Rs2 uint8 // second source register
	Imm int64 // sign-extended 32-bit immediate
}

// Regs returns the registers executing in reads and writes, as bitmasks
// with bit r standing for register r (r0, hardwired to zero, never set):
// rs1 and rs2 as ReadsRs1 and ReadsRs2 say — except halt's rs1, an exit
// code no interpreter reads — and rd as HasRd says. Executors that log a
// task's register live-ins per dispatch go by it.
func (in Inst) Regs() (reads, writes uint32) {
	u := uint32(regUse[in.Op])
	reads = (u&1)<<(in.Rs1&31) | (u>>1&1)<<(in.Rs2&31)
	writes = (u >> 2 & 1) << (in.Rd & 31)
	return reads &^ 1, writes &^ 1
}

// regUse flags, per opcode, whether Inst.Regs counts rs1 (1) and rs2 (2) as
// read and rd (4) as written; undefined opcodes use nothing.
var regUse = func() (u [256]uint8) {
	for op := Op(0); op < numOps; op++ {
		if op.ReadsRs1() && op != OpHalt {
			u[op] |= 1
		}
		if op.ReadsRs2() {
			u[op] |= 2
		}
		if op.HasRd() {
			u[op] |= 4
		}
	}
	return u
}()

// Instruction word layout (64 bits):
//
//	bits 63..56  opcode
//	bits 55..51  rd
//	bits 50..46  rs1
//	bits 45..41  rs2
//	bits 31..0   immediate (signed)
//
// Bits 40..32 are reserved and must be zero.
const (
	shiftOp  = 56
	shiftRd  = 51
	shiftRs1 = 46
	shiftRs2 = 41
	regMask  = 0x1f
)

// Encode packs the instruction into a 64-bit word. Register numbers are
// masked to five bits and the immediate is truncated to its low 32 bits;
// use EncodeChecked to detect out-of-range fields.
func Encode(in Inst) uint64 {
	return uint64(in.Op)<<shiftOp |
		uint64(in.Rd&regMask)<<shiftRd |
		uint64(in.Rs1&regMask)<<shiftRs1 |
		uint64(in.Rs2&regMask)<<shiftRs2 |
		uint64(uint32(in.Imm))
}

// EncodeChecked packs the instruction, reporting an error if any field is
// out of range for the encoding.
func EncodeChecked(in Inst) (uint64, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return 0, fmt.Errorf("isa: register out of range in %v", in)
	}
	if in.Imm < -(1<<31) || in.Imm > (1<<31)-1 {
		return 0, fmt.Errorf("isa: immediate %d out of 32-bit range", in.Imm)
	}
	return Encode(in), nil
}

// Decode unpacks a 64-bit instruction word. Decoding never fails; words
// whose opcode field is out of range decode with that raw Op value, which
// Op.Valid reports as invalid and the interpreter treats as a fault.
func Decode(w uint64) Inst {
	return Inst{
		Op:  Op(w >> shiftOp),
		Rd:  uint8(w >> shiftRd & regMask),
		Rs1: uint8(w >> shiftRs1 & regMask),
		Rs2: uint8(w >> shiftRs2 & regMask),
		Imm: int64(int32(uint32(w))),
	}
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch {
	case in.Op == OpNop:
		return "nop"
	case in.Op == OpHalt:
		return fmt.Sprintf("halt r%d, %d", in.Rs1, in.Imm)
	case in.Op == OpFork:
		return fmt.Sprintf("fork %d", in.Imm)
	case in.Op == OpLdi, in.Op == OpLdih:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case in.Op == OpLd:
		return fmt.Sprintf("ld r%d, %d(r%d)", in.Rd, in.Imm, in.Rs1)
	case in.Op == OpSt:
		return fmt.Sprintf("st r%d, %d(r%d)", in.Rs2, in.Imm, in.Rs1)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case in.Op == OpJal:
		return fmt.Sprintf("jal r%d, %d", in.Rd, in.Imm)
	case in.Op == OpJalr:
		return fmt.Sprintf("jalr r%d, r%d, %d", in.Rd, in.Rs1, in.Imm)
	case in.Op >= OpAdd && in.Op <= OpSltu:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case in.Op >= OpAddi && in.Op <= OpMuli:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	}
	return fmt.Sprintf("%s rd=%d rs1=%d rs2=%d imm=%d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
}
