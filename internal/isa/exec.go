package isa

import "math"

// Eval computes the result of a non-memory, non-control operation given its
// source operand values. Integer sources arrive in s1/s2, FP sources in
// f1/f2 (per SrcRegs). It returns the integer result and the FP result; the
// caller keeps whichever file the destination lives in (Op.FPDest). The
// out-of-order core's execute stage uses this single definition. The
// functional interpreter calls it for the FP ops and writes the integer ops
// out for speed; interp's TestEngineMatchesEvalOp holds those to it on
// every opcode.
func Eval(in Inst, s1, s2 int64, f1, f2 float64) (int64, float64) {
	return EvalOp(in.Op, in.Imm, s1, s2, f1, f2)
}

// EvalOp is Eval on an operation and its immediate, for callers holding a
// decoded Uop rather than an Inst.
func EvalOp(op Op, imm int64, s1, s2 int64, f1, f2 float64) (int64, float64) {
	switch op {
	case ADD:
		return s1 + s2, 0
	case SUB:
		return s1 - s2, 0
	case MUL:
		return s1 * s2, 0
	case DIV:
		if s2 == 0 {
			return 0, 0
		}
		return s1 / s2, 0
	case REM:
		if s2 == 0 {
			return 0, 0
		}
		return s1 % s2, 0
	case AND:
		return s1 & s2, 0
	case OR:
		return s1 | s2, 0
	case XOR:
		return s1 ^ s2, 0
	case SLL:
		return s1 << (uint64(s2) & 63), 0
	case SRL:
		return int64(uint64(s1) >> (uint64(s2) & 63)), 0
	case SRA:
		return s1 >> (uint64(s2) & 63), 0
	case SLT:
		return b2i(s1 < s2), 0
	case SLTU:
		return b2i(uint64(s1) < uint64(s2)), 0
	case ADDI:
		return s1 + imm, 0
	case ANDI:
		return s1 & imm, 0
	case ORI:
		return s1 | imm, 0
	case XORI:
		return s1 ^ imm, 0
	case SLLI:
		return s1 << (uint64(imm) & 63), 0
	case SRLI:
		return int64(uint64(s1) >> (uint64(imm) & 63)), 0
	case SRAI:
		return s1 >> (uint64(imm) & 63), 0
	case SLTI:
		return b2i(s1 < imm), 0
	case LI:
		return imm, 0
	case FADD:
		return 0, f1 + f2
	case FSUB:
		return 0, f1 - f2
	case FMUL:
		return 0, f1 * f2
	case FDIV:
		return 0, f1 / f2
	case FNEG:
		return 0, -f1
	case FABS:
		return 0, math.Abs(f1)
	case FMIN:
		return 0, math.Min(f1, f2)
	case FMAX:
		return 0, math.Max(f1, f2)
	case FLT:
		return b2i(f1 < f2), 0
	case FLE:
		return b2i(f1 <= f2), 0
	case I2F:
		return 0, float64(s1)
	case F2I:
		return int64(f1), 0
	case FLI:
		return 0, math.Float64frombits(uint64(imm))
	case JAL:
		// Result is the link value; the caller supplies pc+1 via s1.
		return s1, 0
	case TSA:
		// Result is the announced address.
		return s1 + imm, 0
	}
	return 0, 0
}

// BranchTaken evaluates a conditional branch's direction.
func BranchTaken(in Inst, s1, s2 int64) bool { return BranchTakenOp(in.Op, s1, s2) }

// BranchTakenOp is BranchTaken on an operation alone.
func BranchTakenOp(op Op, s1, s2 int64) bool {
	switch op {
	case BEQ:
		return s1 == s2
	case BNE:
		return s1 != s2
	case BLT:
		return s1 < s2
	case BGE:
		return s1 >= s2
	case BLTU:
		return uint64(s1) < uint64(s2)
	case BGEU:
		return uint64(s1) >= uint64(s2)
	}
	return false
}

// EffAddr computes the effective byte address of a memory operation or TSA.
func EffAddr(in Inst, s1 int64) uint64 { return uint64(s1 + in.Imm) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// FloatImm packs a float64 into the Imm field for FLI.
func FloatImm(f float64) int64 { return int64(math.Float64bits(f)) }
