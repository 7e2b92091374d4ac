package interp

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/memimg"
)

// evalOps lists every opcode isa.EvalOp or isa.BranchTakenOp defines: the
// integer and FP computations, the conditional branches, JAL (whose link
// value EvalOp passes through) and TSA (whose address result has no
// destination register).
func evalOps() []isa.Op {
	var ops []isa.Op
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		if op.FU() != isa.FUNone && !op.IsMem() && op != isa.JMP && op != isa.JR {
			ops = append(ops, op)
		}
	}
	return ops
}

// checkOp runs the one-instruction program in through Engine.StepN over the
// given register files and compares the outcome with isa.EvalOp or
// isa.BranchTakenOp: both register files bit for bit, the next pc and the
// branch counts.
func checkOp(t *testing.T, in isa.Inst, ir [isa.NumIntRegs]int64, fr [isa.NumFPRegs]float64) {
	t.Helper()
	wantI, wantF := ir, fr
	wantPC, wantTaken := 1, int64(0)
	s1, s2, f1, f2 := ir[in.Rs1], ir[in.Rs2], fr[in.Rs1], fr[in.Rs2]
	switch {
	case in.Op.IsBranch():
		if isa.BranchTakenOp(in.Op, s1, s2) {
			wantPC, wantTaken = int(in.Imm), 1
		}
	default:
		if in.Op == isa.JAL {
			s1, wantPC = 1, int(in.Imm) // EvalOp passes the link value through
		}
		iv, fv := isa.EvalOp(in.Op, in.Imm, s1, s2, f1, f2)
		if in.HasDest() {
			if in.Op.FPDest() {
				wantF[in.Rd] = fv
			} else {
				wantI[in.Rd] = iv
			}
		}
	}
	e := Engine{Prog: &isa.Program{Insts: []isa.Inst{in}}, Mem: memimg.New(), Int: &ir, FP: &fr}
	e.Reset(0)
	if n, err := e.StepN(1); n != 1 || err != nil {
		t.Fatalf("%v: StepN = %d, %v", in, n, err)
	}
	if ir != wantI {
		t.Fatalf("%v (r%d=%d r%d=%d imm=%d): int regs %v, want %v", in, in.Rs1, ir[in.Rs1], in.Rs2, ir[in.Rs2], in.Imm, ir, wantI)
	}
	for r := range fr {
		if math.Float64bits(fr[r]) != math.Float64bits(wantF[r]) {
			t.Fatalf("%v (f%d=%v f%d=%v): f%d = %v, want %v", in, in.Rs1, f1, in.Rs2, f2, r, fr[r], wantF[r])
		}
	}
	if e.PC != wantPC || e.Counts.Taken != wantTaken {
		t.Fatalf("%v: pc %d taken %d, want pc %d taken %d", in, e.PC, e.Counts.Taken, wantPC, wantTaken)
	}
}

// TestEngineMatchesEvalOp runs every opcode isa.EvalOp or isa.BranchTakenOp
// defines through the interpreter over an operand grid of edge values. The
// interpreter writes the integer operations out in its own switch arms;
// this keeps them equal to the core's single definition in isa.
func TestEngineMatchesEvalOp(t *testing.T) {
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 63, 64, 7}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	ops := evalOps()
	// 22 integer, 13 FP, 6 branches, JAL and TSA.
	if len(ops) != 43 {
		t.Fatalf("%d opcodes under test, want 43", len(ops))
	}
	for _, op := range ops {
		imms := ints
		if op == isa.FLI {
			imms = nil
			for _, f := range floats {
				imms = append(imms, isa.FloatImm(f))
			}
		}
		for _, rd := range []uint8{0, 3, 1} { // none, a fresh register, a source
			for i, a := range ints {
				for j, b := range ints {
					var ir [isa.NumIntRegs]int64
					var fr [isa.NumFPRegs]float64
					for r := 1; r < isa.NumIntRegs; r++ {
						ir[r] = int64(r) * 1000
						fr[r] = float64(r) / 8
					}
					ir[1], ir[2] = a, b
					fr[1], fr[2] = floats[i], floats[j]
					for _, imm := range imms {
						checkOp(t, isa.Inst{Op: op, Rd: rd, Rs1: 1, Rs2: 2, Imm: imm}, ir, fr)
					}
				}
			}
		}
	}
}

// FuzzEngineALU draws an opcode, its registers, operand values and an
// immediate, and compares the interpreter with isa.EvalOp.
func FuzzEngineALU(f *testing.F) {
	f.Add(uint8(isa.SRA), uint8(3), uint8(1), uint8(2), int64(-8), int64(65), 0.0, -1.0, int64(0))
	f.Add(uint8(isa.DIV), uint8(0), uint8(1), uint8(1), int64(math.MinInt64), int64(-1), math.NaN(), math.Inf(1), int64(-1))
	ops := evalOps()
	f.Fuzz(func(t *testing.T, op, rd, rs1, rs2 uint8, a, b int64, fa, fb float64, imm int64) {
		var ir [isa.NumIntRegs]int64
		var fr [isa.NumFPRegs]float64
		rs1, rs2 = rs1%isa.NumIntRegs, rs2%isa.NumIntRegs
		for r := 1; r < isa.NumIntRegs; r++ {
			ir[r] = int64(r) * 1000
		}
		if rs2 != 0 {
			ir[rs2] = b
		}
		if rs1 != 0 {
			ir[rs1] = a
		}
		fr[rs2], fr[rs1] = fb, fa
		in := isa.Inst{Op: ops[int(op)%len(ops)], Rd: rd % isa.NumIntRegs, Rs1: rs1, Rs2: rs2, Imm: imm}
		checkOp(t, in, ir, fr)
	})
}
