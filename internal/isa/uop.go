package isa

// UopClass groups operations by how the out-of-order core handles them.
type UopClass uint8

// Uop classes.
const (
	ClassALU    UopClass = iota // computes a register result (incl. TSA)
	ClassLoad                   // LD, FLD
	ClassStore                  // ST, FST, TST
	ClassBranch                 // conditional branches
	ClassJump                   // JMP, JAL: direct, resolved at fetch
	ClassJR                     // indirect jump, resolved at execute
	ClassMarker                 // NOP, HALT and the STA markers but TSA/TST
)

// Uop flag bits.
const (
	UUse1   uint8 = 1 << iota // reads source operand 1
	UUse2                     // reads source operand 2
	UFP1                      // operand 1 is in the FP file
	UFP2                      // operand 2 is in the FP file
	UDest                     // writes a destination register (HasDest)
	UFPDest                   // the destination file is FP (Op.FPDest)
	UMem                      // occupies a load/store queue entry
)

// Uop is an instruction decoded once for the timing core and the functional
// interpreter: the operation, its source registers as SrcRegs reports them
// (zero when unused), the raw destination register and immediate, and every
// op property the pipeline consults, packed into 16 bytes.
type Uop struct {
	Op       Op
	Rd       uint8
	Rs1, Rs2 uint8
	Class    UopClass
	Flags    uint8
	FU       FUClass
	Lat      uint8 // Op.Latency
	Imm      int64
}

// DecodeUop decodes one instruction.
func DecodeUop(in Inst) Uop {
	op := in.Op
	r1, r2, use1, use2, fp1, fp2 := in.SrcRegs()
	u := Uop{Op: op, Rd: in.Rd, Rs1: r1, Rs2: r2, FU: op.FU(), Lat: uint8(op.Latency()), Imm: in.Imm}
	u.Flags = bit(use1, UUse1) | bit(use2, UUse2) | bit(fp1, UFP1) | bit(fp2, UFP2) |
		bit(in.HasDest(), UDest) | bit(op.FPDest(), UFPDest) | bit(op.IsMem(), UMem)
	switch {
	case op.IsLoad():
		u.Class = ClassLoad
	case op.IsStore():
		u.Class = ClassStore
	case op.IsBranch():
		u.Class = ClassBranch
	case op == JR:
		u.Class = ClassJR
	case op.IsJump():
		u.Class = ClassJump
	case op.FU() == FUNone:
		u.Class = ClassMarker
	}
	return u
}

func bit(on bool, b uint8) uint8 {
	if on {
		return b
	}
	return 0
}

// DecodeUops decodes a program's instructions and appends one HALT uop:
// indexing the result at min(uint(pc), len(insts)) reproduces Program.At,
// which treats every out-of-range pc as HALT.
func DecodeUops(insts []Inst) []Uop {
	out := make([]Uop, len(insts)+1)
	for i, in := range insts {
		out[i] = DecodeUop(in)
	}
	out[len(insts)] = DecodeUop(Inst{Op: HALT})
	return out
}
