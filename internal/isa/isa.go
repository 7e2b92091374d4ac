// Package isa defines the instruction set simulated by the superthreaded
// processor model: a small 64-bit RISC ISA extended with the superthreaded
// architecture (STA) thread-pipelining primitives (FORK, ABORT, BEGIN,
// target stores, and stage markers).
//
// Instructions are kept in decoded form (Inst) for simulation speed, and
// each program is predecoded once more, on first use, into Uops that carry
// every op property the timing core and the functional interpreter consult
// (see Program.Uops and uop.go); a fixed-width binary encoding is provided
// for tooling and tests (see encode.go). Branch and jump targets are
// absolute instruction indices, resolved by the assembler. Data addresses
// are byte addresses into the simulated data memory.
package isa

import (
	"fmt"
	"sync"
)

// Op enumerates every operation in the ISA.
type Op uint8

// Integer, floating-point, control, memory, and STA operations.
const (
	NOP Op = iota
	HALT

	// Integer register-register.
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU

	// Integer register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LI // rd = imm (full 64-bit immediate)

	// Floating point (operands in the FP register file).
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FABS
	FMIN
	FMAX
	FLT // int rd = (frs1 < frs2)
	FLE // int rd = (frs1 <= frs2)
	I2F // frd = float64(rs1)
	F2I // rd = int64(frs1)
	FLI // frd = float64 immediate (bits in Imm)

	// Memory. Effective address = rs1 + imm. LD/ST move 8 bytes between
	// memory and the integer file; FLD/FST move 8 bytes to/from the FP file.
	LD
	ST
	FLD
	FST

	// Control. Targets are absolute instruction indices in Imm.
	BEQ // if rs1 == rs2 goto imm
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JMP // goto imm
	JAL // rd = pc+1; goto imm
	JR  // goto rs1

	// STA thread-pipelining extensions.
	BEGIN // begin a parallel region; Imm = int-register forward mask
	FORK  // fork the next thread unit at Imm; ends the continuation stage
	TSAGD // TSAG stage complete; flag forwarded downstream
	TSA   // announce a target-store address (rs1+imm) downstream
	TST   // target store: mem[rs1+imm] = rs2, forwarded downstream
	THEND // end of iteration body; run the write-back stage, then idle
	ABORT // kill/mark-wrong all successor threads; end the parallel region

	numOps
)

// NumOps reports the number of defined opcodes.
const NumOps = int(numOps)

// NumIntRegs and NumFPRegs size the architectural register files. Integer
// register 0 is hardwired to zero.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Inst is one decoded instruction.
type Inst struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Imm          int64
}

// FUClass identifies the functional-unit pool an operation executes on.
type FUClass uint8

// Functional unit classes, mirroring sim-outorder's resource pools.
const (
	FUNone   FUClass = iota // markers, HALT
	FUIntALU                // 1-cycle integer ops, branches
	FUIntMul                // integer multiply/divide
	FUFPAdd                 // FP add/compare/convert
	FUFPMul                 // FP multiply/divide
	FUMem                   // loads and stores (cache port)
)

// Latency in execute cycles for each non-memory op class.
const (
	LatIntALU = 1
	LatIntMul = 3
	LatIntDiv = 20
	LatFPAdd  = 2
	LatFPMul  = 4
	LatFPDiv  = 12
)

type opInfo struct {
	name    string
	fu      FUClass
	lat     int
	isBr    bool // conditional branch
	isJump  bool // unconditional control transfer
	isLoad  bool
	isStore bool
	fpRd    bool // destination is in the FP file
	fpRs    bool // sources are in the FP file
	sta     bool // STA thread-pipelining primitive
}

var opTable = [numOps]opInfo{
	NOP:   {name: "nop", fu: FUNone, lat: 1},
	HALT:  {name: "halt", fu: FUNone, lat: 1},
	ADD:   {name: "add", fu: FUIntALU, lat: LatIntALU},
	SUB:   {name: "sub", fu: FUIntALU, lat: LatIntALU},
	MUL:   {name: "mul", fu: FUIntMul, lat: LatIntMul},
	DIV:   {name: "div", fu: FUIntMul, lat: LatIntDiv},
	REM:   {name: "rem", fu: FUIntMul, lat: LatIntDiv},
	AND:   {name: "and", fu: FUIntALU, lat: LatIntALU},
	OR:    {name: "or", fu: FUIntALU, lat: LatIntALU},
	XOR:   {name: "xor", fu: FUIntALU, lat: LatIntALU},
	SLL:   {name: "sll", fu: FUIntALU, lat: LatIntALU},
	SRL:   {name: "srl", fu: FUIntALU, lat: LatIntALU},
	SRA:   {name: "sra", fu: FUIntALU, lat: LatIntALU},
	SLT:   {name: "slt", fu: FUIntALU, lat: LatIntALU},
	SLTU:  {name: "sltu", fu: FUIntALU, lat: LatIntALU},
	ADDI:  {name: "addi", fu: FUIntALU, lat: LatIntALU},
	ANDI:  {name: "andi", fu: FUIntALU, lat: LatIntALU},
	ORI:   {name: "ori", fu: FUIntALU, lat: LatIntALU},
	XORI:  {name: "xori", fu: FUIntALU, lat: LatIntALU},
	SLLI:  {name: "slli", fu: FUIntALU, lat: LatIntALU},
	SRLI:  {name: "srli", fu: FUIntALU, lat: LatIntALU},
	SRAI:  {name: "srai", fu: FUIntALU, lat: LatIntALU},
	SLTI:  {name: "slti", fu: FUIntALU, lat: LatIntALU},
	LI:    {name: "li", fu: FUIntALU, lat: LatIntALU},
	FADD:  {name: "fadd", fu: FUFPAdd, lat: LatFPAdd, fpRd: true, fpRs: true},
	FSUB:  {name: "fsub", fu: FUFPAdd, lat: LatFPAdd, fpRd: true, fpRs: true},
	FMUL:  {name: "fmul", fu: FUFPMul, lat: LatFPMul, fpRd: true, fpRs: true},
	FDIV:  {name: "fdiv", fu: FUFPMul, lat: LatFPDiv, fpRd: true, fpRs: true},
	FNEG:  {name: "fneg", fu: FUFPAdd, lat: LatFPAdd, fpRd: true, fpRs: true},
	FABS:  {name: "fabs", fu: FUFPAdd, lat: LatFPAdd, fpRd: true, fpRs: true},
	FMIN:  {name: "fmin", fu: FUFPAdd, lat: LatFPAdd, fpRd: true, fpRs: true},
	FMAX:  {name: "fmax", fu: FUFPAdd, lat: LatFPAdd, fpRd: true, fpRs: true},
	FLT:   {name: "flt", fu: FUFPAdd, lat: LatFPAdd, fpRs: true},
	FLE:   {name: "fle", fu: FUFPAdd, lat: LatFPAdd, fpRs: true},
	I2F:   {name: "i2f", fu: FUFPAdd, lat: LatFPAdd, fpRd: true},
	F2I:   {name: "f2i", fu: FUFPAdd, lat: LatFPAdd, fpRs: true},
	FLI:   {name: "fli", fu: FUFPAdd, lat: LatFPAdd, fpRd: true},
	LD:    {name: "ld", fu: FUMem, isLoad: true},
	ST:    {name: "st", fu: FUMem, isStore: true},
	FLD:   {name: "fld", fu: FUMem, isLoad: true, fpRd: true},
	FST:   {name: "fst", fu: FUMem, isStore: true, fpRs: true},
	BEQ:   {name: "beq", fu: FUIntALU, lat: LatIntALU, isBr: true},
	BNE:   {name: "bne", fu: FUIntALU, lat: LatIntALU, isBr: true},
	BLT:   {name: "blt", fu: FUIntALU, lat: LatIntALU, isBr: true},
	BGE:   {name: "bge", fu: FUIntALU, lat: LatIntALU, isBr: true},
	BLTU:  {name: "bltu", fu: FUIntALU, lat: LatIntALU, isBr: true},
	BGEU:  {name: "bgeu", fu: FUIntALU, lat: LatIntALU, isBr: true},
	JMP:   {name: "jmp", fu: FUIntALU, lat: LatIntALU, isJump: true},
	JAL:   {name: "jal", fu: FUIntALU, lat: LatIntALU, isJump: true},
	JR:    {name: "jr", fu: FUIntALU, lat: LatIntALU, isJump: true},
	BEGIN: {name: "begin", fu: FUNone, lat: 1, sta: true},
	FORK:  {name: "fork", fu: FUNone, lat: 1, sta: true},
	TSAGD: {name: "tsagd", fu: FUNone, lat: 1, sta: true},
	TSA:   {name: "tsa", fu: FUIntALU, lat: LatIntALU, sta: true},
	TST:   {name: "tst", fu: FUMem, isStore: true, sta: true},
	THEND: {name: "thend", fu: FUNone, lat: 1, sta: true},
	ABORT: {name: "abort", fu: FUNone, lat: 1, sta: true},
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps }

// String returns the mnemonic for op.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// FU returns the functional-unit class that executes op.
func (op Op) FU() FUClass { return opTable[op].fu }

// Latency returns the execute latency of op in cycles. Memory operations
// return 0: their latency comes from the cache hierarchy.
func (op Op) Latency() int { return opTable[op].lat }

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return opTable[op].isBr }

// IsJump reports whether op is an unconditional control transfer.
func (op Op) IsJump() bool { return opTable[op].isJump }

// IsControl reports whether op redirects the PC (branch or jump).
func (op Op) IsControl() bool { return opTable[op].isBr || opTable[op].isJump }

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool { return opTable[op].isLoad }

// IsStore reports whether op writes data memory (including target stores).
func (op Op) IsStore() bool { return opTable[op].isStore }

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool { return opTable[op].isLoad || opTable[op].isStore }

// IsSTA reports whether op is a superthreaded-architecture primitive.
func (op Op) IsSTA() bool { return opTable[op].sta }

// FPDest reports whether op writes the FP register file.
func (op Op) FPDest() bool { return opTable[op].fpRd }

// FPSrc reports whether op reads the FP register file for its sources.
func (op Op) FPSrc() bool { return opTable[op].fpRs }

// HasDest reports whether the instruction writes a destination register.
func (in Inst) HasDest() bool {
	switch in.Op {
	case NOP, HALT, ST, FST, TST, BEQ, BNE, BLT, BGE, BLTU, BGEU, JMP, JR,
		BEGIN, FORK, TSAGD, TSA, THEND, ABORT:
		return false
	}
	// Integer destination register 0 is hardwired to zero: treat as no dest.
	if !in.Op.FPDest() && in.Rd == 0 {
		return false
	}
	return true
}

// SrcRegs returns the source register indices read by the instruction and
// whether each comes from the FP file. Unused slots return ok=false.
func (in Inst) SrcRegs() (r1, r2 uint8, use1, use2, fp1, fp2 bool) {
	info := opTable[in.Op]
	switch in.Op {
	case NOP, HALT, LI, FLI, JMP, JAL, BEGIN, TSAGD, THEND, ABORT, FORK:
		return 0, 0, false, false, false, false
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI:
		return in.Rs1, 0, true, false, false, false
	case I2F:
		return in.Rs1, 0, true, false, false, false
	case F2I, FNEG, FABS:
		return in.Rs1, 0, true, false, true, false
	case LD, FLD:
		return in.Rs1, 0, true, false, false, false
	case ST:
		return in.Rs1, in.Rs2, true, true, false, false
	case FST:
		// Address register is integer; data register is FP.
		return in.Rs1, in.Rs2, true, true, false, true
	case TST:
		return in.Rs1, in.Rs2, true, true, false, false
	case TSA:
		return in.Rs1, 0, true, false, false, false
	case JR:
		return in.Rs1, 0, true, false, false, false
	case FLT, FLE:
		return in.Rs1, in.Rs2, true, true, true, true
	}
	// Default three-operand form.
	return in.Rs1, in.Rs2, true, true, info.fpRs, info.fpRs
}

// String disassembles the instruction.
func (in Inst) String() string {
	op := in.Op
	switch {
	case op == NOP || op == HALT || op == TSAGD || op == THEND || op == ABORT:
		return op.String()
	case op == LI || op == FLI:
		return fmt.Sprintf("%s r%d, %d", op, in.Rd, in.Imm)
	case op == JMP:
		return fmt.Sprintf("%s %d", op, in.Imm)
	case op == JAL:
		return fmt.Sprintf("%s r%d, %d", op, in.Rd, in.Imm)
	case op == JR:
		return fmt.Sprintf("%s r%d", op, in.Rs1)
	case op == BEGIN:
		return fmt.Sprintf("%s mask=%#x", op, uint64(in.Imm))
	case op == FORK:
		return fmt.Sprintf("%s %d", op, in.Imm)
	case op.IsBranch():
		return fmt.Sprintf("%s r%d, r%d, %d", op, in.Rs1, in.Rs2, in.Imm)
	case op.IsLoad():
		return fmt.Sprintf("%s r%d, %d(r%d)", op, in.Rd, in.Imm, in.Rs1)
	case op.IsStore():
		return fmt.Sprintf("%s r%d, %d(r%d)", op, in.Rs2, in.Imm, in.Rs1)
	case op == TSA:
		return fmt.Sprintf("%s %d(r%d)", op, in.Imm, in.Rs1)
	case op == ADDI || op == ANDI || op == ORI || op == XORI ||
		op == SLLI || op == SRLI || op == SRAI || op == SLTI:
		return fmt.Sprintf("%s r%d, r%d, %d", op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Program is an assembled unit ready for simulation: a flat instruction
// array addressed by instruction index, an initial data image, and symbols.
// A Program is handed around by pointer; Insts must not change once Uops
// has been called.
type Program struct {
	Insts   []Inst
	Entry   int
	Symbols map[string]int64 // label -> instruction index or data address
	// Data holds the initial contents of data memory, one DataSeg per
	// initialized page. Every machine and interpreter run over p maps
	// these pages and reads them in place, so they are read-only.
	Data []DataSeg

	decodeOnce sync.Once
	uops       []Uop
}

// Uops returns DecodeUops(p.Insts), decoded on the first call and shared
// by every later caller: each core of a machine and each functional engine
// over p reads the one array. Callers must not modify it. Safe for
// concurrent use.
func (p *Program) Uops() []Uop {
	p.decodeOnce.Do(func() { p.uops = DecodeUops(p.Insts) })
	return p.uops
}

// DataSeg is one initialized page of data memory: Addr is page-aligned
// and Bytes is exactly one page (memimg.PageSize bytes), as asm.Build
// makes them; asm.LoadData panics on any other shape. Bytes is read-only
// once built, because concurrent machines read it in place.
type DataSeg struct {
	Addr  uint64
	Bytes []byte
}

// At returns the instruction at pc, or HALT if pc is out of range; the
// simulator treats running off the end of the program as termination.
func (p *Program) At(pc int) Inst {
	if pc < 0 || pc >= len(p.Insts) {
		return Inst{Op: HALT}
	}
	return p.Insts[pc]
}
