// Package asm provides a programmatic two-pass assembler for the simulator
// ISA. Workloads are written in Go against the Builder API: instructions
// are emitted in order, control-flow targets are named labels fixed up at
// Build time, and data memory is laid out through a bump allocator with an
// initialized image.
package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memimg"
)

// DataBase is the first byte address handed out by the data allocator.
// Address zero is left unmapped so that null-pointer chasing in workloads
// reads zeros instead of aliasing real data.
const DataBase = 0x10000

// Builder accumulates instructions, labels, and data for one program.
type Builder struct {
	insts   []isa.Inst
	labels  map[string]int
	fixups  []fixup
	img     *memimg.Image
	symbols map[string]int64
	brk     uint64
	errs    []error
}

type fixup struct {
	pc    int
	label string
}

// New returns an empty Builder.
func New() *Builder {
	return &Builder{
		labels:  make(map[string]int),
		symbols: make(map[string]int64),
		img:     memimg.New(),
		brk:     DataBase,
	}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// PC returns the index of the next instruction to be emitted.
func (b *Builder) PC() int { return len(b.insts) }

// Label defines name at the current PC. Redefinition is an error.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errf("asm: label %q redefined", name)
		return
	}
	b.labels[name] = len(b.insts)
}

func reg(r int) uint8 { return uint8(r) }

func (b *Builder) checkReg(rs ...int) {
	for _, r := range rs {
		if r < 0 || r >= isa.NumIntRegs {
			b.errf("asm: register %d out of range at pc %d", r, len(b.insts))
		}
	}
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.insts = append(b.insts, in) }

func (b *Builder) emitTo(in isa.Inst, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.insts), label: label})
	b.insts = append(b.insts, in)
}

// Op3 emits a three-register operation rd = rs1 op rs2.
func (b *Builder) Op3(op isa.Op, rd, rs1, rs2 int) {
	b.checkReg(rd, rs1, rs2)
	b.Emit(isa.Inst{Op: op, Rd: reg(rd), Rs1: reg(rs1), Rs2: reg(rs2)})
}

// OpI emits a register-immediate operation rd = rs1 op imm.
func (b *Builder) OpI(op isa.Op, rd, rs1 int, imm int64) {
	b.checkReg(rd, rs1)
	b.Emit(isa.Inst{Op: op, Rd: reg(rd), Rs1: reg(rs1), Imm: imm})
}

// Li loads a 64-bit immediate into integer register rd.
func (b *Builder) Li(rd int, v int64) {
	b.checkReg(rd)
	b.Emit(isa.Inst{Op: isa.LI, Rd: reg(rd), Imm: v})
}

// Fli loads a float64 immediate into FP register frd.
func (b *Builder) Fli(frd int, v float64) {
	b.checkReg(frd)
	b.Emit(isa.Inst{Op: isa.FLI, Rd: reg(frd), Imm: isa.FloatImm(v)})
}

// Ld emits rd = mem[rs1+off] (integer file).
func (b *Builder) Ld(rd int, off int64, rs1 int) {
	b.checkReg(rd, rs1)
	b.Emit(isa.Inst{Op: isa.LD, Rd: reg(rd), Rs1: reg(rs1), Imm: off})
}

// St emits mem[rs1+off] = rs2 (integer file).
func (b *Builder) St(rs2 int, off int64, rs1 int) {
	b.checkReg(rs2, rs1)
	b.Emit(isa.Inst{Op: isa.ST, Rs1: reg(rs1), Rs2: reg(rs2), Imm: off})
}

// Fld emits frd = mem[rs1+off] (FP file).
func (b *Builder) Fld(frd int, off int64, rs1 int) {
	b.checkReg(frd, rs1)
	b.Emit(isa.Inst{Op: isa.FLD, Rd: reg(frd), Rs1: reg(rs1), Imm: off})
}

// Fst emits mem[rs1+off] = frs2 (FP file).
func (b *Builder) Fst(frs2 int, off int64, rs1 int) {
	b.checkReg(frs2, rs1)
	b.Emit(isa.Inst{Op: isa.FST, Rs1: reg(rs1), Rs2: reg(frs2), Imm: off})
}

// Br emits a conditional branch to label.
func (b *Builder) Br(op isa.Op, rs1, rs2 int, label string) {
	if !op.IsBranch() {
		b.errf("asm: Br with non-branch op %v", op)
	}
	b.checkReg(rs1, rs2)
	b.emitTo(isa.Inst{Op: op, Rs1: reg(rs1), Rs2: reg(rs2)}, label)
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) { b.emitTo(isa.Inst{Op: isa.JMP}, label) }

// Jal emits a jump-and-link to label, writing the return PC to rd.
func (b *Builder) Jal(rd int, label string) {
	b.checkReg(rd)
	b.emitTo(isa.Inst{Op: isa.JAL, Rd: reg(rd)}, label)
}

// Jr emits an indirect jump to the instruction index in rs1.
func (b *Builder) Jr(rs1 int) {
	b.checkReg(rs1)
	b.Emit(isa.Inst{Op: isa.JR, Rs1: reg(rs1)})
}

// Begin opens a parallel region. regs lists the integer registers forwarded
// to a newly forked thread (the continuation variables); each costs two
// cycles of transfer time at fork.
func (b *Builder) Begin(regs ...int) {
	var mask int64
	for _, r := range regs {
		b.checkReg(r)
		mask |= 1 << uint(r)
	}
	b.Emit(isa.Inst{Op: isa.BEGIN, Imm: mask})
}

// Fork emits a thread fork targeting label.
func (b *Builder) Fork(label string) { b.emitTo(isa.Inst{Op: isa.FORK}, label) }

// Tsagd marks the end of the TSAG stage.
func (b *Builder) Tsagd() { b.Emit(isa.Inst{Op: isa.TSAGD}) }

// Tsa announces target-store address rs1+off to downstream threads.
func (b *Builder) Tsa(off int64, rs1 int) {
	b.checkReg(rs1)
	b.Emit(isa.Inst{Op: isa.TSA, Rs1: reg(rs1), Imm: off})
}

// Tst emits a target store mem[rs1+off] = rs2, forwarded downstream.
func (b *Builder) Tst(rs2 int, off int64, rs1 int) {
	b.checkReg(rs2, rs1)
	b.Emit(isa.Inst{Op: isa.TST, Rs1: reg(rs1), Rs2: reg(rs2), Imm: off})
}

// Thend ends the iteration body (write-back stage follows).
func (b *Builder) Thend() { b.Emit(isa.Inst{Op: isa.THEND}) }

// Abort kills (or, under wrong-thread execution, marks wrong) all successor
// threads and ends the parallel region.
func (b *Builder) Abort() { b.Emit(isa.Inst{Op: isa.ABORT}) }

// Halt terminates the program.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

// Alloc reserves size bytes of data memory aligned to align (which must be
// a power of two; 0 means 64-byte alignment) and records name as a symbol.
func (b *Builder) Alloc(name string, size int, align int) uint64 {
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		b.errf("asm: Alloc %q alignment %d not a power of two", name, align)
		align = 64
	}
	a := uint64(align)
	b.brk = (b.brk + a - 1) &^ (a - 1)
	addr := b.brk
	b.brk += uint64(size)
	if name != "" {
		if _, dup := b.symbols[name]; dup {
			b.errf("asm: data symbol %q redefined", name)
		}
		b.symbols[name] = int64(addr)
	}
	return addr
}

// InitWord sets the initial 64-bit contents of data memory at addr.
func (b *Builder) InitWord(addr uint64, v int64) { b.img.WriteWord(addr, v) }

// InitFloat sets the initial float64 contents of data memory at addr.
func (b *Builder) InitFloat(addr uint64, f float64) { b.img.WriteFloat(addr, f) }

// InitBytes sets initial raw bytes at addr.
func (b *Builder) InitBytes(addr uint64, raw []byte) { b.img.SetBytes(addr, raw) }

// Build resolves label fixups and returns the assembled program. All labels
// referenced by emitted instructions must be defined.
func (b *Builder) Build() (*isa.Program, error) {
	for _, fx := range b.fixups {
		target, ok := b.labels[fx.label]
		if !ok {
			b.errf("asm: undefined label %q at pc %d", fx.label, fx.pc)
			continue
		}
		b.insts[fx.pc].Imm = int64(target)
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("asm: %d errors, first: %w", len(b.errs), b.errs[0])
	}
	syms := make(map[string]int64, len(b.symbols)+len(b.labels))
	for k, v := range b.symbols {
		syms[k] = v
	}
	for k, v := range b.labels {
		if _, clash := syms[k]; clash {
			return nil, fmt.Errorf("asm: symbol %q defined as both label and data", k)
		}
		syms[k] = int64(v)
	}
	p := &isa.Program{
		Insts:   append([]isa.Inst(nil), b.insts...),
		Symbols: syms,
	}
	// Export the initialized image as page-granular data segments. The
	// image lends its pages rather than copying them; a later Init* on
	// this builder copies the page it writes first.
	for pn := uint64(0); pn*memimg.PageSize < b.brk+memimg.PageSize; pn++ {
		pg := b.img.Lend(pn)
		if pg == nil || allZero(pg[:]) {
			continue
		}
		p.Data = append(p.Data, isa.DataSeg{Addr: pn * memimg.PageSize, Bytes: pg[:]})
	}
	return p, nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// LoadData maps a program's data segments into img as shared pages: img
// reads them in place and copies a page on its first write, so p's data is
// never written. A segment that is not one whole page at a page-aligned
// address breaks isa.DataSeg's contract and panics.
func LoadData(p *isa.Program, img *memimg.Image) {
	for _, seg := range p.Data {
		if seg.Addr%memimg.PageSize != 0 || len(seg.Bytes) != memimg.PageSize {
			panic(fmt.Sprintf("asm: data segment at %#x holds %d bytes; a segment must be one %d-byte page at a page-aligned address",
				seg.Addr, len(seg.Bytes), memimg.PageSize))
		}
		img.Share(seg.Addr>>memimg.PageBits, (*[memimg.PageSize]byte)(seg.Bytes))
	}
}
