package interp

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memimg"
)

// Hooks are optional callbacks the Engine invokes while executing, used by
// the sampled-simulation fast-forward path to warm caches and the branch
// predictor functionally. Nil hooks cost one untaken branch per relevant
// instruction class; the zero Hooks value is the plain interpreter.
type Hooks struct {
	// Load/Store observe every data access with its effective address
	// (unmasked; the consumer applies its own physical mask).
	Load  func(addr uint64)
	Store func(addr uint64)
	// Branch observes every conditional branch with its resolved direction.
	Branch func(pc int, taken bool)
	// Call/Ret observe JAL/JR pairs (return-address-stack warming).
	Call func(ret int)
	Ret  func()
	// Block observes instruction-fetch locality: it fires whenever execution
	// crosses into a different aligned group of BlockPCs instructions
	// (I-cache block warming at block rather than instruction granularity).
	Block func(pc int)
}

// Counts aggregates the dynamic instruction mix an Engine has executed.
type Counts struct {
	Insts    int64
	Loads    int64
	Stores   int64
	Branches int64
	Taken    int64
	ParInsts int64
	Forks    int64
}

// Engine is a resumable functional interpreter operating on externally
// owned architectural state. RunLimit drives one over its own fresh state;
// the sampled-simulation fast-forward path drives one over a thread unit's
// live register file and the machine's memory image, so detailed execution
// resumes exactly where functional execution stopped.
//
// The sequential semantics of the superthreaded primitives are identical to
// the package-level interpreter (see the package comment); both run on this
// engine, which is what keeps the golden model and the fast-forward path
// from ever diverging.
//
// The engine runs Prog's shared decode (isa.Program.Uops), which the
// first core or engine to ask makes, so a program must not be modified
// once an engine has stepped it.
type Engine struct {
	Prog *isa.Program
	Mem  *memimg.Image
	Int  *[isa.NumIntRegs]int64
	FP   *[isa.NumFPRegs]float64

	// PC is the next instruction to execute; InPar/ForkTo mirror the
	// sequential region state (ForkTo -1 = no FORK recorded). Halted is set
	// when a HALT retires; further StepN calls execute nothing.
	PC     int
	InPar  bool
	ForkTo int
	Halted bool

	Hooks Hooks
	// BlockPCs is the instruction-group size for Hooks.Block (a power of
	// two). Zero disables block tracking even when the hook is set.
	BlockPCs int

	Counts Counts

	lastBlock int
}

// Reset points the engine at pc with a clean region state, keeping the
// bound program, memory, and register state.
func (e *Engine) Reset(pc int) {
	e.PC = pc
	e.InPar = false
	e.ForkTo = -1
	e.Halted = false
	e.lastBlock = -1
}

// StepN executes up to n dynamic instructions, stopping early on HALT or a
// malformed program. It returns the number of instructions executed. The
// engine may be called again to continue (unless Halted).
//
// Dispatch is one dense switch on the decoded op, which the compiler lowers
// to a jump table. The integer operations are written out in their own
// arms; the FP operations call isa.EvalOp. TestEngineMatchesEvalOp holds
// both to the core's single definition in isa.
func (e *Engine) StepN(n int64) (int64, error) {
	if e.Halted || n <= 0 {
		return 0, nil
	}
	var (
		// Prog's shared decode; its trailing HALT sentinel stands in for
		// every out-of-range pc.
		uops      = e.Prog.Uops()
		halt      = uint(len(uops) - 1) // the HALT sentinel
		img       = e.Mem
		ir        = e.Int
		fr        = e.FP
		pc        = e.PC
		forkTo    = e.ForkTo
		inPar     = e.InPar
		lastBlock = e.lastBlock
		hooks     = e.Hooks
		shift     = uint(0)
		done      int64
		c         Counts
		err       error
	)
	trackBlocks := hooks.Block != nil && e.BlockPCs > 0
	if trackBlocks {
		for 1<<shift < e.BlockPCs {
			shift++
		}
	}
loop:
	for done < n {
		u := &uops[min(uint(pc), halt)]
		done++
		if inPar {
			c.ParInsts++
		}
		if trackBlocks {
			if b := pc >> shift; b != lastBlock {
				lastBlock = b
				hooks.Block(pc)
			}
		}
		next := pc + 1
		var taken bool
		switch u.Op {
		case isa.NOP, isa.TSAGD, isa.TSA:
		case isa.HALT:
			e.Halted = true
			break loop

		case isa.ADD:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] + ir[u.Rs2]
			}
		case isa.SUB:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] - ir[u.Rs2]
			}
		case isa.MUL:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] * ir[u.Rs2]
			}
		case isa.DIV:
			if u.Rd != 0 {
				var q int64
				if d := ir[u.Rs2]; d != 0 {
					q = ir[u.Rs1] / d
				}
				ir[u.Rd] = q
			}
		case isa.REM:
			if u.Rd != 0 {
				var r int64
				if d := ir[u.Rs2]; d != 0 {
					r = ir[u.Rs1] % d
				}
				ir[u.Rd] = r
			}
		case isa.AND:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] & ir[u.Rs2]
			}
		case isa.OR:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] | ir[u.Rs2]
			}
		case isa.XOR:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] ^ ir[u.Rs2]
			}
		case isa.SLL:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] << (uint64(ir[u.Rs2]) & 63)
			}
		case isa.SRL:
			if u.Rd != 0 {
				ir[u.Rd] = int64(uint64(ir[u.Rs1]) >> (uint64(ir[u.Rs2]) & 63))
			}
		case isa.SRA:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] >> (uint64(ir[u.Rs2]) & 63)
			}
		case isa.SLT:
			if u.Rd != 0 {
				ir[u.Rd] = b2i(ir[u.Rs1] < ir[u.Rs2])
			}
		case isa.SLTU:
			if u.Rd != 0 {
				ir[u.Rd] = b2i(uint64(ir[u.Rs1]) < uint64(ir[u.Rs2]))
			}
		case isa.ADDI:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] + u.Imm
			}
		case isa.ANDI:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] & u.Imm
			}
		case isa.ORI:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] | u.Imm
			}
		case isa.XORI:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] ^ u.Imm
			}
		case isa.SLLI:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] << (uint64(u.Imm) & 63)
			}
		case isa.SRLI:
			if u.Rd != 0 {
				ir[u.Rd] = int64(uint64(ir[u.Rs1]) >> (uint64(u.Imm) & 63))
			}
		case isa.SRAI:
			if u.Rd != 0 {
				ir[u.Rd] = ir[u.Rs1] >> (uint64(u.Imm) & 63)
			}
		case isa.SLTI:
			if u.Rd != 0 {
				ir[u.Rd] = b2i(ir[u.Rs1] < u.Imm)
			}
		case isa.LI:
			if u.Rd != 0 {
				ir[u.Rd] = u.Imm
			}

		case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FNEG, isa.FABS,
			isa.FMIN, isa.FMAX, isa.FLT, isa.FLE, isa.I2F, isa.F2I, isa.FLI:
			iv, fv := isa.EvalOp(u.Op, u.Imm, ir[u.Rs1], ir[u.Rs2], fr[u.Rs1], fr[u.Rs2])
			if u.Flags&isa.UFPDest != 0 {
				fr[u.Rd] = fv
			} else if u.Rd != 0 {
				ir[u.Rd] = iv
			}

		case isa.LD:
			c.Loads++
			addr := uint64(ir[u.Rs1] + u.Imm)
			if hooks.Load != nil {
				hooks.Load(addr)
			}
			if u.Rd != 0 {
				ir[u.Rd] = img.ReadWord(addr)
			}
		case isa.FLD:
			c.Loads++
			addr := uint64(ir[u.Rs1] + u.Imm)
			if hooks.Load != nil {
				hooks.Load(addr)
			}
			fr[u.Rd] = img.ReadFloat(addr)
		case isa.ST, isa.TST:
			c.Stores++
			addr := uint64(ir[u.Rs1] + u.Imm)
			img.WriteWord(addr, ir[u.Rs2])
			if hooks.Store != nil {
				hooks.Store(addr)
			}
		case isa.FST:
			c.Stores++
			addr := uint64(ir[u.Rs1] + u.Imm)
			img.WriteFloat(addr, fr[u.Rs2])
			if hooks.Store != nil {
				hooks.Store(addr)
			}

		case isa.BEQ:
			taken = ir[u.Rs1] == ir[u.Rs2]
			goto branch
		case isa.BNE:
			taken = ir[u.Rs1] != ir[u.Rs2]
			goto branch
		case isa.BLT:
			taken = ir[u.Rs1] < ir[u.Rs2]
			goto branch
		case isa.BGE:
			taken = ir[u.Rs1] >= ir[u.Rs2]
			goto branch
		case isa.BLTU:
			taken = uint64(ir[u.Rs1]) < uint64(ir[u.Rs2])
			goto branch
		case isa.BGEU:
			taken = uint64(ir[u.Rs1]) >= uint64(ir[u.Rs2])
			goto branch
		case isa.JMP:
			next = int(u.Imm)
		case isa.JAL:
			if u.Rd != 0 {
				ir[u.Rd] = int64(pc + 1)
			}
			if hooks.Call != nil {
				hooks.Call(pc + 1)
			}
			next = int(u.Imm)
		case isa.JR:
			next = int(ir[u.Rs1])
			if hooks.Ret != nil {
				hooks.Ret()
			}

		case isa.BEGIN:
			inPar = true
			forkTo = -1
		case isa.FORK:
			forkTo = int(u.Imm)
			c.Forks++
		case isa.THEND:
			if forkTo < 0 {
				err = fmt.Errorf("interp: THEND at pc %d with no preceding FORK", pc)
				break loop
			}
			next = forkTo
		case isa.ABORT:
			inPar = false
			forkTo = -1
		}
		pc = next
		continue

	branch:
		c.Branches++
		if taken {
			c.Taken++
			next = int(u.Imm)
		}
		if hooks.Branch != nil {
			hooks.Branch(pc, taken)
		}
		pc = next
	}
	e.PC = pc
	e.ForkTo = forkTo
	e.InPar = inPar
	e.lastBlock = lastBlock
	e.Counts.Insts += done
	e.Counts.Loads += c.Loads
	e.Counts.Stores += c.Stores
	e.Counts.Branches += c.Branches
	e.Counts.Taken += c.Taken
	e.Counts.ParInsts += c.ParInsts
	e.Counts.Forks += c.Forks
	return done, err
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
