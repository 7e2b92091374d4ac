package isa

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(Uop{}); n != 16 {
		t.Fatalf("Uop is %d bytes, want 16", n)
	}
}

// TestDecodeUopEveryOp decodes every opcode with a zero and a non-zero
// destination register and checks each uop field against the Inst and Op
// accessors it replaces in the timing core.
func TestDecodeUopEveryOp(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		for _, rd := range []uint8{0, 7} {
			in := Inst{Op: op, Rd: rd, Rs1: 3, Rs2: 5, Imm: -42}
			u := DecodeUop(in)
			has := func(bit uint8) bool { return u.Flags&bit != 0 }
			r1, r2, use1, use2, fp1, fp2 := in.SrcRegs()
			if u.Op != op || u.Rd != rd || u.Imm != in.Imm {
				t.Errorf("%v: op/rd/imm = %v/%d/%d", in, u.Op, u.Rd, u.Imm)
			}
			if u.Rs1 != r1 || u.Rs2 != r2 || has(UUse1) != use1 || has(UUse2) != use2 ||
				has(UFP1) != fp1 || has(UFP2) != fp2 {
				t.Errorf("%v: sources %d,%d use %v,%v fp %v,%v; SrcRegs says %d,%d use %v,%v fp %v,%v",
					in, u.Rs1, u.Rs2, has(UUse1), has(UUse2), has(UFP1), has(UFP2),
					r1, r2, use1, use2, fp1, fp2)
			}
			if has(UDest) != in.HasDest() || has(UFPDest) != op.FPDest() || has(UMem) != op.IsMem() {
				t.Errorf("%v: dest %v fpdest %v mem %v", in, has(UDest), has(UFPDest), has(UMem))
			}
			if u.FU != op.FU() || int(u.Lat) != op.Latency() {
				t.Errorf("%v: FU %v lat %d, want %v %d", in, u.FU, u.Lat, op.FU(), op.Latency())
			}
			if (u.Class == ClassLoad) != op.IsLoad() || (u.Class == ClassStore) != op.IsStore() ||
				(u.Class == ClassBranch) != op.IsBranch() || (u.Class == ClassJR) != (op == JR) ||
				(u.Class == ClassJump) != (op.IsJump() && op != JR) {
				t.Errorf("%v: class %d disagrees with the op's kind", in, u.Class)
			}
			marker := op.FU() == FUNone
			if (u.Class == ClassMarker) != marker || (u.Class == ClassALU) != (!marker && !op.IsMem() && !op.IsControl()) {
				t.Errorf("%v: class %d, marker %v", in, u.Class, marker)
			}
		}
	}
}

// TestDecodeUopsSentinel checks that the trailing HALT reproduces
// Program.At for the out-of-range PCs a fetch can reach.
func TestDecodeUopsSentinel(t *testing.T) {
	p := &Program{Insts: []Inst{{Op: ADDI, Rd: 1, Imm: 2}, {Op: JMP, Imm: 0}}}
	uops := DecodeUops(p.Insts)
	if len(uops) != len(p.Insts)+1 {
		t.Fatalf("%d uops for %d instructions", len(uops), len(p.Insts))
	}
	for _, pc := range []int{-1, 0, 1, len(p.Insts), len(p.Insts) + 5} {
		got := uops[min(uint(pc), uint(len(p.Insts)))]
		if want := DecodeUop(p.At(pc)); got != want {
			t.Errorf("pc %d: uop %+v, Program.At decodes to %+v", pc, got, want)
		}
	}
}

// TestUopsSharedAcrossGoroutines calls Program.Uops from several goroutines
// at once: every caller must get the one backing array, equal to
// DecodeUops of the program. Run under -race it also checks the lazy
// decode is published safely.
func TestUopsSharedAcrossGoroutines(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: ADDI, Rd: 1, Imm: 5}, {Op: LD, Rd: 2, Rs1: 1, Imm: 8},
		{Op: BNE, Rs1: 2, Rs2: 0, Imm: 0}, {Op: FADD, Rd: 3, Rs1: 1, Rs2: 2},
	}}
	const n = 8
	got := make([][]Uop, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Uops()
		}()
	}
	wg.Wait()
	want := DecodeUops(p.Insts)
	for i, u := range got {
		if !reflect.DeepEqual(u, want) {
			t.Fatalf("caller %d: Uops() = %+v, want DecodeUops %+v", i, u, want)
		}
		if unsafe.SliceData(u) != unsafe.SliceData(got[0]) {
			t.Errorf("caller %d got its own decode, not the shared array", i)
		}
	}
}
