package asm

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/memimg"
)

func TestLabelsResolve(t *testing.T) {
	b := New()
	b.Li(1, 0)
	b.Label("loop")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[2].Imm != 1 {
		t.Errorf("branch target = %d, want 1", p.Insts[2].Imm)
	}
	if p.Symbols["loop"] != 1 {
		t.Errorf("symbol loop = %d", p.Symbols["loop"])
	}
}

func TestForwardLabel(t *testing.T) {
	b := New()
	b.Jmp("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Imm != 2 {
		t.Errorf("forward jump target = %d, want 2", p.Insts[0].Imm)
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	b := New()
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined label accepted")
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	b := New()
	b.Label("x")
	b.Nop()
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestRegisterRangeChecked(t *testing.T) {
	b := New()
	b.Op3(isa.ADD, 32, 0, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range register accepted")
	}
}

func TestBrRejectsNonBranch(t *testing.T) {
	b := New()
	b.Label("l")
	b.Br(isa.ADD, 1, 2, "l")
	if _, err := b.Build(); err == nil {
		t.Fatal("Br with ADD accepted")
	}
}

func TestAllocAlignmentAndSymbols(t *testing.T) {
	b := New()
	a1 := b.Alloc("arr1", 100, 0)
	a2 := b.Alloc("arr2", 8, 0)
	if a1%64 != 0 || a2%64 != 0 {
		t.Errorf("allocations not 64-byte aligned: %#x %#x", a1, a2)
	}
	if a2 < a1+100 {
		t.Error("allocations overlap")
	}
	if a1 < DataBase {
		t.Errorf("allocation below DataBase: %#x", a1)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p.Symbols["arr1"]) != a1 || uint64(p.Symbols["arr2"]) != a2 {
		t.Error("data symbols not recorded")
	}
}

func TestAllocCustomAlignment(t *testing.T) {
	b := New()
	a := b.Alloc("page", 10, 4096)
	if a%4096 != 0 {
		t.Errorf("4096 alignment violated: %#x", a)
	}
	b.Alloc("bad", 1, 3) // not a power of two
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
}

func TestDuplicateDataSymbolFails(t *testing.T) {
	b := New()
	b.Alloc("d", 8, 0)
	b.Alloc("d", 8, 0)
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate data symbol accepted")
	}
}

func TestLabelDataSymbolClash(t *testing.T) {
	b := New()
	b.Alloc("x", 8, 0)
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("label/data symbol clash accepted")
	}
}

func TestDataRoundtrip(t *testing.T) {
	b := New()
	a := b.Alloc("v", 24, 0)
	b.InitWord(a, 111)
	b.InitWord(a+8, -222)
	b.InitFloat(a+16, 2.5)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	img := memimg.New()
	LoadData(p, img)
	if img.ReadWord(a) != 111 || img.ReadWord(a+8) != -222 || img.ReadFloat(a+16) != 2.5 {
		t.Error("data image roundtrip failed")
	}
}

func TestBeginMask(t *testing.T) {
	b := New()
	b.Begin(1, 3, 5)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1<<1 | 1<<3 | 1<<5)
	if p.Insts[0].Imm != want {
		t.Errorf("BEGIN mask = %#x, want %#x", p.Insts[0].Imm, want)
	}
}

func TestForkTarget(t *testing.T) {
	b := New()
	b.Label("body")
	b.Fork("body")
	b.Thend()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Op != isa.FORK || p.Insts[0].Imm != 0 {
		t.Errorf("fork inst = %+v", p.Insts[0])
	}
}

func TestStoreOperandOrder(t *testing.T) {
	b := New()
	b.St(7, 16, 3) // mem[r3+16] = r7
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := p.Insts[0]
	if in.Rs1 != 3 || in.Rs2 != 7 || in.Imm != 16 {
		t.Errorf("St encoding wrong: %+v", in)
	}
}

func TestBuildIsolatesInsts(t *testing.T) {
	b := New()
	b.Nop()
	b.Halt()
	p, _ := b.Build()
	b.Li(1, 9) // further emission must not disturb the built program
	if len(p.Insts) != 2 {
		t.Error("Build did not copy the instruction slice")
	}
}

// TestBuildIsolatesData checks that Build's zero-copy export is still an
// isolated snapshot: initializing more data on the builder and building
// again must leave the first program's segments as they were.
func TestBuildIsolatesData(t *testing.T) {
	b := New()
	arr := b.Alloc("arr", 64, 8)
	b.InitBytes(arr, []byte{1, 2, 3, 4})
	b.Halt()
	p1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.InitBytes(arr, []byte{9, 9})
	b.InitWord(arr+memimg.PageSize, 5) // a page the first build did not export
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Data) != 1 || len(p2.Data) != 2 {
		t.Fatalf("segments: first build %d, second %d; want 1 and 2", len(p1.Data), len(p2.Data))
	}
	off := arr - p1.Data[0].Addr
	if got := p1.Data[0].Bytes[off : off+4]; string(got) != "\x01\x02\x03\x04" {
		t.Errorf("first program's data is % x after a later InitBytes, want 01 02 03 04", got)
	}
	if got := p2.Data[0].Bytes[off : off+4]; string(got) != "\x09\x09\x03\x04" {
		t.Errorf("second program's data is % x, want 09 09 03 04", got)
	}
}

func TestLoadDataRejectsPartialPage(t *testing.T) {
	for _, seg := range []isa.DataSeg{
		{Addr: DataBase, Bytes: make([]byte, 8)},
		{Addr: DataBase + 8, Bytes: make([]byte, memimg.PageSize)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LoadData accepted a %d-byte segment at %#x", len(seg.Bytes), seg.Addr)
				}
			}()
			LoadData(&isa.Program{Data: []isa.DataSeg{seg}}, memimg.New())
		}()
	}
}
