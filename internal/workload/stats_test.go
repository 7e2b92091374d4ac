package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/isa"
)

// TestKernelsUseSTAPrimitivesProperly statically inspects every kernel's
// binary: exactly one FORK per region body, a TSAGD between fork and the
// first load of each body, and an ABORT on the exit path.
func TestKernelsUseSTAPrimitivesProperly(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Short, func(t *testing.T) {
			p, err := w.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			var forks, tsagds, aborts, thends, begins int
			for _, in := range p.Insts {
				switch in.Op {
				case isa.FORK:
					forks++
				case isa.TSAGD:
					tsagds++
				case isa.ABORT:
					aborts++
				case isa.THEND:
					thends++
				case isa.BEGIN:
					begins++
				}
			}
			if begins != 1 || forks != 1 || tsagds != 1 || aborts != 1 || thends != 1 {
				t.Errorf("STA ops: begin=%d fork=%d tsagd=%d abort=%d thend=%d (each static op should appear once)",
					begins, forks, tsagds, aborts, thends)
			}
			// Every FORK targets an instruction, in range.
			for _, in := range p.Insts {
				if in.Op == isa.FORK && (in.Imm < 0 || in.Imm >= int64(len(p.Insts))) {
					t.Errorf("fork target %d out of range", in.Imm)
				}
			}
		})
	}
}

// TestKernelMemoryAccessesAligned: every static memory instruction uses an
// 8-byte-aligned displacement, the workload discipline that makes exact
// store-to-load forwarding sufficient.
func TestKernelMemoryAccessesAligned(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Short, func(t *testing.T) {
			p, err := w.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			for pc, in := range p.Insts {
				if in.Op.IsMem() && in.Imm%8 != 0 {
					t.Errorf("pc %d: %v has unaligned displacement %d", pc, in, in.Imm)
				}
			}
		})
	}
}

// TestKernelDataSymbols: every kernel exports the symbols the tests and
// tools rely on.
func TestKernelDataSymbols(t *testing.T) {
	for _, w := range All() {
		p, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Symbols["result"]; !ok {
			t.Errorf("%s: missing result symbol", w.Short)
		}
		if _, ok := p.Symbols["scratch"]; !ok {
			t.Errorf("%s: missing scratch symbol", w.Short)
		}
	}
}

// TestWorkloadsDeterministic: building twice yields identical programs,
// instructions and initial data alike.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		p1, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(p1.Insts) != len(p2.Insts) {
			t.Fatalf("%s: nondeterministic instruction count", w.Short)
		}
		for i := range p1.Insts {
			if p1.Insts[i] != p2.Insts[i] {
				t.Fatalf("%s: instruction %d differs between builds", w.Short, i)
			}
		}
		if len(p1.Data) != len(p2.Data) {
			t.Fatalf("%s: nondeterministic data segment count", w.Short)
		}
		for i := range p1.Data {
			if p1.Data[i].Addr != p2.Data[i].Addr || !bytes.Equal(p1.Data[i].Bytes, p2.Data[i].Bytes) {
				t.Fatalf("%s: data segment %d differs between builds", w.Short, i)
			}
		}
	}
}

// programDigest hashes a program's instructions and initial data: every
// field of every instruction, then each data segment's address, length
// and bytes.
func programDigest(p *isa.Program) string {
	h := sha256.New()
	var buf []byte
	for _, in := range p.Insts {
		buf = append(buf[:0], byte(in.Op), in.Rd, in.Rs1, in.Rs2)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Imm))
		h.Write(buf)
	}
	for _, seg := range p.Data {
		buf = binary.LittleEndian.AppendUint64(buf[:0], seg.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(seg.Bytes)))
		h.Write(buf)
		h.Write(seg.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// pinnedDigests is programDigest of every workload at scale 1.
var pinnedDigests = map[string]string{
	"vpr":    "5c5cdf251fe3b02cb39c100c41faadf1",
	"gzip":   "3095af616a50680a5b02398896279c67",
	"mcf":    "2d22b309461e8861378789a6232690cd",
	"parser": "0358b345a6e0b721f967175ae37593b9",
	"equake": "7b133e187cd74c88b3bdda8d7fa5eb67",
	"mesa":   "98676199a70587d65c7eb5ac2dd4630a",
}

// TestProgramsPinned pins every workload's program at scale 1, so any
// change to a program's instructions or data (a reordered dictionary, a
// different RNG draw) fails here rather than shifting simulated results
// unnoticed. A deliberate change to a workload updates its digest.
func TestProgramsPinned(t *testing.T) {
	for _, w := range All() {
		p, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := programDigest(p); got != pinnedDigests[w.Short] {
			t.Errorf("%s: program digest %s, want %s", w.Short, got, pinnedDigests[w.Short])
		}
	}
}
