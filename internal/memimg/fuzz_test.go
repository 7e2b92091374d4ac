package memimg

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzMemImg drives a random operation stream against the sparse image and
// a flat map-of-bytes model, checking byte, word, and range accessors for
// agreement — with addresses biased toward page boundaries, where the
// split read/write paths live — plus Clone isolation and Checksum
// determinism at the end. Every third page starts as a shared base page,
// so the stream also drives copy-on-write (first writes, cached reads
// followed by writes, words straddling a shared and a private page), and
// the base arrays must come out unchanged.
func FuzzMemImg(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 16, 0, 255, 2, 255, 15, 7})
	f.Add([]byte{1, 255, 15, 0xde, 1, 0, 16, 0xad, 3, 255, 15, 0})
	f.Add(bytes.Repeat([]byte{2, 1, 2, 3}, 16))
	f.Add([]byte{4, 9, 9, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		img := New()
		base := map[uint64]*[PageSize]byte{}
		pristine := map[uint64][PageSize]byte{}
		for pn := uint64(1); pn < 16; pn += 3 {
			pg := new([PageSize]byte)
			for i := range pg {
				pg[i] = byte(int(pn)*31 + i*7)
			}
			base[pn], pristine[pn] = pg, *pg
			img.Share(pn, pg)
		}
		// model holds every byte written; an unwritten byte reads as the
		// pristine base byte, or zero off the base pages.
		model := map[uint64]byte{}
		at := func(addr uint64) byte {
			if b, ok := model[addr]; ok {
				return b
			}
			if pg, ok := pristine[addr>>PageBits]; ok {
				return pg[addr&pageMask]
			}
			return 0
		}
		modelWord := func(addr uint64) int64 {
			var buf [8]byte
			for i := range buf {
				buf[i] = at(addr + uint64(i))
			}
			return int64(binary.LittleEndian.Uint64(buf[:]))
		}
		// Decode fixed-width ops: [kind, addrHi, addrLo, val]. The address
		// space is folded to 16 pages with the low bits kept raw, so
		// straddling accesses at page edges are common.
		for len(data) >= 4 {
			kind, hi, lo, val := data[0], data[1], data[2], data[3]
			data = data[4:]
			addr := (uint64(hi%16) << PageBits) | (uint64(lo) << 5) | uint64(val&31)
			switch kind % 6 {
			case 0: // byte write
				img.SetByte(addr, val)
				model[addr] = val
			case 1: // word write (possibly straddling)
				v := int64(uint64(val) * 0x0101010101010101)
				img.WriteWord(addr, v)
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				for i, b := range buf {
					model[addr+uint64(i)] = b
				}
			case 2: // byte read
				if got, want := img.ByteAt(addr), at(addr); got != want {
					t.Fatalf("ByteAt(%#x) = %d, model %d", addr, got, want)
				}
			case 3: // word read
				if got, want := img.ReadWord(addr), modelWord(addr); got != want {
					t.Fatalf("ReadWord(%#x) = %#x, model %#x", addr, got, want)
				}
			case 4: // range read crossing pages
				n := int(val)%300 + 1
				got := img.ReadRange(addr, n)
				for i := 0; i < n; i++ {
					if got[i] != at(addr+uint64(i)) {
						t.Fatalf("ReadRange(%#x,%d)[%d] = %d, model %d",
							addr, n, i, got[i], at(addr+uint64(i)))
					}
				}
			case 5: // bulk write
				n := int(val)%64 + 1
				blk := make([]byte, n)
				for i := range blk {
					blk[i] = byte(int(hi) + i)
				}
				img.SetBytes(addr, blk)
				for i, b := range blk {
					model[addr+uint64(i)] = b
				}
			}
		}
		// Float accessors share the word path bit-for-bit.
		img.WriteFloat(64, 3.75)
		if img.ReadFloat(64) != 3.75 {
			t.Fatal("float round-trip failed")
		}
		img.WriteWord(64, modelWord(64)) // restore model-agnostic state
		for i := 0; i < 8; i++ {
			img.SetByte(64+uint64(i), at(64+uint64(i)))
		}

		// Checksum is deterministic and page-allocation-order independent;
		// a clone is an equal but isolated copy.
		c1 := img.Checksum()
		if c2 := img.Checksum(); c1 != c2 {
			t.Fatalf("checksum not deterministic: %#x vs %#x", c1, c2)
		}
		cl := img.Clone()
		if cl.Checksum() != c1 {
			t.Fatalf("clone checksum %#x, original %#x", cl.Checksum(), c1)
		}
		cl.SetByte(12345, 0xab)
		if img.ByteAt(12345) == 0xab && at(12345) != 0xab {
			t.Fatal("clone write leaked into the original image")
		}
		cl.SetByte(PageSize+1, ^at(PageSize+1))
		if img.ByteAt(PageSize+1) != at(PageSize+1) {
			t.Fatal("clone write to a base page leaked into the original image")
		}
		for pn, pg := range base {
			if *pg != pristine[pn] {
				t.Fatalf("base page %d changed: a write went through a shared page", pn)
			}
		}
	})
}
