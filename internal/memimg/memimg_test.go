package memimg

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if m.ByteAt(0) != 0 || m.ReadWord(1<<40) != 0 || m.ReadFloat(12345) != 0 {
		t.Error("fresh image should read as zero everywhere")
	}
}

func TestByteRoundtrip(t *testing.T) {
	m := New()
	m.SetByte(5, 0xAB)
	if got := m.ByteAt(5); got != 0xAB {
		t.Errorf("ByteAt = %#x", got)
	}
	if m.ByteAt(4) != 0 || m.ByteAt(6) != 0 {
		t.Error("neighbouring bytes disturbed")
	}
}

func TestWordRoundtrip(t *testing.T) {
	m := New()
	m.WriteWord(64, -123456789)
	if got := m.ReadWord(64); got != -123456789 {
		t.Errorf("ReadWord = %d", got)
	}
}

func TestWordStraddlesPage(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3) // crosses into page 1
	m.WriteWord(addr, 0x0102030405060708)
	if got := m.ReadWord(addr); got != 0x0102030405060708 {
		t.Errorf("straddling ReadWord = %#x", got)
	}
	// Bytes landed on both pages.
	if m.ByteAt(PageSize-3) != 0x08 || m.ByteAt(PageSize) != 0x05 {
		t.Error("straddling write put bytes in the wrong place")
	}
}

func TestFloatRoundtrip(t *testing.T) {
	m := New()
	m.WriteFloat(8, 3.14159)
	if got := m.ReadFloat(8); got != 3.14159 {
		t.Errorf("ReadFloat = %g", got)
	}
}

func TestSetReadRange(t *testing.T) {
	m := New()
	src := make([]byte, 3*PageSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 100)
	m.SetBytes(addr, src)
	got := m.ReadRange(addr, len(src))
	if !bytes.Equal(got, src) {
		t.Fatal("multi-page SetBytes/ReadRange mismatch")
	}
}

func TestReadRangeAcrossZeroPage(t *testing.T) {
	m := New()
	m.SetByte(0, 1)
	m.SetByte(2*PageSize, 2) // page 1 never allocated
	got := m.ReadRange(0, 2*PageSize+1)
	if got[0] != 1 || got[2*PageSize] != 2 {
		t.Error("endpoints wrong")
	}
	for i := 1; i < 2*PageSize; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d should be zero, got %d", i, got[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.WriteWord(0, 42)
	c := m.Clone()
	c.WriteWord(0, 99)
	if m.ReadWord(0) != 42 {
		t.Error("clone mutated the original")
	}
	if c.ReadWord(0) != 99 {
		t.Error("clone lost its own write")
	}
}

func TestChecksumProperties(t *testing.T) {
	a, b := New(), New()
	if a.Checksum() != b.Checksum() {
		t.Error("two empty images should hash equal")
	}
	// Zero writes don't change the digest.
	a.WriteWord(512, 0)
	if a.Checksum() != b.Checksum() {
		t.Error("writing zeros changed the checksum")
	}
	a.WriteWord(512, 7)
	if a.Checksum() == b.Checksum() {
		t.Error("different contents hash equal")
	}
	b.WriteWord(512, 7)
	if a.Checksum() != b.Checksum() {
		t.Error("equal contents hash different")
	}
	// Same value at a different address differs.
	c := New()
	c.WriteWord(520, 7)
	if c.Checksum() == b.Checksum() {
		t.Error("address should affect checksum")
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	a, b := New(), New()
	addrs := []uint64{0, 5 * PageSize, PageSize, 100 * PageSize}
	for i, ad := range addrs {
		a.WriteWord(ad, int64(i+1))
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		b.WriteWord(addrs[i], int64(i+1))
	}
	if a.Checksum() != b.Checksum() {
		t.Error("checksum depends on write order")
	}
}

func TestWordPropertyRoundtrip(t *testing.T) {
	m := New()
	f := func(addr uint64, v int64) bool {
		addr %= 1 << 30
		m.WriteWord(addr, v)
		return m.ReadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLastWrittenWins(t *testing.T) {
	f := func(addr uint64, a, b int64) bool {
		addr %= 1 << 30
		m := New()
		m.WriteWord(addr, a)
		m.WriteWord(addr, b)
		return m.ReadWord(addr) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.FootprintBytes() != 0 {
		t.Error("empty image has footprint")
	}
	m.SetByte(0, 1)
	m.SetByte(10*PageSize, 1)
	if got := m.FootprintBytes(); got != 2*PageSize {
		t.Errorf("footprint = %d, want %d", got, 2*PageSize)
	}
}

// TestPageCacheCoherence drives the one-entry page cache through the
// sequences that could leave it stale: a miss on an unmapped page followed
// by the write that maps it, alternation between pages, a word straddling
// a cached and an unmapped page, and clones taken while a page is cached.
func TestPageCacheCoherence(t *testing.T) {
	m := New()
	// Page 0 is the cache's initial page number: an unmapped read there
	// must not pin a nil page.
	if m.ReadWord(0) != 0 || m.ReadWord(3*PageSize) != 0 {
		t.Fatal("unmapped page reads non-zero")
	}
	m.WriteWord(0, 11)
	m.WriteWord(3*PageSize, 33)
	if m.ReadWord(0) != 11 || m.ReadWord(3*PageSize) != 33 {
		t.Fatal("write to a freshly mapped page not read back")
	}
	// Alternate pages so every access switches the cached page.
	for i := range 4 {
		m.WriteWord(uint64(i%2)*PageSize+64, int64(100+i))
	}
	if m.ReadWord(64) != 102 || m.ReadWord(PageSize+64) != 103 {
		t.Fatal("alternating writes lost")
	}

	// A word straddling cached page 3 and unmapped page 4.
	straddle := uint64(4*PageSize - 4)
	if m.ReadWord(straddle) != 0 {
		t.Fatal("straddling read of half-unmapped word non-zero")
	}
	m.WriteWord(straddle, 0x0102030405060708)
	if m.ReadWord(straddle) != 0x0102030405060708 {
		t.Fatalf("straddling word = %#x", m.ReadWord(straddle))
	}
	if m.ReadWord(4*PageSize) != 0x01020304 || m.ByteAt(4*PageSize-1) != 0x05 {
		t.Fatal("straddling write split across pages wrongly")
	}

	// Clones share no page, whatever either side had cached.
	m.ReadWord(3 * PageSize)
	c := m.Clone()
	c.WriteWord(3*PageSize, -1)
	m.WriteWord(3*PageSize+8, -2)
	if m.ReadWord(3*PageSize) != 33 || c.ReadWord(3*PageSize+8) != 0 {
		t.Fatal("clone and original share a cached page")
	}
	if c.ReadWord(3*PageSize) != -1 || m.ReadWord(3*PageSize+8) != -2 {
		t.Fatal("write after clone lost")
	}
	if c.Checksum() == m.Checksum() {
		t.Fatal("diverged images hash equal")
	}
}

// sharedPage returns a page whose bytes are i*3+1, and a copy to compare
// it against.
func sharedPage() (pg, want *[PageSize]byte) {
	pg = new([PageSize]byte)
	for i := range pg {
		pg[i] = byte(i*3 + 1)
	}
	w := *pg
	return pg, &w
}

func TestShareCopiesOnWrite(t *testing.T) {
	pg, want := sharedPage()
	m := New()
	m.Share(2, pg)
	if got := m.ByteAt(2*PageSize + 5); got != pg[5] {
		t.Fatalf("shared page reads %d, want %d", got, pg[5])
	}
	m.WriteWord(2*PageSize+8, -1)
	m.SetByte(2*PageSize+100, 0xee)
	m.SetBytes(2*PageSize+200, []byte{9, 9, 9})
	if *pg != *want {
		t.Fatal("a write to a shared page changed the shared array")
	}
	if m.ReadWord(2*PageSize+8) != -1 || m.ByteAt(2*PageSize+100) != 0xee || m.ByteAt(2*PageSize+201) != 9 {
		t.Fatal("writes to the copied page lost")
	}
	if m.ByteAt(2*PageSize+5) != pg[5] || m.ByteAt(2*PageSize+300) != pg[300] {
		t.Fatal("the copy lost the shared page's other bytes")
	}
	if m.FootprintBytes() != PageSize {
		t.Errorf("footprint = %d, want one page", m.FootprintBytes())
	}
}

func TestSharedPageDivergesPerImage(t *testing.T) {
	pg, want := sharedPage()
	a, b := New(), New()
	a.Share(0, pg)
	b.Share(0, pg)
	if a.Checksum() != b.Checksum() {
		t.Fatal("two images over one page hash differently")
	}
	a.WriteWord(16, 111)
	b.WriteWord(16, 222)
	b.WriteWord(24, 333)
	if a.ReadWord(16) != 111 || b.ReadWord(16) != 222 {
		t.Fatal("images over one page did not diverge")
	}
	if got, w := a.ReadWord(24), int64(binary.LittleEndian.Uint64(want[24:])); got != w {
		t.Fatalf("a reads %#x at 24, want the shared %#x", got, w)
	}
	if *pg != *want {
		t.Fatal("writes through two images changed the shared array")
	}
}

// TestCachedSharedPageCopiesOnWrite reads a shared page, so the page cache
// holds it, then writes the same page: the write must still copy.
func TestCachedSharedPageCopiesOnWrite(t *testing.T) {
	pg, want := sharedPage()
	m := New()
	m.Share(1, pg)
	_ = m.ReadWord(PageSize)
	m.SetByte(PageSize+1, 0)
	m.WriteWord(PageSize+64, 7)
	if *pg != *want {
		t.Fatal("a write after a cached read wrote through the shared page")
	}
	if m.ByteAt(PageSize+1) != 0 || m.ReadWord(PageSize+64) != 7 {
		t.Fatal("writes after a cached read lost")
	}
	// Lend marks a cached private page shared: the next write copies
	// again and leaves the lent array as it was.
	lent := m.Lend(1)
	before := *lent
	m.WriteWord(PageSize+64, 8)
	if *lent != before || m.ReadWord(PageSize+64) != 8 {
		t.Fatal("a write after Lend wrote through the lent page")
	}
	if m.Lend(5) != nil {
		t.Fatal("Lend of an unmapped page returned an array")
	}
}

// TestWordStraddlesSharedAndPrivate writes a word across a shared page and
// a private one, in both orders.
func TestWordStraddlesSharedAndPrivate(t *testing.T) {
	pg, want := sharedPage()
	m := New()
	m.Share(1, pg)
	m.SetByte(2*PageSize+100, 1) // page 2 private
	m.SetByte(100, 1)            // page 0 private
	for _, addr := range []uint64{2*PageSize - 3, PageSize - 5} {
		m.WriteWord(addr, 0x0102030405060708)
		if got := m.ReadWord(addr); got != 0x0102030405060708 {
			t.Fatalf("straddling word at %#x = %#x", addr, got)
		}
	}
	if *pg != *want {
		t.Fatal("a straddling write changed the shared array")
	}
	if m.ByteAt(PageSize+3) != pg[3] || m.ByteAt(2*PageSize-4) != pg[PageSize-4] {
		t.Fatal("a straddling write disturbed the copied page's other bytes")
	}
}
