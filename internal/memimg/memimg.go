// Package memimg provides the simulated physical data memory: a sparse,
// page-granular byte-addressable image with 64-bit word accessors. All
// functional state (as opposed to cache timing state) lives here; caches
// only model residency and latency.
package memimg

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"slices"
)

// PageBits is log2 of the page size used for the sparse backing store.
const PageBits = 12

// PageSize is the backing-store page size in bytes.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// Image is a sparse byte-addressable memory. The zero value is not usable;
// call New.
type Image struct {
	pages map[uint64]*[PageSize]byte
	// lastPN and last remember the most recent page found, so repeat
	// accesses to one page skip the map. Pages are never freed, so a
	// non-nil last stays valid; a nil last caches nothing.
	lastPN uint64
	last   *[PageSize]byte
}

// New returns an empty memory image; all bytes read as zero.
func New() *Image {
	return &Image{pages: make(map[uint64]*[PageSize]byte)}
}

// Clone returns a deep copy of the image, with an empty page cache.
func (m *Image) Clone() *Image {
	c := New()
	for pn, pg := range m.pages {
		np := *pg
		c.pages[pn] = &np
	}
	return c
}

func (m *Image) page(addr uint64, alloc bool) *[PageSize]byte {
	pn := addr >> PageBits
	if pn == m.lastPN && m.last != nil {
		return m.last
	}
	pg := m.pages[pn]
	if pg == nil {
		if !alloc {
			return nil
		}
		pg = new([PageSize]byte)
		m.pages[pn] = pg
	}
	m.lastPN, m.last = pn, pg
	return pg
}

// ByteAt returns the byte at addr.
func (m *Image) ByteAt(addr uint64) byte {
	pg := m.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Image) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// ReadWord returns the 64-bit little-endian word at addr. The address may
// straddle a page boundary; alignment is not required.
func (m *Image) ReadWord(addr uint64) int64 {
	off := addr & pageMask
	if off <= PageSize-8 {
		pg := m.page(addr, false)
		if pg == nil {
			return 0
		}
		return int64(binary.LittleEndian.Uint64(pg[off : off+8]))
	}
	var buf [8]byte
	for i := range buf {
		buf[i] = m.ByteAt(addr + uint64(i))
	}
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// WriteWord stores a 64-bit little-endian word at addr.
func (m *Image) WriteWord(addr uint64, v int64) {
	off := addr & pageMask
	if off <= PageSize-8 {
		pg := m.page(addr, true)
		binary.LittleEndian.PutUint64(pg[off:off+8], uint64(v))
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	for i, b := range buf {
		m.SetByte(addr+uint64(i), b)
	}
}

// ReadFloat returns the float64 stored at addr.
func (m *Image) ReadFloat(addr uint64) float64 {
	return math.Float64frombits(uint64(m.ReadWord(addr)))
}

// WriteFloat stores a float64 at addr.
func (m *Image) WriteFloat(addr uint64, f float64) {
	m.WriteWord(addr, int64(math.Float64bits(f)))
}

// SetBytes copies b into memory starting at addr.
func (m *Image) SetBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		pg := m.page(addr, true)
		off := addr & pageMask
		n := copy(pg[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadRange copies n bytes starting at addr into a new slice.
func (m *Image) ReadRange(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		pg := m.page(addr+uint64(i), false)
		off := (addr + uint64(i)) & pageMask
		if pg == nil {
			// Zero page: skip to next page boundary.
			step := min(n-i, PageSize-int(off))
			i += step
			continue
		}
		step := copy(out[i:], pg[off:])
		i += step
	}
	return out
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns a deterministic digest of the entire image, independent
// of page allocation order. All-zero pages do not affect the digest, so an
// image that was never written hashes equal to one written with zeros.
func (m *Image) Checksum() uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn, pg := range m.pages {
		if isZero(pg) {
			continue
		}
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	var sum uint64
	var hdr [8]byte
	for _, pn := range pns {
		binary.LittleEndian.PutUint64(hdr[:], pn)
		sum = crc64.Update(sum, crcTable, hdr[:])
		sum = crc64.Update(sum, crcTable, m.pages[pn][:])
	}
	return sum
}

// FootprintBytes returns the number of allocated backing bytes.
func (m *Image) FootprintBytes() int { return len(m.pages) * PageSize }

func isZero(pg *[PageSize]byte) bool {
	for _, b := range pg {
		if b != 0 {
			return false
		}
	}
	return true
}
