// Package cache implements the tag-array structures used throughout the
// memory hierarchy: set-associative caches with true LRU replacement,
// fully-associative small buffers (victim cache, prefetch buffer, and the
// Wrong Execution Cache storage), and a miss-status holding register (MSHR)
// file that merges concurrent misses to the same block.
//
// Caches here track residency and per-line metadata only; data values live
// in the functional memory image (package memimg). That split mirrors how
// timing simulators such as sim-outorder treat caches.
package cache

import "fmt"

// Per-line metadata flags.
const (
	// FlagWrong marks a block fetched by a wrong-execution (wrong-path or
	// wrong-thread) load. A correct-path hit on such a block in the WEC
	// triggers the next-line prefetch described in the paper (§3.2.1).
	FlagWrong uint8 = 1 << iota
	// FlagPrefetch marks a block fetched by a prefetch. Tagged next-line
	// prefetching issues a new prefetch on the first demand hit to such a
	// block.
	FlagPrefetch
)

// Params sizes a cache.
type Params struct {
	SizeBytes  int
	Assoc      int // 0 means fully associative
	BlockBytes int
}

type line struct {
	tag   uint64 // block address (addr >> blockShift)
	valid bool
	dirty bool
	flags uint8
	used  uint64 // LRU stamp; higher = more recent
}

// Cache is a set-associative tag array with true LRU replacement. It is not
// safe for concurrent use; each simulated cache belongs to one goroutine.
type Cache struct {
	// lines is the tag array, set-major: set s owns
	// lines[s*assoc : (s+1)*assoc].
	lines      []line
	setMask    uint64
	blockShift uint
	blockBytes int
	assoc      int
	clock      uint64

	// gen points at the resident-set generation: it counts every change
	// to which blocks are resident (a new block inserted, a block removed,
	// a reset). By default it points at ownGen; ShareGeneration points
	// several caches at one counter.
	gen    *uint64
	ownGen uint64

	// Statistics maintained by the structure itself.
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache from p. SizeBytes must be a positive multiple of
// BlockBytes*Assoc and the set count must be a power of two.
func New(p Params) (*Cache, error) {
	if p.BlockBytes <= 0 || p.BlockBytes&(p.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a positive power of two", p.BlockBytes)
	}
	blocks := p.SizeBytes / p.BlockBytes
	if blocks <= 0 || p.SizeBytes%p.BlockBytes != 0 {
		return nil, fmt.Errorf("cache: size %d not a positive multiple of block size %d", p.SizeBytes, p.BlockBytes)
	}
	assoc := p.Assoc
	if assoc == 0 {
		assoc = blocks
	}
	if blocks%assoc != 0 {
		return nil, fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, assoc)
	}
	nsets := blocks / assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	c := &Cache{
		lines:      make([]line, nsets*assoc),
		setMask:    uint64(nsets - 1),
		blockBytes: p.BlockBytes,
		assoc:      assoc,
	}
	for bs := p.BlockBytes; bs > 1; bs >>= 1 {
		c.blockShift++
	}
	c.gen = &c.ownGen
	return c, nil
}

// NewFullyAssoc builds a fully-associative cache with the given entry count.
func NewFullyAssoc(entries, blockBytes int) (*Cache, error) {
	return New(Params{SizeBytes: entries * blockBytes, Assoc: 0, BlockBytes: blockBytes})
}

// ShareGeneration makes the cache count its resident-set changes in *g,
// beside every other cache sharing g. A caller that remembers g can then
// tell in one comparison whether any of those caches gained or lost a
// block since.
func (c *Cache) ShareGeneration(g *uint64) { c.gen = g }

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() int { return c.blockBytes }

// Blocks returns the total line count.
func (c *Cache) Blocks() int { return len(c.lines) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.blockBytes) - 1)
}

// NextBlock returns the block address following the one containing addr.
func (c *Cache) NextBlock(addr uint64) uint64 {
	return c.BlockAddr(addr) + uint64(c.blockBytes)
}

// set returns the ways of the set that block tag maps to.
func (c *Cache) set(tag uint64) []line {
	lo := int(tag&c.setMask) * c.assoc
	return c.lines[lo : lo+c.assoc : lo+c.assoc]
}

func (c *Cache) find(addr uint64) *line {
	tag := addr >> c.blockShift
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Probe reports whether addr's block is resident, without touching LRU
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	return c.find(addr) != nil
}

// Flags returns the metadata flags of addr's block, if resident.
func (c *Cache) Flags(addr uint64) (uint8, bool) {
	ln := c.find(addr)
	if ln == nil {
		return 0, false
	}
	return ln.flags, true
}

// Access performs a demand access: on a hit it refreshes LRU state, clears
// nothing, and returns the line's flags before the access along with true.
// On a miss it returns false. Statistics are updated either way.
func (c *Cache) Access(addr uint64, write bool) (uint8, bool) {
	c.Accesses++
	ln := c.find(addr)
	if ln == nil {
		c.Misses++
		return 0, false
	}
	c.Hits++
	c.clock++
	ln.used = c.clock
	flags := ln.flags
	// A demand hit "claims" the block for correct execution: wrong/prefetch
	// provenance only matters for the first demand touch.
	ln.flags = 0
	if write {
		ln.dirty = true
	}
	return flags, true
}

// Touch refreshes LRU state of a resident block without altering flags or
// statistics (used by wrong-execution hits, which must not perturb the
// demand-provenance metadata).
func (c *Cache) Touch(addr uint64) bool {
	ln := c.find(addr)
	if ln == nil {
		return false
	}
	c.clock++
	ln.used = c.clock
	return true
}

// Victim describes a block evicted by Insert.
type Victim struct {
	Addr  uint64
	Dirty bool
	Flags uint8
	Valid bool
}

// Untouched reports whether the evicted block still carried speculative
// provenance when it left the cache — i.e. it was brought in by wrong
// execution or a prefetch and no correct-path demand access ever claimed it
// (a demand hit clears the flags). This is the per-eviction signal the
// attribution layer classifies as a "useless" speculative fill.
func (v Victim) Untouched() bool {
	return v.Valid && v.Flags&(FlagWrong|FlagPrefetch) != 0
}

// Insert places addr's block with the given flags, evicting the LRU line of
// the set if necessary. Inserting an already-resident block just refreshes
// its LRU state and ORs the flags. The evicted block, if any, is returned.
func (c *Cache) Insert(addr uint64, flags uint8, dirty bool) Victim {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.used = c.clock
		ln.flags |= flags
		ln.dirty = ln.dirty || dirty
		return Victim{}
	}
	tag := addr >> c.blockShift
	set := c.set(tag)
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].used < set[vi].used {
			vi = i
		}
	}
	var victim Victim
	if set[vi].valid {
		victim = Victim{
			Addr:  set[vi].tag << c.blockShift,
			Dirty: set[vi].dirty,
			Flags: set[vi].flags,
			Valid: true,
		}
		c.Evictions++
	}
	c.clock++
	*c.gen++
	set[vi] = line{tag: tag, valid: true, dirty: dirty, flags: flags, used: c.clock}
	return victim
}

// Remove extracts addr's block from the cache, returning its metadata.
// Used for the L1<->WEC swap on a WEC hit.
func (c *Cache) Remove(addr uint64) (flags uint8, dirty, ok bool) {
	ln := c.find(addr)
	if ln == nil {
		return 0, false, false
	}
	flags, dirty = ln.flags, ln.dirty
	ln.valid = false
	*c.gen++
	return flags, dirty, true
}

// Invalidate drops addr's block if resident.
func (c *Cache) Invalidate(addr uint64) bool {
	_, _, ok := c.Remove(addr)
	return ok
}

// SetDirty marks a resident block dirty (sequential-mode update coherence).
func (c *Cache) SetDirty(addr uint64) bool {
	ln := c.find(addr)
	if ln == nil {
		return false
	}
	ln.dirty = true
	return true
}

// Dirty reports whether addr's block is resident and dirty.
func (c *Cache) Dirty(addr uint64) bool {
	ln := c.find(addr)
	return ln != nil && ln.dirty
}

// ResidentBlocks returns the addresses of all valid blocks (for tests and
// invariant checks).
func (c *Cache) ResidentBlocks() []uint64 {
	var out []uint64
	for _, ln := range c.lines {
		if ln.valid {
			out = append(out, ln.tag<<c.blockShift)
		}
	}
	return out
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	*c.gen++
	c.Accesses, c.Hits, c.Misses, c.Evictions = 0, 0, 0, 0
}
