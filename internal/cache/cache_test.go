package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mk(t *testing.T, size, assoc, block int) *Cache {
	t.Helper()
	c, err := New(Params{SizeBytes: size, Assoc: assoc, BlockBytes: block})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := []Params{
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 0},
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 48},   // not power of two
		{SizeBytes: 100, Assoc: 1, BlockBytes: 64},    // not multiple
		{SizeBytes: 3 * 64, Assoc: 2, BlockBytes: 64}, // blocks % assoc != 0
		{SizeBytes: 6 * 64, Assoc: 2, BlockBytes: 64}, // 3 sets, not pow2
		{SizeBytes: 0, Assoc: 1, BlockBytes: 64},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	c := mk(t, 8192, 0, 64)
	if c.Assoc() != 128 || c.Blocks() != 128 {
		t.Errorf("fully assoc: assoc=%d blocks=%d", c.Assoc(), c.Blocks())
	}
}

func TestBlockAddr(t *testing.T) {
	c := mk(t, 1024, 2, 64)
	if c.BlockAddr(130) != 128 || c.BlockAddr(128) != 128 || c.BlockAddr(127) != 64 {
		t.Error("BlockAddr wrong")
	}
	if c.NextBlock(130) != 192 {
		t.Errorf("NextBlock = %d", c.NextBlock(130))
	}
}

func TestHitMiss(t *testing.T) {
	c := mk(t, 1024, 2, 64)
	if _, hit := c.Access(0, false); hit {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0, 0, false)
	if _, hit := c.Access(63, false); !hit {
		t.Fatal("miss within inserted block")
	}
	if _, hit := c.Access(64, false); hit {
		t.Fatal("hit in neighbouring block")
	}
	if c.Accesses != 3 || c.Hits != 1 || c.Misses != 2 {
		t.Errorf("stats: %d/%d/%d", c.Accesses, c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, one set: blocks map to set 0 when size=2 blocks.
	c := mk(t, 128, 2, 64)
	c.Insert(0, 0, false)
	c.Insert(1024, 0, false)
	c.Access(0, false) // 0 now MRU
	v := c.Insert(2048, 0, false)
	if !v.Valid || v.Addr != 1024 {
		t.Fatalf("evicted %+v, want 1024", v)
	}
	if !c.Probe(0) || !c.Probe(2048) || c.Probe(1024) {
		t.Error("residency after eviction wrong")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := mk(t, 128, 2, 64)
	c.Insert(0, 0, false)
	c.Insert(1024, 0, false)
	c.Insert(0, FlagWrong, true) // refresh, no eviction
	v := c.Insert(2048, 0, false)
	if v.Addr != 1024 {
		t.Errorf("refresh did not update LRU: evicted %#x", v.Addr)
	}
	fl, _ := c.Flags(0)
	if fl&FlagWrong == 0 {
		t.Error("flags not ORed on refresh")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := mk(t, 64, 1, 64)
	c.Insert(0, 0, false)
	c.Access(0, true) // write makes it dirty
	v := c.Insert(4096, 0, false)
	if !v.Valid || !v.Dirty {
		t.Errorf("dirty victim = %+v", v)
	}
}

func TestAccessClearsFlags(t *testing.T) {
	c := mk(t, 64, 1, 64)
	c.Insert(0, FlagWrong|FlagPrefetch, false)
	fl, hit := c.Access(0, false)
	if !hit || fl != FlagWrong|FlagPrefetch {
		t.Fatalf("first access: flags=%#x hit=%v", fl, hit)
	}
	fl, _ = c.Access(0, false)
	if fl != 0 {
		t.Error("flags should clear after first demand hit")
	}
}

func TestVictimUntouched(t *testing.T) {
	c := mk(t, 64, 1, 64)
	// A wrong-fetched block never claimed by a demand access is evicted
	// with its speculative flags intact: Untouched reports it.
	c.Insert(0, FlagWrong, false)
	if v := c.Insert(4096, 0, false); !v.Untouched() {
		t.Errorf("unclaimed speculative victim = %+v", v)
	}
	// A demand access clears the flags; the eviction is of a claimed block.
	c.Insert(0, FlagPrefetch, false)
	c.Access(0, false)
	if v := c.Insert(4096, 0, false); v.Untouched() {
		t.Errorf("claimed victim reported untouched: %+v", v)
	}
	// An invalid victim is never "untouched".
	if (Victim{Flags: FlagWrong}).Untouched() {
		t.Error("invalid victim reported untouched")
	}
}

func TestTouchKeepsFlags(t *testing.T) {
	c := mk(t, 128, 2, 64)
	c.Insert(0, FlagWrong, false)
	if !c.Touch(0) {
		t.Fatal("Touch missed resident block")
	}
	fl, _ := c.Flags(0)
	if fl != FlagWrong {
		t.Error("Touch cleared flags")
	}
	if c.Touch(4096) {
		t.Error("Touch hit absent block")
	}
}

func TestRemoveAndInvalidate(t *testing.T) {
	c := mk(t, 128, 2, 64)
	c.Insert(0, FlagPrefetch, true)
	fl, dirty, ok := c.Remove(0)
	if !ok || fl != FlagPrefetch || !dirty {
		t.Fatalf("Remove = %#x %v %v", fl, dirty, ok)
	}
	if c.Probe(0) {
		t.Error("block still resident after Remove")
	}
	if c.Invalidate(0) {
		t.Error("Invalidate of absent block reported success")
	}
}

// TestGenerationCountsResidentSetChanges: inserting a new block, removing
// a resident one and resetting move the generation; hits, touches,
// re-inserts, dirtying and misses do not. Caches sharing a counter move it
// together.
func TestGenerationCountsResidentSetChanges(t *testing.T) {
	a, b := mk(t, 128, 2, 64), mk(t, 128, 2, 64)
	var g uint64
	a.ShareGeneration(&g)
	b.ShareGeneration(&g)
	steps := []struct {
		name string
		do   func()
		bump bool
	}{
		{"insert new", func() { a.Insert(0, 0, false) }, true},
		{"insert resident", func() { a.Insert(0, FlagWrong, true) }, false},
		{"access hit", func() { a.Access(0, true) }, false},
		{"access miss", func() { a.Access(64, false) }, false},
		{"touch", func() { a.Touch(0) }, false},
		{"set dirty", func() { a.SetDirty(0) }, false},
		{"remove absent", func() { a.Remove(64) }, false},
		{"insert into the other cache", func() { b.Insert(64, 0, false) }, true},
		{"remove resident", func() { a.Remove(0) }, true},
		{"invalidate resident", func() { b.Invalidate(64) }, true},
		{"reset", func() { a.Reset() }, true},
	}
	for _, s := range steps {
		before := g
		s.do()
		if moved := g != before; moved != s.bump {
			t.Errorf("%s: generation moved = %v, want %v", s.name, moved, s.bump)
		}
	}
}

func TestSetIndexingIsolation(t *testing.T) {
	// 4 sets, direct mapped: addresses with different set bits don't evict
	// each other.
	c := mk(t, 256, 1, 64)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*64, 0, false)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Probe(i * 64) {
			t.Errorf("block %d evicted by a different set", i)
		}
	}
	// Same set, different tag evicts.
	c.Insert(256, 0, false)
	if c.Probe(0) {
		t.Error("direct-mapped conflict not evicted")
	}
}

// TestLRUMatchesModel drives the cache with random accesses and compares
// against a simple reference LRU model.
func TestLRUMatchesModel(t *testing.T) {
	const (
		entries = 8
		block   = 64
	)
	c, err := NewFullyAssoc(entries, block)
	if err != nil {
		t.Fatal(err)
	}
	var model []uint64 // model[0] is LRU, last is MRU
	ref := func(addr uint64) {
		for i, a := range model {
			if a == addr {
				model = append(append(model[:i:i], model[i+1:]...), addr)
				return
			}
		}
		if len(model) == entries {
			model = model[1:]
		}
		model = append(model, addr)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 5000; n++ {
		addr := uint64(rng.Intn(24)) * block
		if _, hit := c.Access(addr, false); !hit {
			c.Insert(addr, 0, false)
		}
		ref(addr)
		// Residency must match exactly.
		for _, a := range model {
			if !c.Probe(a) {
				t.Fatalf("step %d: model says %#x resident, cache disagrees", n, a)
			}
		}
		if got := len(c.ResidentBlocks()); got != len(model) {
			t.Fatalf("step %d: resident count %d != model %d", n, got, len(model))
		}
	}
}

func TestResidentNeverExceedsCapacity(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := mustNew(t, Params{SizeBytes: 512, Assoc: 2, BlockBytes: 64})
		for _, a := range addrs {
			addr := uint64(a)
			if _, hit := c.Access(addr, false); !hit {
				c.Insert(addr, 0, false)
			}
			if len(c.ResidentBlocks()) > c.Blocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertedBlockAlwaysResident(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := mustNew(t, Params{SizeBytes: 1024, Assoc: 4, BlockBytes: 32})
		for _, a := range addrs {
			addr := uint64(a)
			c.Insert(addr, 0, false)
			if !c.Probe(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	c := mk(t, 128, 2, 64)
	c.Insert(0, 0, false)
	c.Access(0, false)
	c.Reset()
	if c.Probe(0) || c.Accesses != 0 || c.Hits != 0 {
		t.Error("Reset incomplete")
	}
}

func TestMSHRMerge(t *testing.T) {
	f := NewMSHRFile(2)
	alloc, ok := f.Add(0x100, 1)
	if !alloc || !ok {
		t.Fatal("first add should allocate")
	}
	alloc, ok = f.Add(0x100, 2)
	if alloc || !ok {
		t.Fatal("second add should merge")
	}
	if f.Outstanding() != 1 || f.Merges != 1 {
		t.Errorf("outstanding=%d merges=%d", f.Outstanding(), f.Merges)
	}
	waiters := f.Complete(0x100)
	if len(waiters) != 2 || waiters[0] != 1 || waiters[1] != 2 {
		t.Errorf("waiters = %v", waiters)
	}
	if f.Outstanding() != 0 {
		t.Error("entry not freed")
	}
}

func TestMSHRFull(t *testing.T) {
	f := NewMSHRFile(1)
	f.Add(0x100, 1)
	if _, ok := f.Add(0x200, 2); ok {
		t.Fatal("full file accepted new block")
	}
	if f.FullStalls != 1 {
		t.Error("full stall not counted")
	}
	// Merging into the existing block still works when full.
	if _, ok := f.Add(0x100, 3); !ok {
		t.Error("merge refused while full")
	}
	f.Complete(0x100)
	if _, ok := f.Add(0x200, 2); !ok {
		t.Error("add refused after free")
	}
}

func TestMSHRCompleteAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Complete on absent block did not panic")
		}
	}()
	NewMSHRFile(4).Complete(0x1)
}

func TestMSHRWaiterOrderProperty(t *testing.T) {
	f := func(tokens []int64) bool {
		file := NewMSHRFile(4)
		for _, tok := range tokens {
			file.Add(0x40, tok)
		}
		if len(tokens) == 0 {
			return true
		}
		got := file.Complete(0x40)
		if len(got) != len(tokens) {
			return false
		}
		for i := range got {
			if got[i] != tokens[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mustNew builds a cache from known-valid parameters, failing the test on
// a constructor error (the panicking MustNew was removed when config
// validation moved to returned errors).
func mustNew(t *testing.T, p Params) *Cache {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
