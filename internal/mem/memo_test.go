package mem

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
)

// refIUnit is the fetch port without the fetch memo: every fetch is an
// L1I Access.
type refIUnit struct {
	l1i             *cache.Cache
	pending         bool
	pendingBlock    uint64
	fetches, misses uint64
}

func (r *refIUnit) fetchReady(pc int) bool {
	if r.pending {
		return false
	}
	r.fetches++
	addr := instAddr(pc)
	if _, hit := r.l1i.Access(addr, false); hit {
		return true
	}
	r.misses++
	r.pending = true
	r.pendingBlock = r.l1i.BlockAddr(addr)
	return false
}

func (r *refIUnit) fill(block uint64) {
	r.l1i.Insert(block, 0, false)
	if r.pending && block == r.pendingBlock {
		r.pending = false
	}
}

func (r *refIUnit) warmFetch(pc int) {
	block := r.l1i.BlockAddr(instAddr(pc))
	if !r.l1i.Touch(block) {
		r.l1i.Insert(block, 0, false)
	}
}

// TestFetchMemoMatchesPerCallAccess drives an IUnit and a per-call Access
// reference through the same random fetches, fills (of the pending block
// and of stray blocks), WarmFetch calls and resets, on a four-set two-way
// L1I small enough that fills evict the remembered block. After every step
// both must answer alike and hold the same lines in the same ways: the
// same victim choices, hence the same LRU order where it matters.
func TestFetchMemoMatchesPerCallAccess(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		h := newH(t, 1, func(c *Config) { c.L1ISize, c.L1IAssoc = 512, 2 })
		iu := h.IUnit(0)
		l1i, err := cache.New(cache.Params{SizeBytes: 512, Assoc: 2, BlockBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		ref := &refIUnit{l1i: l1i}
		rng := rand.New(rand.NewSource(seed))
		pc := 0
		for step := 0; step < 4000; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 70:
				op = "fetch"
				// Mostly straight-line code, with jumps across a 48-block
				// footprint that maps onto every set.
				if rng.Intn(8) == 0 {
					pc = rng.Intn(48 * 4)
				} else {
					pc++
				}
				got, want := iu.FetchReady(0, pc), ref.fetchReady(pc)
				if got != want {
					t.Fatalf("seed %d step %d: FetchReady(%d) = %v, reference %v", seed, step, pc, got, want)
				}
			case r < 85:
				op = "fill pending"
				if ref.pending {
					iu.fill(ref.pendingBlock)
					ref.fill(ref.pendingBlock)
				}
			case r < 92:
				op = "fill stray"
				b := instAddr(rng.Intn(48 * 4))
				b = l1i.BlockAddr(b)
				iu.fill(b)
				ref.fill(b)
			case r < 99:
				op = "warm fetch"
				p := rng.Intn(48 * 4)
				iu.WarmFetch(p)
				ref.warmFetch(p)
			default:
				op = "reset"
				iu.Reset()
				l1i.Reset()
				*ref = refIUnit{l1i: l1i}
			}
			if iu.Fetches != ref.fetches || iu.Misses != ref.misses || iu.pending != ref.pending {
				t.Fatalf("seed %d step %d (%s): Fetches/Misses/pending %d/%d/%v, reference %d/%d/%v",
					seed, step, op, iu.Fetches, iu.Misses, iu.pending, ref.fetches, ref.misses, ref.pending)
			}
			if got, want := iu.l1i.ResidentBlocks(), l1i.ResidentBlocks(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): L1I lines %x, reference %x", seed, step, op, got, want)
			}
		}
	}
}

// fullSweep is SequentialUpdate without its memo: every store probes every
// peer. It is the reference the replay is held to.
func fullSweep(h *Hierarchy, srcTU int, addr uint64) {
	for tu := range h.dunits {
		if tu != srcTU && h.dunits[tu].applyUpdate(addr) {
			h.UpdateBus++
		}
	}
}

// checkSequentialReplay decodes ops into a sequence of memory events and
// applies it to two identical hierarchies of nTU thread units, one whose
// sequential stores go through SequentialUpdate and one whose go through
// fullSweep. After every event the two must agree on UpdateBus, on every
// TU's UpdateRecv and on the residency and dirty bit of every block the
// events can name, in every L1 and side buffer. Events are sequential
// stores (often repeating the last TU and block, so replays happen),
// demand and wrong-execution loads (their fills land in L1 or the side
// buffer and swap WEC/VC blocks into L1), hierarchy ticks that deliver
// fills, direct invalidations of a peer's L1 or side-buffer line, and
// resets.
func checkSequentialReplay(t testing.TB, nTU int, side SideBufKind, ops []byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.L1DSize = 1024 // 16 one-way sets: the 64-block footprint conflicts
	cfg.Side = side
	cfg.SideEntries = 4
	cfg.WrongFillsToL1 = side == SideVC
	memo, err := NewHierarchy(nTU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewHierarchy(nTU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 64
	var cyc uint64
	src, block := 0, uint64(0)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	for step := 0; len(ops) > 0; step++ {
		op := next()
		tu, blk := next()%nTU, uint64(next()%blocks)
		var what string
		for _, h := range []*Hierarchy{memo, ref} {
			switch op % 16 {
			case 0, 1, 2, 3, 4, 5:
				what = "sequential store"
				if op%16 >= 2 {
					tu, blk = src, block // repeat the last store's TU and block
				}
				addr := blk*64 + uint64(op&0x30)
				h.BeginCycle(cyc)
				h.DUnit(tu).Access(cyc, addr, Store, SrcDemand, -1).Release()
				if h == memo {
					h.SequentialUpdate(tu, addr)
				} else {
					fullSweep(h, tu, addr)
				}
			case 6, 7, 8:
				what = "demand load"
				h.BeginCycle(cyc)
				if d := h.DUnit(tu); d.CanAccept() {
					d.Access(cyc, blk*64, Load, SrcDemand, -1).Release()
				}
			case 9, 10:
				what = "wrong load"
				h.BeginCycle(cyc)
				if d := h.DUnit(tu); d.CanAccept() {
					d.Access(cyc, blk*64, Load, SrcWrongPath, -1).Release()
				}
			case 11, 12, 13:
				what = "ticks"
				for i := 0; i < 1+(op>>4)*16; i++ {
					h.BeginCycle(cyc + uint64(i))
					h.Tick(cyc + uint64(i))
				}
			case 14:
				what = "invalidate"
				if op&0x20 != 0 {
					blk = block // a peer's copy of the last stored block
				}
				d := h.DUnit(tu)
				if d.side != nil && op&0x10 != 0 {
					d.side.Remove(blk * 64)
				} else {
					d.l1.Invalidate(blk * 64)
				}
			case 15:
				what = "reset"
				if op>>4 == 0 {
					h.Reset()
				}
			}
		}
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			src, block = tu, blk
		case 11, 12, 13:
			cyc += uint64(1 + (op>>4)*16)
		}
		cyc++
		if memo.UpdateBus != ref.UpdateBus {
			t.Fatalf("step %d (%s): UpdateBus %d, full sweep %d", step, what, memo.UpdateBus, ref.UpdateBus)
		}
		for i := range memo.dunits {
			md, rd := &memo.dunits[i], &ref.dunits[i]
			if md.UpdateRecv != rd.UpdateRecv {
				t.Fatalf("step %d (%s): TU %d UpdateRecv %d, full sweep %d", step, what, i, md.UpdateRecv, rd.UpdateRecv)
			}
			for b := uint64(0); b < blocks; b++ {
				a := b * 64
				if md.l1.Probe(a) != rd.l1.Probe(a) || md.l1.Dirty(a) != rd.l1.Dirty(a) ||
					(md.side != nil && md.side.Probe(a) != rd.side.Probe(a)) {
					t.Fatalf("step %d (%s): TU %d block %#x differs from the full sweep's", step, what, i, a)
				}
			}
		}
	}
}

// TestSequentialUpdateReplayMatchesSweep holds the SequentialUpdate memo
// to the full sweep on random event streams over 2, 8 and 32 TUs, with a
// WEC (wrong fills and victims in the side buffer, swaps on side hits) and
// with a victim cache plus polluting wrong fills.
func TestSequentialUpdateReplayMatchesSweep(t *testing.T) {
	for _, nTU := range []int{2, 8, 32} {
		for _, side := range []SideBufKind{SideWEC, SideVC} {
			for seed := int64(1); seed <= 4; seed++ {
				ops := make([]byte, 3*3000)
				rand.New(rand.NewSource(seed)).Read(ops)
				checkSequentialReplay(t, nTU, side, ops)
			}
		}
	}
}

// FuzzSequentialUpdateReplay is the same property over fuzzed event
// streams, TU counts and side buffers.
func FuzzSequentialUpdateReplay(f *testing.F) {
	f.Add(uint8(2), false, []byte{0, 1, 1, 6, 0, 1, 11, 0, 0, 2, 0, 0, 14, 1, 1, 2, 0, 0})
	f.Add(uint8(8), true, []byte{9, 3, 7, 13, 0, 0, 6, 5, 7, 0, 0, 7, 2, 0, 0, 31, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, tus uint8, vc bool, ops []byte) {
		side := SideWEC
		if vc {
			side = SideVC
		}
		checkSequentialReplay(t, 2+int(tus)%31, side, ops)
	})
}
