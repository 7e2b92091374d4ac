package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memimg"
)

// orderDMem wraps testDMem and records the address order in which stores
// reach memory at commit.
type orderDMem struct {
	*testDMem
	commits []uint64
}

func (d *orderDMem) CommitStore(cycle uint64, addr uint64, val int64, target bool, pc int) {
	d.commits = append(d.commits, addr)
	d.testDMem.CommitStore(cycle, addr, val, target, pc)
}

// TestLSQCommitOrderUnderMispredicts is the regression test for the LSQ
// ring buffer: stores must leave the queue in program order — oldest
// first — even while data-dependent mispredicts force partial squashes
// (recover truncates the ring to a prefix) and the queue index wraps its
// backing array many times over. The original slice implementation
// spliced the head off with an O(n) copy; the ring must preserve the
// exact same age order.
func TestLSQCommitOrderUnderMispredicts(t *testing.T) {
	const n = 96 // several times the LSQ capacity, forcing wrap-around
	b := asm.New()
	arr := b.Alloc("arr", 8*n, 0)
	out := b.Alloc("out", 8*n, 0)
	// arr[k] is a pseudo-random bit so the branch below is unpredictable.
	v := uint32(0x9e3779b9)
	for k := 0; k < n; k++ {
		v ^= v << 13
		v ^= v >> 17
		v ^= v << 5
		b.InitWord(arr+uint64(8*k), int64(v&1))
	}
	b.Li(1, 0)          // k
	b.Li(2, n)          // limit
	b.Li(3, int64(arr)) // arr base
	b.Li(4, int64(out)) // out base
	b.Label("loop")
	b.OpI(isa.SLLI, 5, 1, 3)
	b.Op3(isa.ADD, 6, 5, 3)
	b.Ld(7, 0, 6) // arr[k]: 0 or 1, load-dependent branch => mispredicts
	b.Op3(isa.ADD, 8, 5, 4)
	b.Br(isa.BEQ, 7, 0, "even")
	b.OpI(isa.ADDI, 9, 7, 5)
	b.Jmp("store")
	b.Label("even")
	b.OpI(isa.ADDI, 9, 7, 11)
	b.Label("store")
	b.St(9, 0, 8) // out[k]
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	h, err := mem.NewHierarchy(1, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := memimg.New()
	asm.LoadData(p, img)
	d := &orderDMem{testDMem: newTestDMem(img)}
	e := &testEnv{}
	c, err := New(DefaultConfig(), p, h.IUnit(0), d, e)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{c: c, h: h, d: d.testDMem, e: e, prog: p}
	r.warmI(t)

	c.StartMain()
	var cyc uint64
	for ; cyc < 200_000; cyc++ {
		h.BeginCycle(cyc)
		d.begin()
		c.Step(cyc)
		h.Tick(cyc)
		if e.halted {
			break
		}
	}
	if !e.halted {
		t.Fatal("program did not halt")
	}

	// Every committed store must be out[k] for consecutive k: program order,
	// no skips, no duplicates from squashed wrong-path stores.
	if len(d.commits) != n {
		t.Fatalf("committed %d stores, want %d", len(d.commits), n)
	}
	for k, addr := range d.commits {
		if want := out + uint64(8*k); addr != want {
			t.Fatalf("commit %d went to %#x, want %#x (program order violated)", k, addr, want)
		}
	}
	if c.Stats.Mispredicts == 0 {
		t.Fatal("no mispredicts: the test did not exercise recovery")
	}

	// And the architectural outcome still matches the interpreter.
	ref, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := img.Checksum(), ref.MemCheck; got != want {
		t.Errorf("memory checksum %#x, interp says %#x", got, want)
	}
}

// tryLog wraps testDMem and records the cycle of every TryLoad, by address.
type tryLog struct {
	*testDMem
	tries map[uint64][]uint64
}

func (d *tryLog) TryLoad(cycle uint64, addr uint64, wrong bool, pc int) LoadResult {
	d.tries[addr] = append(d.tries[addr], cycle)
	return d.testDMem.TryLoad(cycle, addr, wrong, pc)
}

// parkRig builds a core over a tryLog memory with a warm I-cache.
func parkRig(t *testing.T, p *isa.Program) (*rig, *tryLog) {
	t.Helper()
	r := buildRig(t, DefaultConfig(), p)
	d := &tryLog{testDMem: r.d, tries: map[uint64][]uint64{}}
	c, err := New(DefaultConfig(), p, r.h.IUnit(0), d, r.e)
	if err != nil {
		t.Fatal(err)
	}
	r.c = c
	r.warmI(t)
	return r, d
}

// pcsOf returns the PCs of every instruction with the given opcode, in
// program order.
func pcsOf(p *isa.Program, op isa.Op) []int {
	var pcs []int
	for pc, in := range p.Insts {
		if in.Op == op {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// slotOf returns the ROB slot holding the live instruction at pc, or -1.
func (c *Core) slotOf(pc int) int {
	for p := 0; p < c.robCount; p++ {
		if idx := c.slotAt(p); int(c.rob[idx].pc) == pc {
			return idx
		}
	}
	return -1
}

// stepPark drives the rig to HALT, calling each after every cycle.
func stepPark(t *testing.T, r *rig, each func(cyc uint64)) {
	t.Helper()
	r.c.StartMain()
	for cyc := uint64(0); cyc < 10_000; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
		each(cyc)
		if r.e.halted {
			return
		}
	}
	t.Fatal("program did not halt")
}

// parkedOn reports whether the live load at ldPC heads the parked list of
// the live store at stPC.
func (c *Core) parkedOn(stPC, ldPC int) bool {
	st, ld := c.slotOf(stPC), c.slotOf(ldPC)
	return st >= 0 && ld >= 0 && int(c.rob[st].parkHead) == ld
}

// issuedAt records the first cycle after which the store at pc has a known
// address, i.e. the cycle it issued.
func issuedAt(c *Core, pc int, cyc uint64, at *uint64) {
	if *at != 0 {
		return
	}
	if s := c.slotOf(pc); s >= 0 && c.rob[s].flags&fAddrKnown != 0 {
		*at = cyc
	}
}

// TestParkedLoadIssuesWithStore: a load behind a store whose data waits on
// a DIV parks on that store, stops pinning the core's wake bound, and
// still reaches memory in the very cycle the store issues, as the
// retry-every-cycle pipeline did.
func TestParkedLoadIssuesWithStore(t *testing.T) {
	b := asm.New()
	buf := b.Alloc("buf", 64, 8)
	b.InitWord(buf+8, 42)
	b.Li(1, 1000)
	b.Li(2, 7)
	b.Li(3, int64(buf))
	b.Op3(isa.DIV, 4, 1, 2) // store data: ready only after the divide
	b.St(4, 0, 3)           // address unknown until the store issues
	b.Ld(5, 8, 3)           // younger, independent: parks on the store
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, d := parkRig(t, p)
	stPC, ldPC := pcsOf(p, isa.ST)[0], pcsOf(p, isa.LD)[0]
	var stAt uint64
	parked, slept := false, false
	stepPark(t, r, func(cyc uint64) {
		issuedAt(r.c, stPC, cyc, &stAt)
		if stAt != 0 {
			return
		}
		if r.c.parkedOn(stPC, ldPC) {
			parked = true
			if r.c.NextWake(cyc) > cyc+1 {
				slept = true
			}
		}
	})
	if !parked {
		t.Fatal("the load never parked on the unresolved store")
	}
	if !slept {
		t.Error("a parked load still pinned NextWake at cycle+1")
	}
	if got := d.tries[buf+8]; len(got) != 1 || got[0] != stAt {
		t.Errorf("load reached TryLoad at cycles %v, want once at the store's issue cycle %d", got, stAt)
	}
	checkAgainstInterp(t, r)
}

// TestParkedLoadReparksOnSecondStore: a load behind two unresolved stores
// parks on the older one, re-parks on the younger one when the older
// issues, and reaches memory in the cycle the younger store issues.
func TestParkedLoadReparksOnSecondStore(t *testing.T) {
	b := asm.New()
	buf := b.Alloc("buf", 64, 8)
	b.InitWord(buf+16, 42)
	b.Li(1, 1000)
	b.Li(2, 7)
	b.Li(3, int64(buf))
	b.Op3(isa.DIV, 4, 1, 2)
	b.Op3(isa.DIV, 6, 4, 2) // completes a divide latency later
	b.St(4, 0, 3)
	b.St(6, 8, 3)
	b.Ld(5, 16, 3)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, d := parkRig(t, p)
	st := pcsOf(p, isa.ST)
	ldPC := pcsOf(p, isa.LD)[0]
	var st1At, st2At uint64
	reparked := false
	stepPark(t, r, func(cyc uint64) {
		issuedAt(r.c, st[0], cyc, &st1At)
		issuedAt(r.c, st[1], cyc, &st2At)
		if st1At != 0 && st2At == 0 && r.c.parkedOn(st[1], ldPC) {
			reparked = true
		}
	})
	if st1At == 0 || st2At <= st1At {
		t.Fatalf("stores issued at %d and %d; the test needs the second later", st1At, st2At)
	}
	if !reparked {
		t.Error("the load did not re-park on the second store")
	}
	if got := d.tries[buf+16]; len(got) != 1 || got[0] != st2At {
		t.Errorf("load reached TryLoad at cycles %v, want once at the second store's issue cycle %d", got, st2At)
	}
	checkAgainstInterp(t, r)
}

// TestMispredictSquashesParkedStore: a mispredicted branch squashes a
// wrong-path store while a load is parked on it. The squashed load never
// reaches memory, the correct path reuses the slots with loads parked on a
// new store, and the architectural result matches the interpreter.
func TestMispredictSquashesParkedStore(t *testing.T) {
	b := asm.New()
	buf := b.Alloc("buf", 64, 8)
	b.InitWord(buf+8, 11)
	b.InitWord(buf+24, 13)
	b.Li(1, 1000)
	b.Li(2, 7)
	b.Li(3, int64(buf))
	b.Op3(isa.DIV, 4, 1, 2)
	b.Op3(isa.DIV, 6, 4, 2) // still dividing when the branch resolves
	// Not taken, but the weakly-taken predictor fetches "wrong" first.
	b.Br(isa.BEQ, 4, 0, "wrong")
	b.St(6, 16, 3)
	b.Ld(8, 16, 3) // forwards from the store above
	b.Ld(9, 24, 3)
	b.Halt()
	b.Label("wrong")
	b.St(6, 0, 3)
	b.Ld(7, 8, 3) // parks on the wrong-path store
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, d := parkRig(t, p)
	wrongSt := pcsOf(p, isa.ST)[1]
	parkedOnWrong := false
	stepPark(t, r, func(cyc uint64) {
		if s := r.c.slotOf(wrongSt); s >= 0 && r.c.rob[s].parkHead >= 0 {
			parkedOnWrong = true
		}
	})
	if !parkedOnWrong {
		t.Fatal("no load parked on the wrong-path store")
	}
	if r.c.Stats.Mispredicts != 1 {
		t.Fatalf("%d mispredicts, want 1", r.c.Stats.Mispredicts)
	}
	if got := d.tries[buf+8]; len(got) != 0 {
		t.Errorf("squashed parked load reached TryLoad at cycles %v", got)
	}
	if got := d.tries[buf+24]; len(got) != 1 {
		t.Errorf("correct-path load reached TryLoad %d times, want 1", len(got))
	}
	checkAgainstInterp(t, r)
}

// TestMispredictKeepsOlderParkedLoad: a mispredict resolving while an older
// load sits parked on an older store must leave both intact. Recovery
// returns the load to the ready set; it parks again and still reaches
// memory in the cycle the store issues.
func TestMispredictKeepsOlderParkedLoad(t *testing.T) {
	b := asm.New()
	buf := b.Alloc("buf", 64, 8)
	b.InitWord(buf+8, 11)
	b.Li(1, 1000)
	b.Li(2, 7)
	b.Li(3, int64(buf))
	b.Op3(isa.DIV, 4, 1, 2)
	b.St(4, 0, 3)
	b.Ld(5, 8, 3) // parks on the store and survives the squash
	// Resolves long before the divide: not taken, predicted taken.
	b.Br(isa.BEQ, 2, 0, "wrong")
	b.OpI(isa.ADDI, 6, 5, 1)
	b.Halt()
	b.Label("wrong")
	b.Ld(7, 16, 3)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, d := parkRig(t, p)
	stPC, ldPC := pcsOf(p, isa.ST)[0], pcsOf(p, isa.LD)[0]
	var stAt uint64
	squashed, parkedAtSquash := false, false
	stepPark(t, r, func(cyc uint64) {
		issuedAt(r.c, stPC, cyc, &stAt)
		if stAt == 0 && !squashed && r.c.Stats.SquashedInsts > 0 {
			// Recovery ran this cycle; the load must be parked again.
			squashed = true
			parkedAtSquash = r.c.parkedOn(stPC, ldPC)
		}
	})
	if r.c.Stats.Mispredicts != 1 {
		t.Fatalf("%d mispredicts, want 1", r.c.Stats.Mispredicts)
	}
	if !parkedAtSquash {
		t.Error("the surviving load was not parked on the store after recovery")
	}
	if got := d.tries[buf+8]; len(got) != 1 || got[0] != stAt {
		t.Errorf("load reached TryLoad at cycles %v, want once at the store's issue cycle %d", got, stAt)
	}
	checkAgainstInterp(t, r)
}
