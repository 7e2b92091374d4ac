package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// warmSequentialStorePerStore is the per-store peer refresh that
// WarmSequentialStore's record-then-flush replaced: the storing TU warms
// its caches and every other TU's L1 copy is marked dirty at once. It is
// the reference the deferred refresh must reproduce.
func warmSequentialStorePerStore(h *Hierarchy, srcTU int, addr uint64) {
	for tu := range h.dunits {
		d := &h.dunits[tu]
		if tu == srcTU {
			d.WarmStore(addr)
		} else {
			d.l1.SetDirty(d.l1.BlockAddr(addr))
		}
	}
}

// TestDeferredPeerRefreshMatchesPerStore replays identical random warming
// streams through two hierarchies, one refreshing the peers on every
// sequential store and one recording the stores and flushing at the end of
// each fast-forward leg. Every L1D, side buffer and the L2 must end in the
// same state: tags, dirty bits, flags, LRU stamps and statistics. Every
// leg stores from a different TU than the one before, and the longest leg
// stores to more distinct blocks than the pending set holds, so the early
// flush runs too.
func TestDeferredPeerRefreshMatchesPerStore(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*Config)
	}{
		{"direct", nil},
		{"4way-wec", func(c *Config) { c.L1DAssoc = 4; c.Side = SideWEC }},
		{"2way-vc", func(c *Config) { c.L1DAssoc = 2; c.Side = SideVC }},
	}
	for _, nTU := range []int{2, 8, 32} {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("%dtu/%s", nTU, shape.name), func(t *testing.T) {
				ref, got := newH(t, nTU, shape.mut), newH(t, nTU, shape.mut)
				rng := rand.New(rand.NewSource(int64(nTU)))
				// 64 KB of data: eight times an 8 KB L1, so the stores
				// mix peer hits and misses.
				addr := func() uint64 { return uint64(rng.Intn(64<<10)) &^ 7 }

				// Pre-populate every L1 (and, through its victims, every
				// side buffer) with clean and dirty lines.
				for tu := 0; tu < nTU; tu++ {
					for i := 0; i < 400; i++ {
						a, store := addr(), rng.Intn(4) == 0
						for _, h := range []*Hierarchy{ref, got} {
							if store {
								h.dunits[tu].WarmStore(a)
							} else {
								h.dunits[tu].WarmLoad(a)
							}
						}
					}
				}
				sameState(t, "after pre-population", ref, got)

				legs := []int{50, 3000, 1, 700, 9000, 200}
				src := 0
				for leg, n := range legs {
					src = (src + 1 + rng.Intn(nTU-1)) % nTU
					span := 64 << 10
					if n > 5000 {
						span = 1 << 20 // past the pending set's capacity
					}
					for i := 0; i < n; i++ {
						a := uint64(rng.Intn(span)) &^ 7
						switch rng.Intn(3) {
						case 0:
							ref.dunits[src].WarmLoad(a)
							got.dunits[src].WarmLoad(a)
						default:
							warmSequentialStorePerStore(ref, src, a)
							got.WarmSequentialStore(src, a)
						}
					}
					got.FlushWarmStores()
					sameState(t, fmt.Sprintf("after leg %d (src TU %d)", leg, src), ref, got)
				}
			})
		}
	}
}

// TestWarmSequentialStoreFromNewTUNeedsFlush pins the guard on the flush
// contract: a store from a different TU while refreshes are pending
// panics, because the pending set cannot tell whose peers they belong to
// (and the new TU's own loads may already have moved its L1).
func TestWarmSequentialStoreFromNewTUNeedsFlush(t *testing.T) {
	h := newH(t, 2, nil)
	h.WarmSequentialStore(0, 0x100)
	h.FlushWarmStores()
	h.WarmSequentialStore(1, 0x100) // nothing pending: a new leg may start
	defer func() {
		if recover() == nil {
			t.Fatal("a store from TU 0 with TU 1's refreshes pending did not panic")
		}
	}()
	h.WarmSequentialStore(0, 0x200)
}

// sameState fails the test unless every data-side tag array of got equals
// ref's field for field.
func sameState(t *testing.T, when string, ref, got *Hierarchy) {
	t.Helper()
	same := func(what string, a, b *cache.Cache) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %s differs: %d resident vs %d in the per-store reference",
				when, what, len(b.ResidentBlocks()), len(a.ResidentBlocks()))
		}
	}
	for tu := range ref.dunits {
		same(fmt.Sprintf("TU %d L1D", tu), ref.dunits[tu].l1, got.dunits[tu].l1)
		if ref.dunits[tu].side != nil {
			same(fmt.Sprintf("TU %d side buffer", tu), ref.dunits[tu].side, got.dunits[tu].side)
		}
	}
	same("L2", ref.l2, got.l2)
}
