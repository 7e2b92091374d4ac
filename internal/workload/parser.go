package workload

import (
	"slices"

	"repro/internal/asm"
	"repro/internal/isa"
)

type parserParams struct {
	DictSize int // sorted dictionary entries
	Window   int
	Windows  int
	Levels   int // binary-search depth (fixed-trip loop)
	SeqIters int
	DictStep int // query-locality drift per position
	QSpread  int // query-locality window width
}

func parserDefaults(scale int) parserParams {
	return parserParams{
		DictSize: 32768, // 256 KB sorted dictionary
		Window:   16,
		Windows:  24 * scale,
		Levels:   15,
		SeqIters: 1100,
		DictStep: 4,
		QSpread:  16,
	}
}

// Parser returns the 197.parser stand-in: dictionary lookups via binary
// search. Every level's direction depends on loaded data, so the branch
// predictor mispredicts heavily and wrong-path execution fetches the
// sibling subtree — blocks that later queries frequently need.
func Parser() *Workload {
	return &Workload{
		Name:  "197.parser",
		Short: "parser",
		Suite: "SPEC2000/INT",
		Build: func(scale int) (*isa.Program, error) { return parserBuild(parserDefaults(scale)) },
	}
}

func parserData(p parserParams) (dict []int64, queries []int64) {
	r := newRNG(197)
	dict = make([]int64, p.DictSize)
	for i := range dict {
		dict[i] = int64(r.next() % (1 << 40))
	}
	slices.Sort(dict)
	// Queries cluster around a center that drifts with position (words of a
	// sentence hit neighbouring dictionary regions), so adjacent lookups
	// walk overlapping search paths — prefetchable by wrong execution but
	// not by next-line prefetching.
	nq := p.Windows*p.Window + Slack
	queries = make([]int64, nq)
	for i := range queries {
		idx := (i*p.DictStep + r.intn(p.QSpread)) % p.DictSize
		if r.intn(4) == 0 {
			queries[i] = dict[idx] // present word
		} else {
			queries[i] = dict[idx] + 1 // near miss
		}
	}
	return dict, queries
}

// ParserReference computes the expected out[] array (the final lo bound of
// each query's binary search) exactly as the assembly does.
func ParserReference(scale int) []int64 {
	p := parserDefaults(scale)
	dict, queries := parserData(p)
	n := p.Windows * p.Window
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		q := queries[i]
		lo, hi := int64(0), int64(p.DictSize)
		for l := 0; l < p.Levels; l++ {
			mid := (lo + hi) >> 1
			if dict[mid] <= q {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}

func parserBuild(p parserParams) (*isa.Program, error) {
	b := asm.New()
	dictArr := b.Alloc("dict", 8*p.DictSize, 64)
	nq := p.Windows*p.Window + Slack
	qArr := b.Alloc("queries", 8*nq, 64)
	outArr := b.Alloc("out", 8*nq, 64)
	scratch := b.Alloc("scratch", 8*128, 64)
	result := b.Alloc("result", 8, 0)

	dict, queries := parserData(p)
	for i, v := range dict {
		b.InitWord(dictArr+uint64(8*i), v)
	}
	for i, v := range queries {
		b.InitWord(qArr+uint64(8*i), v)
	}

	b.Li(4, int64(dictArr))
	b.Li(5, int64(qArr))
	b.Li(6, int64(outArr))
	b.Li(7, int64(p.Levels))
	b.Li(8, int64(p.DictSize))
	b.Li(21, 0)
	b.Li(22, int64(p.Windows))
	b.Li(23, int64(p.Window))

	b.Label("par_outer")
	emitSeqWork(b, "par_seq", scratch, p.SeqIters)
	b.Op3(isa.MUL, regI, 21, 23)
	b.Op3(isa.ADD, regEnd, regI, 23)
	emitRegion(b, regionSpec{
		name: "par",
		mask: []int{1, 2, 4, 5, 6, 7, 8, 21, 22, 23},
		body: func() {
			// q = queries[i]
			b.OpI(isa.SLLI, 10, 9, 3)
			b.Op3(isa.ADD, 10, 10, 5)
			b.Ld(11, 0, 10)          // q
			b.Li(12, 0)              // lo
			b.Op3(isa.ADD, 13, 8, 0) // hi = DictSize
			b.Li(14, 0)              // level
			b.Label("par_level")
			b.Op3(isa.ADD, 15, 12, 13)
			b.OpI(isa.SRAI, 15, 15, 1) // mid
			b.OpI(isa.SLLI, 16, 15, 3)
			b.Op3(isa.ADD, 16, 16, 4)
			b.Ld(17, 0, 16)                 // dict[mid] — the data-dependent branch source
			b.Br(isa.BLT, 11, 17, "par_hi") // q < dict[mid] -> hi = mid
			b.OpI(isa.ADDI, 12, 15, 1)      // dict[mid] <= q -> lo = mid+1
			b.Jmp("par_next")
			b.Label("par_hi")
			b.Op3(isa.ADD, 13, 15, 0)
			b.Label("par_next")
			b.OpI(isa.ADDI, 14, 14, 1)
			b.Br(isa.BLT, 14, 7, "par_level")
			// out[i] = lo
			b.OpI(isa.SLLI, 18, 9, 3)
			b.Op3(isa.ADD, 18, 18, 6)
			b.St(12, 0, 18)
		},
	})
	b.OpI(isa.ADDI, 21, 21, 1)
	b.Br(isa.BLT, 21, 22, "par_outer")

	emitReduce(b, "par_red", outArr, p.Windows*p.Window, 1, result)
	b.Halt()
	return b.Build()
}
