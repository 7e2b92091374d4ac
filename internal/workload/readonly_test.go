package workload

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/sta"
)

// runHeadline runs p on the 8-TU wth-wp-wec machine and returns its
// memory checksum.
func runHeadline(p *isa.Program) (uint64, error) {
	cfg := config.Main(8)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		return 0, err
	}
	m, err := sta.New(cfg, p)
	if err != nil {
		return 0, err
	}
	r, err := m.Run()
	if err != nil {
		return 0, err
	}
	return r.MemCheck, nil
}

// TestRunsLeaveProgramDataUnchanged runs every kernel's built program on
// the headline machine and through the interpreter, then checks that the
// program still hashes to its pinned digest: runs map the program's data
// pages in place, and each must copy a page before writing it.
func TestRunsLeaveProgramDataUnchanged(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Short, func(t *testing.T) {
			p, err := w.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := runHeadline(p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := interp.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if sum != ref.MemCheck {
				t.Errorf("machine checksum %#x, interpreter %#x", sum, ref.MemCheck)
			}
			if got := programDigest(p); got != pinnedDigests[w.Short] {
				t.Errorf("program digest %s after the runs, pinned %s", got, pinnedDigests[w.Short])
			}
		})
	}
}

// TestConcurrentMachinesShareProgram runs two machines over one program at
// once. Both read its data pages and copy the ones they write, so under the
// race detector the runs must not race, and both must leave the program
// as built. equake writes the most of its pages of the six kernels.
func TestConcurrentMachinesShareProgram(t *testing.T) {
	p, err := Equake().Build(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var sums [2]uint64
	var errs [2]error
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = runHeadline(p)
		}()
	}
	wg.Wait()
	for i, sum := range sums {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		if sum != ref.MemCheck {
			t.Errorf("machine %d checksum %#x, interpreter %#x", i, sum, ref.MemCheck)
		}
	}
	if got := programDigest(p); got != pinnedDigests["equake"] {
		t.Errorf("program digest %s after the runs, pinned %s", got, pinnedDigests["equake"])
	}
}
