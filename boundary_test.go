package repro

import (
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// linked lists the packages whose import graphs must stay free of package
// net: every package the benchmark imports, plus the benchmark itself. A
// program that embeds the simulator links none of the network stack (and,
// through net, no cgo runtime), so it stays a static binary with a smaller
// resident set. The HTTP introspection server lives in
// internal/telemetry/serve, which only the CLIs import.
var linked = []string{
	"repro/benchmark",
	"repro/internal/asm", "repro/internal/bpred", "repro/internal/config",
	"repro/internal/core", "repro/internal/harness", "repro/internal/interp",
	"repro/internal/isa", "repro/internal/mem", "repro/internal/memimg",
	"repro/internal/runstore", "repro/internal/sample", "repro/internal/sta",
	"repro/internal/workload",
}

// srcDir maps an import path to its source directory: module packages
// under the repository root, standard packages (and the standard
// library's vendored ones) under GOROOT. No go command runs.
func srcDir(path string) string {
	if rest, ok := strings.CutPrefix(path, "repro/"); ok {
		return rest
	}
	dir := filepath.Join(build.Default.GOROOT, "src", path)
	if _, err := os.Stat(dir); err != nil {
		return filepath.Join(build.Default.GOROOT, "src", "vendor", path)
	}
	return dir
}

// TestSimulationLinksNoNetwork walks the import graph of every linked
// package from source and fails, naming the import chain, if package net
// is reachable.
func TestSimulationLinksNoNetwork(t *testing.T) {
	from := map[string]string{} // package -> the package that first imported it
	queue := slices.Clone(linked)
	for _, p := range queue {
		from[p] = ""
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(srcDir(p), 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := from[imp]; seen || imp == "C" {
				continue
			}
			from[imp] = p
			if imp == "net" {
				chain := []string{imp}
				for q := p; q != ""; q = from[q] {
					chain = append(chain, q)
				}
				slices.Reverse(chain)
				t.Fatalf("package net is reachable: %s", strings.Join(chain, " -> "))
			}
			queue = append(queue, imp)
		}
	}
}

// TestOnlyServeImportsNet: under internal/, only the telemetry server
// imports the network packages, so a new importer cannot slip one back
// into the simulator's graph unnoticed.
func TestOnlyServeImportsNet(t *testing.T) {
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || dir == filepath.Join("internal", "telemetry", "serve") {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		for _, imp := range pkg.Imports {
			if imp == "net" || imp == "net/http" || strings.HasPrefix(imp, "net/http/") {
				t.Errorf("%s imports %s; only internal/telemetry/serve may", dir, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
