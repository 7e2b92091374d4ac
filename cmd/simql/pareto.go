package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/runstore"
)

// cmdPareto prints each configuration's position in the
// speedup-vs-hardware-cost plane (weighted-average speedup over the
// baseline selection, against KB of speculation-visible SRAM) and marks
// the Pareto frontier — the paper's "what does the WEC buy per KB?"
// question, computed over whatever the archive holds.
func cmdPareto(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pareto", flag.ContinueOnError)
	root := fs.String("root", "runs", "archive root directory")
	base := fs.String("base", "config=orig", "baseline selector the speedups are measured against")
	format := fs.String("format", "table", "output format: table, csv, or json")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}

	ms, err := openAll(*root)
	if err != nil {
		return fail(stderr, err)
	}
	baseline, err := selectFrom(ms, *base)
	if err != nil {
		return fail(stderr, fmt.Errorf("baseline: %w", err))
	}
	candidates := ms
	if expr := strings.Join(fs.Args(), ","); strings.TrimSpace(expr) != "" {
		if candidates, err = selectFrom(ms, expr); err != nil {
			return fail(stderr, err)
		}
	}
	pts, err := runstore.Pareto(candidates, baseline)
	if err != nil {
		return fail(stderr, err)
	}
	if len(pts) == 0 {
		return fail(stderr, fmt.Errorf("simql pareto: no candidate shares a (bench, scale) cell with the baseline %q", *base))
	}
	switch *format {
	case "json":
		if err := writeJSON(stdout, pts); err != nil {
			return fail(stderr, err)
		}
	case "csv":
		fmt.Fprintln(stdout, "cfg_hash,config,tus,sidekind,side,cost_kb,speedup,benches,frontier")
		for _, p := range pts {
			fmt.Fprintf(stdout, "%s,%s,%d,%s,%d,%.1f,%.4f,%d,%v\n",
				p.CfgHash, p.Config, p.TUs, p.SideKind, p.SideEnts, p.CostKB, p.Speedup, p.Benches, p.Frontier)
		}
	default:
		fmt.Fprintf(stdout, "pareto: speedup vs %q, cost = TUs*(L1 + side) + L2 in KB\n\n", *base)
		fmt.Fprintf(stdout, "%-10s %-11s %3s %-4s %4s %9s %8s %7s  %s\n",
			"CFGHASH", "CONFIG", "TUS", "SIDE", "ENTS", "COST(KB)", "SPEEDUP", "BENCHES", "")
		for _, p := range pts {
			mark := ""
			if p.Frontier {
				mark = "* frontier"
			}
			fmt.Fprintf(stdout, "%-10s %-11s %3d %-4s %4d %9.1f %8.3f %7d  %s\n",
				p.CfgHash[:10], p.Config, p.TUs, p.SideKind, p.SideEnts, p.CostKB, p.Speedup, p.Benches, mark)
		}
	}
	return 0
}
