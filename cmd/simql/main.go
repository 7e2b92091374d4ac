// Command simql queries the content-addressed run archive that the
// experiments harness and stasim write with -archive: list and grep
// manifests, statistically compare two configurations, compute the
// speedup-vs-hardware-cost Pareto frontier, and render a self-contained
// HTML dashboard.
//
// Usage:
//
//	simql list  [-root runs] [selector]
//	simql show  [-root runs] <selector>
//	simql grep  [-root runs] <regexp>
//	simql diff  [-root runs] [-tol 0.01] <selector A> <selector B>
//	simql pareto [-root runs] -base <selector> [candidate selector]
//	simql report [-root runs] [-o report.html] [-base <selector>]
//
// A selector is a comma-separated list of k=v filters over the manifest
// fields (config=wth-wp-wec,tus=8,side=16 — see `simql help selectors`).
// `diff` pairs the two selections per (benchmark, scale), reports mean
// relative deltas with bootstrap confidence intervals over the benchmark
// set, and exits nonzero when a metric shows a significant regression.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"repro/internal/runstore"
)

const selectorHelp = `selector syntax: comma-separated k=v filters, all must match.

  keys:
    bench=mcf          benchmark short name
    config=wth-wp-wec  paper configuration name (or "custom")
    tus=8              thread units
    scale=1            workload scale factor
    side=16            side-buffer entries (WEC/VC/PB)
    sidekind=wec       side-buffer kind (none, vc, wec, pb)
    l1=8  assoc=1      L1D geometry (KB, ways)
    l2=64 memlat=100   L2 size (KB), DRAM latency
    hash=c3f2          CfgHash prefix (the content address)
    run=20260809-...   telemetry run ID
    tool=experiments   producing tool (experiments, stasim)
    key=NumTUs:8       substring of the full memo key

  a bare term (no '=') matches a configuration name, then a CfgHash prefix:
    simql list wth-wp-wec
    simql diff "orig,tus=8" "wth-wp-wec,tus=8,side=16"`

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		return cmdList(rest)
	case "show":
		return cmdShow(rest)
	case "grep":
		return cmdGrep(rest)
	case "diff":
		return cmdDiff(rest)
	case "pareto":
		return cmdPareto(rest)
	case "report":
		return cmdReport(rest)
	case "help", "-h", "-help", "--help":
		if len(rest) > 0 && rest[0] == "selectors" {
			fmt.Println(selectorHelp)
			return 0
		}
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "simql: unknown command %q\n\n", cmd)
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: simql <command> [flags] [args]

commands:
  list    list archived manifests (optionally filtered by a selector)
  show    print matching manifests as JSON
  grep    list manifests matching a regexp (memo key, cell key, config, run, rev)
  diff    paired statistical comparison of two selections
  pareto  speedup-vs-hardware-cost frontier against a baseline selection
  report  render a self-contained HTML dashboard
  help    selectors: 'simql help selectors'`)
}

// openAll opens the archive and returns every manifest.
func openAll(root string) ([]*runstore.Manifest, error) {
	st, err := runstore.Open(root)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ms := st.All()
	if len(ms) == 0 {
		return nil, fmt.Errorf("simql: archive %s is empty (produce manifests with `experiments -archive %s` or `stasim -archive %s`)", root, root, root)
	}
	return ms, nil
}

// selectFrom applies an optional selector expression to the manifest set.
func selectFrom(ms []*runstore.Manifest, expr string) ([]*runstore.Manifest, error) {
	if strings.TrimSpace(expr) == "" {
		return ms, nil
	}
	sel, err := runstore.ParseSelector(expr)
	if err != nil {
		return nil, err
	}
	out := runstore.Select(ms, sel)
	if len(out) == 0 {
		return nil, fmt.Errorf("simql: no manifests match %q", expr)
	}
	return out, nil
}

func cmdList(args []string) int {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	root := fs.String("root", "runs", "archive root directory")
	format := fs.String("format", "table", "output format: table or csv")
	fs.Parse(args)
	ms, err := openAll(*root)
	if err == nil {
		ms, err = selectFrom(ms, strings.Join(fs.Args(), ","))
	}
	if err != nil {
		return fail(err)
	}
	header := "%-10s %-11s %3s %-4s %4s %5s %-8s %2s %12s %6s %7s %s\n"
	if *format == "csv" {
		fmt.Println("cfg_hash,config,tus,sidekind,side,l1kb,bench,scale,cycles,ipc,l1d_miss,tool")
	} else {
		fmt.Printf(header, "CFGHASH", "CONFIG", "TUS", "SIDE", "ENTS", "L1KB", "BENCH", "SC", "CYCLES", "IPC", "MISS", "TOOL")
	}
	for _, m := range ms {
		if *format == "csv" {
			fmt.Printf("%s,%s,%d,%s,%d,%d,%s,%d,%d,%.4f,%.4f,%s\n",
				m.CfgHash, m.Config, m.TUs, m.SideKind, m.SideEntries, m.L1KB,
				m.Bench, m.Scale, m.Stats.Cycles, m.IPC(), m.Stats.L1DMissRate(), m.Tool)
			continue
		}
		fmt.Printf(header,
			m.CfgHash[:10], m.Config, fmt.Sprint(m.TUs), m.SideKind, fmt.Sprint(m.SideEntries),
			fmt.Sprint(m.L1KB), m.Bench, fmt.Sprint(m.Scale), fmt.Sprint(m.Stats.Cycles),
			fmt.Sprintf("%.3f", m.IPC()), fmt.Sprintf("%.4f", m.Stats.L1DMissRate()), m.Tool)
	}
	return 0
}

func cmdShow(args []string) int {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	root := fs.String("root", "runs", "archive root directory")
	fs.Parse(args)
	ms, err := openAll(*root)
	if err == nil {
		ms, err = selectFrom(ms, strings.Join(fs.Args(), ","))
	}
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(os.Stdout, ms); err != nil {
		return fail(err)
	}
	return 0
}

func cmdGrep(args []string) int {
	fs := flag.NewFlagSet("grep", flag.ExitOnError)
	root := fs.String("root", "runs", "archive root directory")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fail(fmt.Errorf("simql grep: want exactly one regexp argument"))
	}
	re, err := regexp.Compile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	ms, err := openAll(*root)
	if err != nil {
		return fail(err)
	}
	hits := runstore.Grep(ms, re)
	if len(hits) == 0 {
		fmt.Fprintf(os.Stderr, "simql: no manifests match %q\n", fs.Arg(0))
		return 1
	}
	for _, m := range hits {
		fmt.Printf("%s  %s/%s tus=%d side=%s/%d tool=%s run=%s\n",
			m.CellKey, m.Bench, m.Config, m.TUs, m.SideKind, m.SideEntries, m.Tool, m.RunID)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
