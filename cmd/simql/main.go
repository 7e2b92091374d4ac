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
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit code instead of exiting,
// so tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	commands := map[string]func(args []string, stdout, stderr io.Writer) int{
		"list": cmdList, "show": cmdShow, "grep": cmdGrep,
		"diff": cmdDiff, "pareto": cmdPareto, "report": cmdReport,
	}
	if c, ok := commands[cmd]; ok {
		return c(rest, stdout, stderr)
	}
	switch cmd {
	case "help", "-h", "-help", "--help":
		if len(rest) > 0 && rest[0] == "selectors" {
			fmt.Fprintln(stdout, selectorHelp)
			return 0
		}
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "simql: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: simql <command> [flags] [args]

commands:
  list    list archived manifests (optionally filtered by a selector)
  show    print matching manifests as JSON
  grep    list manifests matching a regexp (memo key, cell key, config, run, rev)
  diff    paired statistical comparison of two selections
  pareto  speedup-vs-hardware-cost frontier against a baseline selection
  report  render a self-contained HTML dashboard
  help    selectors: 'simql help selectors'`)
}

// parse parses a subcommand's flags, reporting usage and errors on
// stderr. When it reports !ok the command ends with code: 0 after -h, 2
// for a bad flag.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	return 0, true
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

func cmdList(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	root := fs.String("root", "runs", "archive root directory")
	format := fs.String("format", "table", "output format: table or csv")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	ms, err := openAll(*root)
	if err == nil {
		ms, err = selectFrom(ms, strings.Join(fs.Args(), ","))
	}
	if err != nil {
		return fail(stderr, err)
	}
	header := "%-10s %-11s %3s %-4s %4s %5s %-8s %2s %12s %6s %7s %s\n"
	if *format == "csv" {
		fmt.Fprintln(stdout, "cfg_hash,config,tus,sidekind,side,l1kb,bench,scale,cycles,ipc,l1d_miss,tool")
	} else {
		fmt.Fprintf(stdout, header, "CFGHASH", "CONFIG", "TUS", "SIDE", "ENTS", "L1KB", "BENCH", "SC", "CYCLES", "IPC", "MISS", "TOOL")
	}
	for _, m := range ms {
		if *format == "csv" {
			fmt.Fprintf(stdout, "%s,%s,%d,%s,%d,%d,%s,%d,%d,%.4f,%.4f,%s\n",
				m.CfgHash, m.Config, m.TUs, m.SideKind, m.SideEntries, m.L1KB,
				m.Bench, m.Scale, m.Stats.Cycles, m.IPC(), m.Stats.L1DMissRate(), m.Tool)
			continue
		}
		fmt.Fprintf(stdout, header,
			m.CfgHash[:10], m.Config, fmt.Sprint(m.TUs), m.SideKind, fmt.Sprint(m.SideEntries),
			fmt.Sprint(m.L1KB), m.Bench, fmt.Sprint(m.Scale), fmt.Sprint(m.Stats.Cycles),
			fmt.Sprintf("%.3f", m.IPC()), fmt.Sprintf("%.4f", m.Stats.L1DMissRate()), m.Tool)
	}
	return 0
}

func cmdShow(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	root := fs.String("root", "runs", "archive root directory")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	ms, err := openAll(*root)
	if err == nil {
		ms, err = selectFrom(ms, strings.Join(fs.Args(), ","))
	}
	if err != nil {
		return fail(stderr, err)
	}
	if err := writeJSON(stdout, ms); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func cmdGrep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("grep", flag.ContinueOnError)
	root := fs.String("root", "runs", "archive root directory")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if fs.NArg() != 1 {
		return fail(stderr, fmt.Errorf("simql grep: want exactly one regexp argument"))
	}
	re, err := regexp.Compile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	ms, err := openAll(*root)
	if err != nil {
		return fail(stderr, err)
	}
	hits := runstore.Grep(ms, re)
	if len(hits) == 0 {
		fmt.Fprintf(stderr, "simql: no manifests match %q\n", fs.Arg(0))
		return 1
	}
	for _, m := range hits {
		fmt.Fprintf(stdout, "%s  %s/%s tus=%d side=%s/%d tool=%s run=%s\n",
			m.CellKey, m.Bench, m.Config, m.TUs, m.SideKind, m.SideEntries, m.Tool, m.RunID)
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}
