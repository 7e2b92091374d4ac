// Package repro is a from-scratch Go reproduction of "Using Incorrect
// Speculation to Prefetch Data in a Concurrent Multithreaded Processor"
// (Chen, Sendag, Lilja; IPDPS 2003): a cycle-level simulator of the
// superthreaded architecture with wrong-path and wrong-thread execution and
// the Wrong Execution Cache (WEC), six SPEC2000-archetype benchmark
// kernels, and a harness that regenerates every table and figure of the
// paper's evaluation.
//
// Start with README.md, DESIGN.md (system inventory and per-experiment
// index), and EXPERIMENTS.md (paper-versus-measured results). The
// command-line tools live under cmd/; experiments regenerates each table
// and figure:
//
//	go run ./cmd/experiments -run fig11
//	go run ./cmd/experiments -run all
//	go run ./cmd/stasim -bench mcf -config wth-wp-wec
//
// The simulator's own speed is measured by the separate benchmark module
// under benchmark/ (see benchmark/README.md).
package repro
