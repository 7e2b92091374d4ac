// Package serve is a telemetry Run's HTTP introspection server. It is the
// only package under internal/ that imports net, so the simulation
// library (harness, sta and everything below them) links no network
// stack; only the CLIs, which serve -telemetry-addr, import it.
//
// Endpoints:
//
//	/healthz      liveness ("ok")
//	/metrics      Prometheus text format (suite gauges + live cell bridges)
//	/runs         JSON: the run header plus every in-flight span
//	/debug/pprof  the standard pprof handlers
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// Server serves one telemetry Run.
type Server struct {
	run *telemetry.Run
	srv *http.Server
	ln  net.Listener

	// testRunsBarrier, when set (tests only, before any request), runs
	// inside handleRuns before the response body is written — it lets the
	// lifecycle test hold a request in flight across Close.
	testRunsBarrier func()
}

// Start serves r on addr ("127.0.0.1:0" picks a free port; Addr reports
// it) and logs the listen address on the run's logger. Close the server
// after the run.
func Start(r *telemetry.Run, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("telemetry: listen %s: %w (another run is already serving there — pass a different address, or \":0\" to pick a free port)", addr, err)
		}
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{run: r, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on close
	r.Log.Info("telemetry server listening", "addr", s.Addr())
	return s, nil
}

// Addr returns the server's actual listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down gracefully: the listener stops accepting
// immediately, but in-flight handlers (a scraper mid-/runs, a pprof
// profile) get up to drainTimeout to finish before the hard close.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// drainTimeout bounds how long Close waits for in-flight requests.
var drainTimeout = 2 * time.Second

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.run.WriteProm(w); err != nil {
		s.run.Log.Error("metrics write failed", "err", err)
	}
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	// The document is snapshotted before the barrier and written after it.
	var doc bytes.Buffer
	if err := s.run.WriteRuns(&doc); err != nil {
		s.run.Log.Error("runs write failed", "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if s.testRunsBarrier != nil {
		s.testRunsBarrier()
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(doc.Bytes()); err != nil {
		s.run.Log.Error("runs write failed", "err", err)
	}
}
