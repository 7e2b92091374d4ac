package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"syscall"
	"time"
)

// httpServer is the run's introspection endpoint. Endpoints:
//
//	/healthz      liveness ("ok")
//	/metrics      Prometheus text format (suite gauges + live cell bridges)
//	/runs         JSON: the run header plus every in-flight span
//	/debug/pprof  the standard pprof handlers
type httpServer struct {
	run *Run
	srv *http.Server
	ln  net.Listener

	// testRunsBarrier, when set (tests only, before any request), runs
	// inside handleRuns before the response body is written — it lets the
	// lifecycle test hold a request in flight across close().
	testRunsBarrier func()
}

func newHTTPServer(r *Run, addr string) (*httpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("telemetry: listen %s: %w (another run is already serving there — pass a different address, or \":0\" to pick a free port)", addr, err)
		}
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &httpServer{run: r, ln: ln}
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
	return s, nil
}

func (s *httpServer) addr() string { return s.ln.Addr().String() }

// close shuts the server down gracefully: the listener stops accepting
// immediately, but in-flight handlers (a scraper mid-/runs, a pprof
// profile) get up to drainTimeout to finish before the hard close.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// drainTimeout bounds how long close waits for in-flight requests.
var drainTimeout = 2 * time.Second

func (s *httpServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *httpServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.run.WriteProm(w); err != nil {
		s.run.Log.Error("metrics write failed", "err", err)
	}
}

// runsCell is one in-flight cell in the /runs document.
type runsCell struct {
	Span         Span    `json:"span"`
	Cycle        uint64  `json:"cycle"`
	Commits      uint64  `json:"commits"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// runsDoc is the /runs JSON document.
type runsDoc struct {
	Run           string     `json:"run"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	Suite         *Span      `json:"suite,omitempty"`
	Cells         []runsCell `json:"cells"`
	Done          uint64     `json:"done"`
	Failed        uint64     `json:"failed"`
	Ledger        string     `json:"ledger,omitempty"`
	Archive       string     `json:"archive,omitempty"`
}

func (s *httpServer) handleRuns(w http.ResponseWriter, _ *http.Request) {
	r := s.run
	// Span fields mutate under r.mu, so every span that goes into the
	// document is copied by value while the lock is held.
	r.mu.Lock()
	doc := runsDoc{
		Run:           r.ID,
		UptimeSeconds: time.Since(r.started).Seconds(),
		Done:          r.cellsDone,
		Failed:        r.cellsFailed,
		Ledger:        r.ledgerPath,
		Archive:       r.archiveRoot,
	}
	if r.suite != nil {
		suite := *r.suite
		doc.Suite = &suite
	}
	cells := make([]*Cell, 0, len(r.cells))
	spans := make([]Span, 0, len(r.cells))
	for _, c := range r.cells {
		cells = append(cells, c)
		spans = append(spans, *c.Span)
	}
	r.mu.Unlock()
	for i, c := range cells {
		cycle, commits := c.Obs.Tap.Latest()
		rc := runsCell{
			Span:         spans[i],
			Cycle:        cycle,
			Commits:      commits,
			CyclesPerSec: c.Obs.Tap.Rate(),
		}
		if st := c.Obs.Tap.Started(); !st.IsZero() {
			rc.WallSeconds = time.Since(st).Seconds()
		}
		doc.Cells = append(doc.Cells, rc)
	}
	sort.Slice(doc.Cells, func(i, j int) bool { return doc.Cells[i].Span.ID < doc.Cells[j].Span.ID })
	if doc.Cells == nil {
		doc.Cells = []runsCell{}
	}
	if s.testRunsBarrier != nil {
		s.testRunsBarrier()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		r.Log.Error("runs write failed", "err", err)
	}
}
