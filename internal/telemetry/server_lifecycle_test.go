package telemetry

import (
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// A run pointed at an already-bound address must fail with an error that
// tells the operator what to do, not a bare EADDRINUSE.
func TestServerBindFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = Start(Config{
		Addr: ln.Addr().String(),
		Log:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err == nil {
		t.Fatal("Start on a bound address succeeded")
	}
	if !strings.Contains(err.Error(), ln.Addr().String()) {
		t.Fatalf("bind error does not name the address: %v", err)
	}
	if !strings.Contains(err.Error(), "already") || !strings.Contains(err.Error(), ":0") {
		t.Fatalf("bind error lacks the remediation hint: %v", err)
	}
}

// Close must drain an in-flight /runs request: the handler that was
// already past the snapshot when shutdown began still delivers a complete
// JSON document, rather than having its connection torn down.
func TestServerShutdownDrainsRuns(t *testing.T) {
	r := quietRun(t, Config{Addr: "127.0.0.1:0"})
	entered := make(chan struct{})
	release := make(chan struct{})
	r.server.testRunsBarrier = func() {
		close(entered)
		<-release
	}
	r.StartCell("mcf", "cfg-deadbeef", 0, nil)

	type resp struct {
		doc runsDoc
		err error
	}
	got := make(chan resp, 1)
	go func() {
		res, err := http.Get("http://" + r.Addr() + "/runs")
		if err != nil {
			got <- resp{err: err}
			return
		}
		defer res.Body.Close()
		var doc runsDoc
		err = json.NewDecoder(res.Body).Decode(&doc)
		got <- resp{doc: doc, err: err}
	}()

	<-entered // the handler is in flight, pre-body
	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()

	// Close must not complete while the handler is still held.
	select {
	case <-closed:
		t.Fatal("Close returned with a /runs handler still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
	g := <-got
	if g.err != nil {
		t.Fatalf("in-flight /runs was not drained: %v", g.err)
	}
}
