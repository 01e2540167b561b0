package router_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/worker"
)

// TestMain lets this test binary serve as its own execution worker: the
// pool-backed backends in the chaos suite re-exec os.Executable with
// TETRAD_WORKER=1, and ExitIfWorker diverts the child into the worker
// loop before any test runs.
func TestMain(m *testing.M) {
	worker.ExitIfWorker()
	os.Exit(m.Run())
}

// stubBackend is a minimal fake tetrad: a readiness endpoint driven by a
// flag, plus a handler that records what the router forwarded. Routing
// and proxying are transport concerns, so most router tests don't need a
// real execution engine behind them.
type stubBackend struct {
	ts    *httptest.Server
	ready atomic.Bool

	mu      sync.Mutex
	headers []http.Header
	paths   []string
}

func newStub(t *testing.T, handle http.HandlerFunc) *stubBackend {
	t.Helper()
	sb := &stubBackend{}
	sb.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz/ready", func(w http.ResponseWriter, r *http.Request) {
		if sb.ready.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		sb.headers = append(sb.headers, r.Header.Clone())
		sb.paths = append(sb.paths, r.URL.Path)
		sb.mu.Unlock()
		if handle != nil {
			handle(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true,"stdout":""}`+"\n")
	})
	sb.ts = httptest.NewServer(mux)
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *stubBackend) lastHeader() http.Header {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if len(sb.headers) == 0 {
		return nil
	}
	return sb.headers[len(sb.headers)-1]
}

func (sb *stubBackend) requestCount() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return len(sb.headers)
}

// newRouter boots a Router over the given backends with a fast probe
// interval, waits until every currently-ready backend has joined the
// ring, and wires graceful close (with the no-abandoned-requests check)
// into cleanup.
func newRouter(t *testing.T, opts router.Options, wantMembers int) (*router.Router, *httptest.Server) {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 20 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	rt, err := router.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		if err := rt.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
		ts.Close()
	})
	waitForRing(t, rt, wantMembers)
	return rt, ts
}

// waitForRing blocks until the ring reaches exactly n members.
func waitForRing(t *testing.T, rt *router.Router, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Ring().Len() == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("ring never reached %d members: have %v", n, rt.Ring().Members())
}
