package router_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/parity"
	"repro/internal/router"
	"repro/internal/server"
)

// TestClusterConformanceGoldenCorpus is the cluster's door of the parity
// matrix: every golden
// program at every engine of the table, POSTed through tetrarouter in
// front of two tetrads, means what the engines say — and the same bytes
// come back when the request goes to the chosen tetrad directly, and
// routing is deterministic, so a re-sent request reports the same
// X-Tetra-Backend. A router that ever touched program semantics, or
// flapped programs between cold caches, fails here.
func TestClusterConformanceGoldenCorpus(t *testing.T) {
	goroutines := parity.Settle()

	// Two plain in-process tetrads behind an affinity router.
	var backends []router.Backend
	var servers []*server.Server
	var tss []*httptest.Server
	direct := map[string]string{} // backend id → its URL
	for _, id := range []string{"node-0", "node-1"} {
		srv := server.New(server.Options{Logf: t.Logf})
		ts := httptest.NewServer(srv)
		servers = append(servers, srv)
		tss = append(tss, ts)
		backends = append(backends, router.Backend{ID: id, URL: ts.URL})
		direct[id] = ts.URL
	}
	rt, err := router.New(router.Options{
		Backends:      backends,
		ProbeInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	waitForRing(t, rt, 2)

	post := func(t *testing.T, url string, req server.RunRequest) (parity.Result, string) {
		t.Helper()
		resp, body := parity.Post(t, url+"/run", req, nil)
		var rr server.RunResponse
		if !parity.Reply(t, resp, body, &rr) {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		r := parity.Result{Stdout: rr.Stdout}
		if rr.Error != nil {
			r.Err = rr.Error.Message
		}
		return r, resp.Header.Get("X-Tetra-Backend")
	}
	parity.Matrix(t, "router", parity.Corpus(t), func(t *testing.T, c parity.Case, v parity.Variant) parity.Result {
		req := server.RunRequest{Source: c.Src, Stdin: c.Stdin, File: c.FileName(), Backend: v.Backend}
		if v.Backend == server.BackendVM {
			req.Opt = &v.Opt
		}
		viaRouter, backendID := post(t, front.URL, req)
		if direct[backendID] == "" {
			t.Fatalf("reply names backend %q", backendID)
		}
		// The very node the router chose, asked directly: the router
		// added nothing and lost nothing.
		if d, _ := post(t, direct[backendID], req); d != viaRouter {
			t.Errorf("router reply differs from direct: %s", parity.Diff(d, viaRouter))
		}
		// Affinity is deterministic: the same request lands on the same node.
		if _, again := post(t, front.URL, req); again != backendID {
			t.Errorf("rerouted %q then %q; affinity must be stable", backendID, again)
		}
		return viaRouter
	})

	// Orderly teardown with a leak check: router first, then backends.
	if err := rt.Close(); err != nil {
		t.Errorf("router close: %v", err)
	}
	front.Close()
	for i, srv := range servers {
		if err := srv.Drain(nil); err != nil {
			t.Errorf("backend %d drain: %v", i, err)
		}
		tss[i].Close()
	}
	goroutines.Check(t, 10*time.Second)
}
