package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/worker"
)

// clusterBackend boots one worker-isolated tetrad (workers are this test
// binary) for the cluster chaos suite. Unlike the unit stubs these are
// real servers: real admission control, real worker crashes, real drain
// protocol.
type clusterBackend struct {
	id  string
	srv *server.Server
	ts  *httptest.Server
}

func newClusterBackend(t *testing.T, id string, mutate func(*server.Options)) *clusterBackend {
	t.Helper()
	opts := server.Options{
		Isolation:    server.IsolationPool,
		MaxInFlight:  8,
		MaxQueue:     256,
		QueueTimeout: 10 * time.Second,
		DrainGrace:   5 * time.Second,
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv := server.New(opts)
	ts := httptest.NewServer(srv)
	cb := &clusterBackend{id: id, srv: srv, ts: ts}
	t.Cleanup(func() {
		_ = srv.Drain(nil)
		ts.Close()
		if p := srv.Pool(); p != nil {
			st := p.Stats()
			parity.Children{Spawns: st.Spawns, Reaped: st.Reaped, Live: st.Live}.Check(t, "backend "+id)
		}
	})
	return cb
}

// warmUp answers one request on the backend's worker path, so the cluster
// starts with a live worker per node rather than measuring the first
// one's start.
func (cb *clusterBackend) warmUp(t *testing.T) {
	t.Helper()
	resp, body := parity.Post(t, cb.ts.URL+"/run", server.RunRequest{
		Source: "def main():\n    print(6 * 7)\n", File: "warmup.ttr",
	}, nil)
	var rr server.RunResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &rr) != nil || rr.Stdout != "42\n" || rr.Isolation != server.TierWorker {
		t.Fatalf("backend %s: warm-up request: status %d: %s", cb.id, resp.StatusCode, body)
	}
}

// TestClusterChaosSoak is the cluster-level survival test: 64 clients ×
// 50 requests against three fault-injected tetrads behind the router
// while, mid-load, one backend announces a drain and another is
// hard-killed without any announcement. The contract under all of that:
//
//   - every reply is well-formed — 200 with correct output, or a
//     positioned JSON error (422/429/503); never a transport error,
//     never a truncated body;
//   - zero requests are lost to the draining node: it announced, so the
//     router must stop sending before its admissions close (no reply may
//     be a backend "draining" rejection);
//   - the kill costs retries, not client-visible failures;
//   - afterwards: no orphan goroutines, no orphan worker processes.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos soak; skipped in -short")
	}
	goroutines := parity.Settle()

	const announce = 1500 * time.Millisecond
	mutate := func(o *server.Options) {
		o.WorkerEnv = []string{fault.EnvVar + "=worker-panic=0.08,worker-exit=0.08,pipe-truncate=0.04"}
		o.Retry = worker.RetryPolicy{MaxAttempts: 6}
		// Dice-driven crashes on healthy programs must not turn into 422s;
		// quarantine has its own deterministic test below.
		o.Quarantine = worker.QuarantinePolicy{Threshold: -1}
		o.DrainAnnounce = announce
	}
	nodes := []*clusterBackend{
		newClusterBackend(t, "n0", mutate),
		newClusterBackend(t, "n1", mutate),
		newClusterBackend(t, "n2", mutate),
	}
	var backends []router.Backend
	for _, n := range nodes {
		n.warmUp(t)
		backends = append(backends, router.Backend{ID: n.id, URL: n.ts.URL})
	}
	rt, err := router.New(router.Options{
		Backends:      backends,
		ProbeInterval: 20 * time.Millisecond, // announce/probe = 75 cycles of margin
		MaxRetries:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	waitForRing(t, rt, 3)

	const variants = 8
	reqs := make([]server.RunRequest, variants)
	wants := make([]string, variants)
	for i := range reqs {
		backend := server.BackendInterp
		if i%2 == 1 {
			backend = server.BackendVM
		}
		reqs[i] = server.RunRequest{
			Source:  fmt.Sprintf("def main():\n    print(%d + %d)\n", 40+i, 2),
			File:    fmt.Sprintf("chaos%d.ttr", i),
			Backend: backend,
		}
		wants[i] = fmt.Sprintf("%d\n", 42+i)
	}

	const clients = 64
	const perClient = 50
	const total = clients * perClient
	var done atomic.Int64
	var ok200, rej422, rej429, rej503 atomic.Int64
	var drainRejections atomic.Int64 // replies that are a backend's drain 503 — must stay zero

	// Controller: drain n0 at ~20% of the load, hard-kill n1 at ~45%.
	drainDone := make(chan error, 1)
	killDone := make(chan struct{})
	go func() {
		for done.Load() < total/5 {
			time.Sleep(5 * time.Millisecond)
		}
		go func() { drainDone <- nodes[0].srv.Drain(nil) }()
		for done.Load() < total*45/100 {
			time.Sleep(5 * time.Millisecond)
		}
		// No announcement, no grace: connections die mid-flight. The
		// router must absorb this as retries.
		nodes[1].ts.CloseClientConnections()
		nodes[1].ts.Close()
		close(killDone)
	}()

	client := &http.Client{Timeout: 60 * time.Second}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pick := (c + i) % variants
				data, _ := json.Marshal(reqs[pick])
				resp, err := client.Post(front.URL+"/run", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("client %d: transport error through router: %v", c, err)
					return
				}
				body, err := parity.Body(resp)
				if err != nil {
					t.Errorf("client %d: truncated reply: %v", c, err)
					return
				}
				done.Add(1)
				var rr server.RunResponse
				if parity.Reply(t, resp, body, &rr) {
					ok200.Add(1)
					if !rr.OK || rr.Stdout != wants[pick] {
						t.Errorf("client %d: wrong result %+v, want stdout %q", c, rr, wants[pick])
						return
					}
					continue
				}
				switch resp.StatusCode {
				case http.StatusUnprocessableEntity:
					rej422.Add(1)
				case http.StatusTooManyRequests:
					rej429.Add(1)
				case http.StatusServiceUnavailable:
					rej503.Add(1)
					if strings.Contains(string(body), "draining") && resp.Header.Get("X-Tetra-Backend") != "" {
						// A backend (not the router) rejected us because it
						// was draining — but it announced first, so the
						// router had no business still sending to it.
						drainRejections.Add(1)
						t.Errorf("client %d: request lost to a draining backend %s: %s",
							c, resp.Header.Get("X-Tetra-Backend"), body)
					}
				default:
					t.Errorf("client %d: unexpected status %d: %s", c, resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-killDone
	if err := <-drainDone; err != nil {
		t.Errorf("announced drain of n0 did not complete cleanly: %v", err)
	}

	if got := ok200.Load() + rej422.Load() + rej429.Load() + rej503.Load(); got != total {
		t.Errorf("accounted replies = %d, want %d", got, total)
	}
	if drainRejections.Load() != 0 {
		t.Errorf("%d requests lost to the draining node", drainRejections.Load())
	}

	// The soak must have been chaotic for real: workers crashed and the
	// kill forced router retries.
	var crashes, runs int64
	for _, n := range nodes {
		st := n.srv.Pool().Stats()
		crashes += st.Crashes
		runs += st.Runs
	}
	m := rt.Metrics()
	t.Logf("cluster chaos: %d ok, %d/%d/%d rejected (422/429/503); worker crashes %d/%d attempts; router retries=%d spillovers=%d membership=%d",
		ok200.Load(), rej422.Load(), rej429.Load(), rej503.Load(), crashes, runs, m.Retries, m.Spillovers, m.Membership)
	if runs == 0 || float64(crashes)/float64(runs) < 0.10 {
		t.Errorf("crash fraction too tame: %d crashes / %d attempts", crashes, runs)
	}
	if m.Membership < 2 {
		t.Errorf("membership changes = %d, want >= 2 (drain departure + kill departure)", m.Membership)
	}
	if ok200.Load() < total*8/10 {
		t.Errorf("only %d/%d requests succeeded; drain+kill of 2/3 nodes should not cost >20%%", ok200.Load(), total)
	}

	// Teardown with leak checks: router first, then surviving backends
	// (cleanup handles their drain; we just count goroutines after the
	// HTTP layer is gone).
	if err := rt.Close(); err != nil {
		t.Errorf("router close: %v", err)
	}
	front.Close()
	client.CloseIdleConnections()
	for _, n := range nodes {
		// The hard-killed node's listener is already gone, but its worker
		// pool and reapers are not; drain is idempotent for the rest.
		if err := n.srv.Drain(nil); err != nil {
			t.Errorf("backend %s drain: %v", n.id, err)
		}
		n.ts.Close()
	}
	goroutines.Check(t, 15*time.Second)
}

// TestQuarantine422ThroughRouter: a poison program's quarantine
// rejection crosses the router intact — status, positioned JSON body,
// Retry-After, and the X-Tetra-Backend naming the node that tripped —
// and the backend's crash forensics carry the router-originated request
// ID even though the client never sent one. That closes the forensics
// loop for the cluster: an operator holding a reply header can find the
// crash record on the right node.
func TestQuarantine422ThroughRouter(t *testing.T) {
	node := newClusterBackend(t, "poison-node", func(o *server.Options) {
		o.WorkerEnv = []string{fault.EnvVar + "=worker-panic=1"}
		o.Retry = worker.RetryPolicy{MaxAttempts: 2}
		o.Quarantine = worker.QuarantinePolicy{Threshold: 2, Window: time.Minute, TTL: time.Minute}
	})
	// No warm-up: every request crashes a worker here, and the first one
	// starts the worker it needs.
	_, front := newRouter(t, router.Options{
		Backends: []router.Backend{{ID: "poison-node", URL: node.ts.URL}},
	}, 1)

	req := server.RunRequest{Source: "def main():\n    print(1)\n", File: "poison.ttr"}
	// Deliberately no client X-Request-ID: the router must mint one at
	// the edge and the backend must record that exact ID.
	resp, body := parity.Post(t, front.URL+"/run", req, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 relayed: %s", resp.StatusCode, body)
	}
	parity.Reply(t, resp, body, nil)
	if !strings.Contains(string(body), "poison.ttr") {
		t.Errorf("422 body not positioned on the file: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("relayed 422 lost its Retry-After")
	}
	if got := resp.Header.Get("X-Tetra-Backend"); got != "poison-node" {
		t.Errorf("X-Tetra-Backend = %q, want \"poison-node\"", got)
	}
	minted := resp.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("reply missing the router-minted X-Request-ID")
	}

	found := false
	for _, cr := range node.srv.Metrics().WorkerCrashes {
		if cr.RequestID == minted {
			found = true
			if cr.Hash == "" || cr.Reason == "" {
				t.Errorf("incomplete crash record for routed request: %+v", cr)
			}
		}
	}
	if !found {
		t.Errorf("backend crash forensics carry no record with the router-minted ID %q: %+v",
			minted, node.srv.Metrics().WorkerCrashes)
	}
}
