package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parity"
	"repro/internal/server"
)

// TestSoakConcurrentClients is the ISSUE's load test: 64 concurrent
// clients × 50 requests against an 8-in-flight admission cap. Every
// response must be either a correct 200 or a well-formed 429; the compile
// cache must converge to ~100% hits on the repeated sources; and after a
// graceful drain no goroutines may be left behind.
func TestSoakConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	goroutines := parity.Settle()

	srv := server.New(server.Options{
		MaxInFlight:  8,
		MaxQueue:     256, // queue everything; the cap still bounds execution
		QueueTimeout: 10 * time.Second,
		DrainGrace:   time.Second,
	})
	ts := httptest.NewServer(srv)

	// Three distinct tiny workloads so the cache sees repeats of several
	// sources, interp and VM alike.
	sources := []server.RunRequest{
		{Source: "def main():\n    print(6 * 7)\n", File: "a.ttr"},
		{Source: "def main():\n    n = read_int()\n    print(n + 1)\n", File: "b.ttr", Stdin: "41\n", Backend: server.BackendVM},
		{Source: "def main():\n    s = \"soak\"\n    print(s + \"!\")\n", File: "c.ttr", Backend: server.BackendVM},
	}
	wants := []string{"42\n", "42\n", "soak!\n"}

	const clients = 64
	const perClient = 50
	var ok200, rej429 atomic.Int64
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pick := (c + i) % len(sources)
				data, _ := json.Marshal(sources[pick])
				resp, err := client.Post(ts.URL+"/run", "application/json", strings.NewReader(string(data)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var body []byte
				body, err = parity.Body(resp)
				if err != nil {
					t.Errorf("client %d: reading body: %v", c, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
					var rr server.RunResponse
					if err := json.Unmarshal(body, &rr); err != nil {
						t.Errorf("client %d: bad 200 body: %v", c, err)
						return
					}
					if !rr.OK || rr.Stdout != wants[pick] {
						t.Errorf("client %d: wrong result %+v, want stdout %q", c, rr, wants[pick])
						return
					}
				case http.StatusTooManyRequests:
					rej429.Add(1)
					var er server.ErrorResponse
					if err := json.Unmarshal(body, &er); err != nil || er.Code != 429 || er.Error == "" {
						t.Errorf("client %d: malformed 429 body: %s", c, body)
						return
					}
				default:
					t.Errorf("client %d: unexpected status %d: %s", c, resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	if total := ok200.Load() + rej429.Load(); total != clients*perClient {
		t.Errorf("accounted responses = %d, want %d", total, clients*perClient)
	}
	t.Logf("soak: %d ok, %d rejected (cap 8)", ok200.Load(), rej429.Load())

	// Cache convergence: with 3 sources and thousands of requests, the
	// hit rate must be effectively 1 (the handful of cold compiles only).
	m := srv.Metrics()
	if m.Cache.HitRate < 0.99 {
		t.Errorf("cache hit rate %.4f, want >= 0.99 (hits=%d misses=%d)",
			m.Cache.HitRate, m.Cache.Hits, m.Cache.Misses)
	}
	if m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("post-soak in_flight=%d queue_depth=%d, want 0/0", m.InFlight, m.QueueDepth)
	}

	// Graceful drain, then the goroutine-leak check.
	if err := srv.Drain(nil); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	goroutines.Check(t, 10*time.Second)
}

// TestSoakWithOverloadRejections drives a deliberately tiny admission
// configuration so a large fraction of requests bounce, proving the 429
// path stays well-formed under pressure and the server recovers to a
// clean idle state.
func TestSoakWithOverloadRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	srv := server.New(server.Options{
		MaxInFlight:  2,
		MaxQueue:     4,
		QueueTimeout: 20 * time.Millisecond,
		DrainGrace:   time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A workload that holds its execution slot for a fixed wall-clock
	// interval, so the queue piles up regardless of host speed.
	src := "def main():\n    sleep(50)\n    print(\"held\")\n"
	var wg sync.WaitGroup
	var ok200, rej429, other atomic.Int64
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				data, _ := json.Marshal(server.RunRequest{Source: src, File: "slow.ttr"})
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(string(data)))
				if err != nil {
					other.Add(1)
					return
				}
				body, _ := parity.Body(resp)
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					rej429.Add(1)
					var er server.ErrorResponse
					if err := json.Unmarshal(body, &er); err != nil || er.Code != 429 {
						t.Errorf("malformed 429: %s", body)
					}
				default:
					other.Add(1)
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	if rej429.Load() == 0 {
		t.Error("overload produced no 429s; admission controller not engaging")
	}
	if other.Load() != 0 {
		t.Errorf("%d responses were neither 200 nor 429", other.Load())
	}
	m := srv.Metrics()
	if m.Rejected429 != rej429.Load() {
		t.Errorf("metrics rejected_429=%d, clients saw %d", m.Rejected429, rej429.Load())
	}
	t.Logf(fmt.Sprintf("overload: %d ok, %d rejected", ok200.Load(), rej429.Load()))
}
