package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/server"
)

// nativeServer boots an in-process server with the native promotion tier
// on, skipping the test when the tier cannot build (no toolchain).
func nativeServer(t *testing.T, mutate func(*server.Options)) (*server.Server, *httptest.Server) {
	t.Helper()
	opts := server.Options{
		MaxInFlight:     4,
		QueueTimeout:    10 * time.Second,
		DrainGrace:      2 * time.Second,
		NativeThreshold: 1,
		NativeBuildDir:  t.TempDir(),
		Logf:            t.Logf,
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv, ts := serve(t, opts)
	if srv.Promoter() == nil {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	return srv, ts
}

// runUntilNative posts req until the native tier serves it, failing after
// the deadline or on any reply that is not a well-formed run. Returns the
// first native-served response.
func runUntilNative(t *testing.T, url string, req server.RunRequest, wait time.Duration) *server.RunResponse {
	t.Helper()
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		resp, body := parity.Post(t, url+"/run", req, nil)
		var rr server.RunResponse
		if !parity.Reply(t, resp, body, &rr) || rr.Error != nil {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if rr.Isolation == server.TierNative {
			return &rr
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("no native-served response within %s", wait)
	return nil
}

// TestBackendValidation: an unknown RunRequest.Backend must be a
// positioned 400 JSON error, never a silent fallback to a default
// engine — including "native", which is a server-side promotion
// decision, not a requestable engine.
func TestBackendValidation(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()

	for _, backend := range []string{"native", "bogus"} {
		resp, body := parity.Post(t, ts.URL+"/run", server.RunRequest{
			Source: "def main():\n    print(1)\n", File: "b.ttr", Backend: backend,
		}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("backend %q: status %d, want 400: %s", backend, resp.StatusCode, body)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("backend %q: 400 body is not JSON: %s", backend, body)
		}
		if !strings.Contains(er.Error, backend) || !strings.Contains(er.Error, "unknown backend") {
			t.Errorf("backend %q: diagnostic %q does not name the rejected backend", backend, er.Error)
		}
		if er.Code != http.StatusBadRequest {
			t.Errorf("backend %q: body code %d", backend, er.Code)
		}
	}
}

// TestNativeDemotionChaos: a resident artifact that has already answered
// and is killed mid-request must be retried transparently on the VM tier
// within the same request, the program demoted, and — after the cooldown,
// with the chaos gone — re-promoted: the demotion is all that stood
// against the artifact.
func TestNativeDemotionChaos(t *testing.T) {
	inj := fault.New(1)
	srv, ts := nativeServer(t, func(o *server.Options) {
		o.Faults = inj
		o.NativeRebuildBackoff = 50 * time.Millisecond
	})
	// The program outlives the kill that follows its start: one that has
	// already exited when the kill lands is a clean run, not a crash.
	req := server.RunRequest{Source: "def main():\n    sleep(100)\n    print(99)\n", File: "chaos.ttr"}

	// Promote while the fault point is quiet.
	rr := runUntilNative(t, ts.URL, req, 2*time.Minute)
	if rr.Stdout != "99\n" {
		t.Fatalf("native run: %+v", rr)
	}

	// Arm the chaos: every native attempt is killed mid-request. The
	// request must still succeed — on a non-native tier, second attempt.
	// The process killed is the one that answered above.
	spawned := srv.Native().Stats().Spawns
	inj.Set(fault.NativeKill, 1.0, 0)
	resp, body := parity.Post(t, ts.URL+"/run", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr2 server.RunResponse
	if err := json.Unmarshal(body, &rr2); err != nil {
		t.Fatal(err)
	}
	if rr2.Error != nil || rr2.Stdout != "99\n" {
		t.Fatalf("request lost to artifact crash: %+v", rr2)
	}
	if rr2.Isolation == server.TierNative {
		t.Fatalf("crashed native attempt still reported tier %q", rr2.Isolation)
	}
	if rr2.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (native crash + VM retry)", rr2.Attempts)
	}
	m := srv.Metrics()
	if m.NativeDemotions < 1 {
		t.Errorf("no demotion recorded: %+v", m)
	}
	if m.Native.Spawns != spawned || m.Native.Live != 0 {
		t.Errorf("the killed process was not the resident one, or outlived the kill: %+v (%d spawned before)", m.Native, spawned)
	}
	if m.Promote == nil || m.Promote.Demotions < 1 {
		t.Errorf("promotion stats missing the demotion: %+v", m.Promote)
	}
	if len(m.WorkerCrashes) == 0 {
		t.Error("artifact crash left no forensics record")
	}

	// Disarm the chaos; after the cooldown the program re-heats,
	// rebuilds (artifact reuse — same generated source), and serves
	// native again.
	inj.Set(fault.NativeKill, 0, 0)
	time.Sleep(80 * time.Millisecond) // let the cooldown lapse
	rr3 := runUntilNative(t, ts.URL, req, 2*time.Minute)
	if rr3.Stdout != "99\n" {
		t.Fatalf("re-promoted run: %+v", rr3)
	}
	if m := srv.Metrics(); m.Promotions < 2 {
		t.Errorf("re-promotion not counted: promotions = %d", m.Promotions)
	}
}

// TestNativeMetricsSurface: the /metrics document carries the native
// tier's counters, process accounting and latency histogram.
func TestNativeMetricsSurface(t *testing.T) {
	srv, ts := nativeServer(t, nil)
	req := server.RunRequest{Source: "def main():\n    print(5)\n", File: "m.ttr"}
	runUntilNative(t, ts.URL, req, 2*time.Minute)

	m := srv.Metrics()
	if m.Promotions < 1 || m.NativeRuns < 1 {
		t.Errorf("native counters not surfaced: %+v", m)
	}
	if m.Native == nil || m.Native.Runs < 1 {
		t.Errorf("native runner stats missing: %+v", m.Native)
	}
	if m.Promote == nil || !m.Promote.Enabled || m.Promote.Ready != 1 {
		t.Errorf("promotion stats missing: %+v", m.Promote)
	}
	if _, ok := m.Latency[server.TierNative]; !ok {
		t.Error("no native latency histogram")
	}
	// And over HTTP, the JSON names are stable.
	hresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"promotions", "native_runs", "native", "promote"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
}

// TestNativeSkipsTraceAndRace: trace and race requests carry event
// collectors the native binary does not have; they must stay on the
// interp tier even when an artifact is ready.
func TestNativeSkipsTraceAndRace(t *testing.T) {
	_, ts := nativeServer(t, nil)
	req := server.RunRequest{Source: "def main():\n    print(3)\n", File: "tr.ttr"}
	runUntilNative(t, ts.URL, req, 2*time.Minute)

	traced := req
	traced.Trace = true
	resp, body := parity.Post(t, ts.URL+"/run", traced, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr server.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Isolation == server.TierNative {
		t.Fatalf("trace request served natively: %+v", rr)
	}
	if rr.Trace == nil {
		t.Fatalf("trace summary missing: %+v", rr)
	}
}

// run posts req and decodes the 200 reply.
func run(t *testing.T, url string, req server.RunRequest) server.RunResponse {
	t.Helper()
	resp, body := parity.Post(t, url+"/run", req, nil)
	var rr server.RunResponse
	if !parity.Reply(t, resp, body, &rr) {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return rr
}

// TestFailingProgramIsNeverPromoted: hotness counts the requests an engine
// answered OK, not requests. A program that deadlocks is answered with the
// cycle in milliseconds however often it is asked for; its artifact would
// park on the same locks until the runner killed it.
func TestFailingProgramIsNeverPromoted(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "deadlock_ab.ttr"))
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 3
	srv, ts := nativeServer(t, func(o *server.Options) { o.NativeThreshold = threshold })
	req := server.RunRequest{Source: string(src), File: "deadlock_ab.ttr", Backend: server.BackendVM}
	for i := 0; i < 3*threshold; i++ {
		start := time.Now()
		rr := run(t, ts.URL, req)
		if rr.Error == nil || !strings.Contains(rr.Error.Message, "deadlock detected") {
			t.Fatalf("request %d: want the deadlock diagnostic, got %+v", i, rr)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("request %d took %v on tier %s", i, d, rr.Isolation)
		}
	}
	m := srv.Metrics()
	if p := m.Promote; p.Tracked != 0 || p.Builds+p.ArtifactReuses != 0 {
		t.Errorf("a program no engine ever answered OK was counted towards promotion: %+v", p)
	}
	if m.Native.Spawns != 0 {
		t.Errorf("native tier ran it: %+v", m.Native)
	}
}

// TestBlockedProgramFallsThroughUndemoted: a program promoted on the inputs
// it answers can still deadlock on another, or fail under a lock a sibling
// waits for. The artifact's threads run on rt, which names the cycle, or
// stops the waiter, in milliseconds: the request falls through on that
// runtime error to the engines, whose positioned diagnosis is the reply,
// and the artifact is neither a crash nor demoted.
func TestBlockedProgramFallsThroughUndemoted(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"deadlock", `def ab():
    lock a:
        sleep(50)
        lock b:
            print("ab")

def ba():
    lock b:
        sleep(50)
        lock a:
            print("ba")

def main():
    if read_int() == 1:
        parallel:
            ab()
            ba()
    print("done")
`, "deadlock detected"},
		{"error_in_lock", `def worker(k int):
    sleep(50 * (k % 2))
    lock a:
        print(10 / k)

def main():
    k = read_int() - 1
    parallel:
        worker(k)
        worker(k + 1)
    print("done")
`, "division by zero"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, ts := nativeServer(t, nil)
			req := server.RunRequest{Source: c.src, File: c.name + ".ttr", Backend: server.BackendVM, Stdin: "2\n",
				Limits: &server.LimitSpec{TimeoutMS: 300}}
			if rr := runUntilNative(t, ts.URL, req, 2*time.Minute); !strings.HasSuffix(rr.Stdout, "done\n") {
				t.Fatalf("native run: %+v", rr)
			}

			req.Stdin = "1\n"
			start := time.Now()
			rr := run(t, ts.URL, req)
			if d := time.Since(start); d > time.Second {
				t.Errorf("answered in %v, want under 1s", d)
			}
			if rr.Error == nil || !strings.Contains(rr.Error.Message, c.want) || !strings.HasPrefix(rr.Error.Pos, c.name+".ttr:") {
				t.Fatalf("want the engines' positioned %q, got %+v", c.want, rr.Error)
			}
			if rr.Isolation == server.TierNative {
				t.Errorf("answered on tier %s, want an engine's answer", rr.Isolation)
			}
			if m := srv.Metrics(); m.NativeDemotions != 0 || m.Native.Crashes != 0 {
				t.Errorf("demotions = %d, native crashes = %d, want 0 and 0", m.NativeDemotions, m.Native.Crashes)
			}
		})
	}
}

// TestPromotedProgramFailsAsTheEnginesSay: a program promoted on one input
// can fail on another. An artifact names the error but not where it
// happened, so that request is answered by an engine: the reply is the
// in-process server's, message and position, and the artifact is not
// demoted.
func TestPromotedProgramFailsAsTheEnginesSay(t *testing.T) {
	const src = "def main():\n    x = read_int()\n    print(10 / x)\n"
	srv, ts := nativeServer(t, nil)
	_, engines := inProcessServer(t)
	for _, backend := range []string{server.BackendVM, server.BackendInterp} {
		req := server.RunRequest{Source: src, File: "d.ttr", Backend: backend, Stdin: "2\n"}
		if rr := runUntilNative(t, ts.URL, req, 2*time.Minute); rr.Stdout != "5\n" {
			t.Fatalf("native run: %+v", rr)
		}
		req.Stdin = "0\n"
		want, got := run(t, engines.URL, req), run(t, ts.URL, req)
		if want.Error == nil || want.Error.Pos != "d.ttr:3:14" {
			t.Fatalf("the engines' reply has no positioned error: %+v", want.Error)
		}
		if got.Isolation == server.TierNative || got.Error == nil || *got.Error != *want.Error || got.Stdout != want.Stdout {
			t.Errorf("%s: reply on tier %s says %q, %+v; want the engines' %q, %+v",
				backend, got.Isolation, got.Stdout, got.Error, want.Stdout, want.Error)
		}
	}
	if m := srv.Metrics(); m.NativeDemotions != 0 {
		t.Errorf("a program's own error demoted its artifact %d time(s)", m.NativeDemotions)
	}
}
