package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/parity"
)

func decodeRun(t *testing.T, data []byte) *RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("decoding RunResponse: %v\nbody: %s", err, data)
	}
	return &rr
}

func reqBody(t *testing.T, req RunRequest) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

const helloSrc = "def main():\n    print(\"hello\")\n"

func TestRunBothBackends(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, backend := range []string{BackendInterp, BackendVM} {
		resp, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: helloSrc, Backend: backend}), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, resp.StatusCode, body)
		}
		rr := decodeRun(t, body)
		if !rr.OK || rr.Stdout != "hello\n" || rr.Backend != backend {
			t.Errorf("%s: got %+v", backend, rr)
		}
	}
}

func TestStdinRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	src := "def main():\n    n = read_int()\n    print(n * 2)\n"
	for _, backend := range []string{BackendInterp, BackendVM} {
		_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: src, Stdin: "21\n", Backend: backend}), nil)
		rr := decodeRun(t, body)
		if !rr.OK || rr.Stdout != "42\n" {
			t.Errorf("%s: got %+v", backend, rr)
		}
	}
}

func TestCompileErrorIsData(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	resp, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: "def main():\n    x = y\n", File: "bad.ttr"}), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile errors must be 200 + diagnostic, got %d", resp.StatusCode)
	}
	rr := decodeRun(t, body)
	if rr.OK || rr.Error == nil || rr.Error.Stage != "compile" {
		t.Fatalf("got %+v", rr)
	}
	if !strings.Contains(rr.Error.Message, "bad.ttr") {
		t.Errorf("compile diagnostic should carry the file name: %q", rr.Error.Message)
	}
}

func TestRuntimeErrorHasPosition(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	src := "def main():\n    x = 1 / 0\n"
	for _, backend := range []string{BackendInterp, BackendVM} {
		_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: src, File: "div.ttr", Backend: backend}), nil)
		rr := decodeRun(t, body)
		if rr.OK || rr.Error == nil || rr.Error.Stage != "runtime" {
			t.Fatalf("%s: got %+v", backend, rr)
		}
		if rr.Error.Pos == "" || !strings.HasPrefix(rr.Error.Pos, "div.ttr:") {
			t.Errorf("%s: missing position, got %+v", backend, rr.Error)
		}
		if !strings.Contains(rr.Error.Message, "division by zero") {
			t.Errorf("%s: message %q", backend, rr.Error.Message)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	optBad := 7
	optNeg := -1
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"source": "def`},
		{"unknown field", `{"sourec": "def main():\n    pass\n"}`},
		{"empty source", `{"source": ""}`},
		{"bad backend", reqBody(t, RunRequest{Source: helloSrc, Backend: "gort"})},
		{"opt out of range", reqBody(t, RunRequest{Source: helloSrc, Backend: "vm", Opt: &optBad})},
		{"negative opt", reqBody(t, RunRequest{Source: helloSrc, Backend: "vm", Opt: &optNeg})},
		{"negative limit", reqBody(t, RunRequest{Source: helloSrc, Limits: &LimitSpec{MaxSteps: -5}})},
		{"trace on vm", reqBody(t, RunRequest{Source: helloSrc, Backend: "vm", Trace: true})},
		{"race on vm", reqBody(t, RunRequest{Source: helloSrc, Backend: "vm", Race: true})},
		{"trailing garbage", `{"source": "def main():\n    pass\n"} {"again": 1}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := parity.Post(t, ts.URL+"/run", c.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("want 400, got %d: %s", resp.StatusCode, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" || er.Code != 400 {
				t.Errorf("malformed error body: %s", body)
			}
		})
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: want 405, got %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: want 404, got %d", resp.StatusCode)
	}
}

func TestClampLimits(t *testing.T) {
	ceiling := guard.Limits{
		Deadline:       2 * time.Second,
		MaxSteps:       1000,
		MaxThreads:     10,
		MaxOutputBytes: 4096,
		MaxAllocCells:  1 << 20,
	}
	cases := []struct {
		name string
		req  *LimitSpec
		want guard.Limits
	}{
		{"nil inherits ceiling", nil, ceiling},
		{"zero fields inherit", &LimitSpec{}, ceiling},
		{"tighter wins", &LimitSpec{TimeoutMS: 100, MaxSteps: 10}, guard.Limits{
			Deadline: 100 * time.Millisecond, MaxSteps: 10, MaxThreads: 10,
			MaxOutputBytes: 4096, MaxAllocCells: 1 << 20}},
		{"looser is clamped", &LimitSpec{TimeoutMS: 60_000, MaxSteps: 1 << 40, MaxThreads: 1 << 30,
			MaxOutputBytes: 1 << 40, MaxAllocCells: 1 << 40}, ceiling},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ClampLimits(c.req, ceiling); got != c.want {
				t.Errorf("got %+v, want %+v", got, c.want)
			}
		})
	}
	// An unlimited ceiling axis lets the request bound itself.
	free := guard.Limits{}
	got := ClampLimits(&LimitSpec{MaxSteps: 77}, free)
	if got.MaxSteps != 77 || got.Deadline != 0 {
		t.Errorf("unlimited ceiling: got %+v", got)
	}
}

func TestPerRequestLimitIsClamped(t *testing.T) {
	// Server ceiling: 50k steps. The client asks for 100 billion and runs
	// an infinite loop: the ceiling must win, and the diagnostic must name
	// the clamped budget.
	ts := httptest.NewServer(New(Options{Ceiling: guard.Limits{MaxSteps: 50_000}, NoSandboxDefaults: true}))
	defer ts.Close()
	src := "def main():\n    while true:\n        pass\n"
	_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{
		Source: src,
		Limits: &LimitSpec{MaxSteps: 100_000_000_000},
	}), nil)
	rr := decodeRun(t, body)
	if rr.OK || rr.Error == nil {
		t.Fatalf("infinite loop must trip the step budget: %+v", rr)
	}
	if !strings.Contains(rr.Error.Message, "step budget (50000)") {
		t.Errorf("diagnostic should name the clamped budget: %q", rr.Error.Message)
	}
}

func TestTightRequestLimitWithinCeiling(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	src := "def main():\n    while true:\n        pass\n"
	start := time.Now()
	_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: src, Limits: &LimitSpec{MaxSteps: 500}}), nil)
	rr := decodeRun(t, body)
	if rr.OK || rr.Error == nil || !strings.Contains(rr.Error.Message, "step budget (500)") {
		t.Fatalf("got %+v", rr)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("tight budget should trip fast")
	}
}

func TestTraceAndRaceReports(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	racy := `def main():
    count = 0
    parallel for i in [1 .. 4]:
        count = count + 1
    print("done")
`
	_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: racy, Trace: true, Race: true}), nil)
	rr := decodeRun(t, body)
	if rr.Error != nil {
		t.Fatalf("run failed: %+v", rr.Error)
	}
	if rr.Trace == nil || rr.Trace.Threads < 5 || rr.Trace.Steps == 0 {
		t.Errorf("trace summary missing or implausible: %+v", rr.Trace)
	}
	if len(rr.Races) == 0 || !strings.Contains(rr.Races[0], "RACE on count") {
		t.Errorf("lockset detector should flag count: %v", rr.Races)
	}

	// The locked version must come back clean.
	locked := `def main():
    count = 0
    parallel for i in [1 .. 4]:
        lock c:
            count = count + 1
    print(count)
`
	_, body = parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: locked, Race: true}), nil)
	rr = decodeRun(t, body)
	if rr.Stdout != "4\n" || len(rr.Races) != 0 {
		t.Errorf("locked counter: stdout=%q races=%v", rr.Stdout, rr.Races)
	}
}

func TestCacheHitReporting(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	req := reqBody(t, RunRequest{Source: helloSrc, Backend: BackendVM, File: "h.ttr"})
	_, body := parity.Post(t, ts.URL+"/run", req, nil)
	if rr := decodeRun(t, body); rr.CacheHit {
		t.Error("first sight of a source cannot be a cache hit")
	}
	_, body = parity.Post(t, ts.URL+"/run", req, nil)
	if rr := decodeRun(t, body); !rr.CacheHit {
		t.Error("second run of the same source must hit the cache")
	}
}

func TestAdmission429(t *testing.T) {
	// One slot, no queue headroom, fast timeout: a long-running program
	// occupies the slot and everyone else bounces with a well-formed 429.
	ts := httptest.NewServer(New(Options{
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 30 * time.Millisecond,
	}))
	defer ts.Close()

	slow := "def main():\n    sleep(1500)\n    print(\"done\")\n"
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: slow}), nil)
		if rr := decodeRun(t, body); !rr.OK {
			t.Errorf("occupant failed: %+v", rr)
		}
	}()
	<-started
	time.Sleep(150 * time.Millisecond) // let the occupant take the slot

	saw429 := 0
	for i := 0; i < 6; i++ {
		resp, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: helloSrc}), nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Code != 429 || er.Error == "" {
				t.Errorf("malformed 429 body: %s", body)
			}
		}
	}
	if saw429 == 0 {
		t.Error("expected at least one admission rejection")
	}
	wg.Wait()
}

func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: helloSrc}), nil)
	parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: helloSrc, Backend: BackendVM}), nil)
	parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: "def main(:\n    pass\n"}), nil) // compile error

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests < 3 {
		t.Errorf("requests = %d, want >= 3", m.Requests)
	}
	if m.OKRuns < 2 {
		t.Errorf("ok_runs = %d, want >= 2", m.OKRuns)
	}
	if m.Latency[BackendInterp].Count == 0 || m.Latency[BackendVM].Count == 0 {
		t.Errorf("latency histograms not populated: %+v", m.Latency)
	}
	if m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("idle server reports in_flight=%d queue=%d", m.InFlight, m.QueueDepth)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv := New(Options{DrainGrace: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	if err := srv.Drain(nil); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: want 503, got %d", resp.StatusCode)
	}
	resp, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: helloSrc}), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run while draining: want 503, got %d: %s", resp.StatusCode, body)
	}
}

// TestDrainCancelsLockParkedProgram is the liveness property the ISSUE
// names: a program parked on a Tetra lock held by a sleeping background
// thread cannot hold the drain hostage — the governor trip wakes it.
func TestDrainCancelsLockParkedProgram(t *testing.T) {
	srv := New(Options{DrainGrace: 100 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parked := `def hold():
    lock a:
        sleep(30000)

def main():
    background:
        hold()
    sleep(100)
    lock a:
        print("never")
`
	done := make(chan *RunResponse, 1)
	go func() {
		_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: parked}), nil)
		done <- decodeRun(t, body)
	}()
	time.Sleep(400 * time.Millisecond) // let main park on the lock

	start := time.Now()
	if err := srv.Drain(nil); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("drain took %s; governor trip should wake the parked program promptly", d)
	}
	select {
	case rr := <-done:
		if rr.OK || rr.Error == nil {
			t.Errorf("cancelled run should report an error, got %+v", rr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never returned after drain")
	}
}

// TestDrainCancelsLockParkedVM is the same liveness property on the VM
// backend, whose lock table parks waiters interruptibly for exactly this
// path (vm.lockTable).
func TestDrainCancelsLockParkedVM(t *testing.T) {
	srv := New(Options{DrainGrace: 100 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parked := `def hold():
    lock a:
        sleep(30000)

def main():
    background:
        hold()
    sleep(100)
    lock a:
        print("never")
`
	done := make(chan *RunResponse, 1)
	go func() {
		_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: parked, Backend: BackendVM}), nil)
		done <- decodeRun(t, body)
	}()
	time.Sleep(400 * time.Millisecond) // let main park on the lock

	start := time.Now()
	if err := srv.Drain(nil); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("drain took %s; governor trip should wake the parked program promptly", d)
	}
	select {
	case rr := <-done:
		if rr.OK || rr.Error == nil {
			t.Errorf("cancelled run should report an error, got %+v", rr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never returned after drain")
	}
}

func TestOutputBudgetBoundsResponse(t *testing.T) {
	ts := httptest.NewServer(New(Options{Ceiling: guard.Limits{MaxOutputBytes: 1024}, NoSandboxDefaults: true}))
	defer ts.Close()
	flood := "def main():\n    while true:\n        print(\"xxxxxxxxxxxxxxxx\")\n"
	_, body := parity.Post(t, ts.URL+"/run", reqBody(t, RunRequest{Source: flood}), nil)
	rr := decodeRun(t, body)
	if rr.OK || rr.Error == nil || !strings.Contains(rr.Error.Message, "output budget") {
		t.Fatalf("got %+v", rr)
	}
	if len(rr.Stdout) > 2048 {
		t.Errorf("stdout grew past the budget: %d bytes", len(rr.Stdout))
	}
}

func ExampleClampLimits() {
	ceiling := guard.Limits{MaxSteps: 1000}
	eff := ClampLimits(&LimitSpec{MaxSteps: 1 << 40}, ceiling)
	fmt.Println(eff.MaxSteps)
	// Output: 1000
}
