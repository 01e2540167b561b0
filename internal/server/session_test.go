package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/parity"
	"repro/internal/server"
	"repro/internal/session"
)

// --- HTTP helpers -------------------------------------------------------

func createSession(t *testing.T, base string, req server.SessionRequest) server.SessionResponse {
	t.Helper()
	resp, body := parity.Post(t, base+"/session", req, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /session: status %d: %s", resp.StatusCode, body)
	}
	var sr server.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func sessionCmd(t *testing.T, base, id string, req server.SessionCmdRequest) server.SessionCmdResponse {
	t.Helper()
	resp, body := parity.Post(t, base+"/session/"+id+"/cmd", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cmd %q: status %d: %s", req.Cmd, resp.StatusCode, body)
	}
	var cr server.SessionCmdResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	Event string
	Data  []byte
}

// streamEvents connects to the session's SSE endpoint and forwards frames
// until the stream ends; the returned func closes the connection early
// (the mid-stream disconnect in the soak test).
func streamEvents(t *testing.T, base, id string) (<-chan sseFrame, func()) {
	t.Helper()
	resp, err := http.Get(base + "/session/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET events: status %d", resp.StatusCode)
	}
	ch := make(chan sseFrame, 4096)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		var ev sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.Event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.Data = []byte(strings.TrimPrefix(line, "data: "))
			case line == "" && ev.Event != "":
				ch <- ev
				ev = sseFrame{}
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// collectUntilEnd drains the frame channel until the terminal "end" frame
// (returned decoded) or the deadline.
func collectUntilEnd(t *testing.T, ch <-chan sseFrame, deadline time.Duration) ([]sseFrame, *session.StreamEvent) {
	t.Helper()
	var frames []sseFrame
	timeout := time.After(deadline)
	for {
		select {
		case fr, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed without an end frame; %d frames", len(frames))
			}
			frames = append(frames, fr)
			if fr.Event == session.EventEnd {
				var end session.StreamEvent
				if err := json.Unmarshal(fr.Data, &end); err != nil {
					t.Fatalf("bad end frame %s: %v", fr.Data, err)
				}
				return frames, &end
			}
		case <-timeout:
			t.Fatalf("no end frame within %s; %d frames", deadline, len(frames))
		}
	}
}

// --- conformance --------------------------------------------------------

// TestSessionConformanceSteppedToCompletion steps a golden-corpus program
// to completion one statement at a time through the session API and
// requires its output to be byte-identical to the CLI debugger doing the
// exact same thing (and both identical to the committed golden): the
// session layer must be a transport over the debugger, never a semantic
// layer.
func TestSessionConformanceSteppedToCompletion(t *testing.T) {
	var fizz parity.Case
	for _, c := range parity.Corpus(t) {
		if c.Name == "fizzbuzz" {
			fizz = c
		}
	}
	if fizz.Want == nil {
		t.Fatal("no fizzbuzz in the golden corpus")
	}
	src, golden := fizz.Src, fizz.Want.Stdout

	// Reference: the CLI debugger's engine, stepped to completion the way
	// tetradbg's `step` command drives it.
	prog, err := core.Compile("fizzbuzz.ttr", src)
	if err != nil {
		t.Fatal(err)
	}
	var cliOut bytes.Buffer
	dcfg := debugger.Config{StopOnEntry: true}
	dcfg.Core.Stdout = &cliOut
	eng := debugger.Run(prog, dcfg)
	if !eng.WaitPaused(0, 5*time.Second) {
		t.Fatal("reference debugger never parked")
	}
	for i := 0; i < 10000; i++ {
		if _, res := eng.StepAndWait(0, 5*time.Second); res != debugger.StepParked {
			if res != debugger.StepFinished {
				t.Fatalf("reference step: %v", res)
			}
			break
		}
	}
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if cliOut.String() != golden {
		t.Fatalf("CLI debugger output drifted from golden:\n%q", cliOut.String())
	}

	// The same stepping, over the wire.
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	sr := createSession(t, ts.URL, server.SessionRequest{Source: src, File: "fizzbuzz.ttr"})
	if cr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "wait", Thread: 0}); !cr.OK {
		t.Fatalf("session never parked: %+v", cr)
	}
	for i := 0; ; i++ {
		if i >= 10000 {
			t.Fatal("session step did not finish")
		}
		cr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "step", Thread: 0})
		if cr.Result == "parked" {
			continue
		}
		if cr.Result != "finished" {
			t.Fatalf("session step: %+v", cr)
		}
		break
	}
	waitSessionDone(t, ts.URL, sr.ID, 10*time.Second)
	out := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "output"})
	if out.Output != cliOut.String() {
		t.Errorf("session output differs from CLI debugger:\nsession: %q\ncli:     %q", out.Output, cliOut.String())
	}
}

func waitSessionDone(t *testing.T, base, id string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		cr := sessionCmd(t, base, id, server.SessionCmdRequest{Cmd: "threads"})
		if cr.Done {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("session %s not done within %s", id, deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sessionSnapshot reads GET /session/{id}.
func sessionSnapshot(t *testing.T, base, id string) server.SessionSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := parity.Body(resp)
	if err != nil {
		t.Fatal(err)
	}
	var snap server.SessionSnapshot
	if !parity.Reply(t, resp, body, &snap) {
		t.Fatalf("GET /session/%s: status %d: %s", id, resp.StatusCode, body)
	}
	return snap
}

// --- acceptance ---------------------------------------------------------

// acceptanceSrc is the acceptance-criteria program: two worker threads
// racing on an unlocked counter, with a warm-up spin pushing well over
// 1000 events through the trace ring before the racy part so the
// lockset-violating accesses survive the ring's eviction. A parallel
// block (not a parallel for) guarantees exactly one debuggable thread
// per statement regardless of how the scheduler chunks loop iterations.
// Augmented assignment evaluates its RHS first, so each worker touches
// count only after its spin — the test serializes the workers to make
// the final value deterministic; main's unlocked `count = 0` just
// before the fork keeps main live in the retained window, so a worker's
// write is a second-thread write and the race is always reported.
const acceptanceSrc = `def spin(n int) int:
    j = 0
    while j < n:
        j += 1
    return j / n

def main():
    warm = spin(3000)
    count = 0
    parallel:
        count += spin(100)
        count += spin(100)
    print(count * warm)
`

// TestSessionAcceptanceE2E drives the ISSUE's acceptance script against a
// live tetrad over real HTTP: set a breakpoint, step two threads
// independently, stream >= 1000 trace events through a capped ring, and
// receive a race summary; closing the session evicts it.
func TestSessionAcceptanceE2E(t *testing.T) {
	goroutines := parity.Settle()
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)

	sr := createSession(t, ts.URL, server.SessionRequest{
		Source:   acceptanceSrc,
		File:     "race.ttr",
		TraceCap: 1024,
	})
	frames, cancelStream := streamEvents(t, ts.URL, sr.ID)
	defer cancelStream()

	// Breakpoint on the final print, hit after both workers finish.
	if cr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "break", Line: 13}); !cr.OK {
		t.Fatalf("break: %+v", cr)
	}
	if cr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "wait", Thread: 0}); !cr.OK {
		t.Fatalf("main never parked on entry: %+v", cr)
	}
	// Release main; it spawns both workers, which park at birth
	// (stop-on-entry is the session default).
	sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "continue", Thread: 0})
	waitForThreads := func(want int) []session.ThreadInfo {
		stop := time.Now().Add(10 * time.Second)
		for {
			cr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "threads"})
			paused := []session.ThreadInfo{}
			for _, th := range cr.Threads {
				if th.ID != 0 && th.Paused {
					paused = append(paused, th)
				}
			}
			if len(paused) >= want {
				return paused
			}
			if time.Now().After(stop) {
				t.Fatalf("only %d parked workers, want %d: %+v", len(paused), want, cr.Threads)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	workers := waitForThreads(2)
	w1, w2 := workers[0].ID, workers[1].ID

	// Step the two workers independently: stepping one must not move the
	// other.
	before2, _ := threadState(t, ts.URL, sr.ID, w2)
	st1 := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "step", Thread: w1})
	if st1.Result != "parked" || st1.Thread == nil {
		t.Fatalf("step w1: %+v", st1)
	}
	st1b := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "step", Thread: w1})
	if st1b.Result != "parked" {
		t.Fatalf("step w1 again: %+v", st1b)
	}
	after2, _ := threadState(t, ts.URL, sr.ID, w2)
	if before2.Line != after2.Line || before2.Col != after2.Col {
		t.Errorf("stepping thread %d moved thread %d: %+v -> %+v", w1, w2, before2, after2)
	}
	st2 := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "step", Thread: w2})
	if st2.Result != "parked" || st2.Thread == nil {
		t.Fatalf("step w2: %+v", st2)
	}

	// Release w1 and let it run to completion before releasing w2: the
	// workers' count updates then happen in a fixed order, so the value
	// at the breakpoint is deterministic even though the accesses are
	// unsynchronized (the lockset detector flags them regardless).
	sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "continue", Thread: w1})
	for stop := time.Now().Add(10 * time.Second); ; {
		st, _ := threadState(t, ts.URL, sr.ID, w1)
		if st.Finished {
			break
		}
		if time.Now().After(stop) {
			t.Fatalf("worker %d never finished: %+v", w1, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "continue", Thread: w2})
	wr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "wait", Thread: 0, TimeoutMS: 10000})
	if !wr.OK || wr.Thread == nil || wr.Thread.Line != 13 {
		t.Fatalf("main did not park on the breakpoint: %+v", wr)
	}
	vr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "vars", Thread: 0})
	if vr.Vars["count"] != "2" {
		t.Errorf("count at breakpoint = %q, want 2", vr.Vars["count"])
	}
	sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "continue_all"})

	collected, end := collectUntilEnd(t, frames, 30*time.Second)
	if end.Reason != session.ReasonFinished {
		t.Fatalf("end reason %q, want finished: %+v", end.Reason, end)
	}
	var stdout strings.Builder
	traceSeen := 0
	for _, fr := range collected {
		switch fr.Event {
		case session.EventStdout:
			var ev session.StreamEvent
			if err := json.Unmarshal(fr.Data, &ev); err != nil {
				t.Fatal(err)
			}
			stdout.WriteString(ev.Text)
		case session.EventTrace:
			traceSeen++
		}
	}
	// A subscriber that falls behind the trace flood misses frames, counted
	// in the terminal event, and the one stdout frame can be among them.
	if got := stdout.String(); got != "2\n" && (got != "" || end.StreamDropped == 0) {
		t.Errorf("streamed stdout = %q with %d frames dropped, want 2", got, end.StreamDropped)
	}

	// >= 1000 trace events must have flowed through the capped ring: the
	// stream saw them (minus what this subscriber dropped) and the ring
	// retained at most its cap.
	tr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "trace"})
	if tr.Trace == nil {
		t.Fatal("no trace stats")
	}
	if tr.Trace.Total < 1000 {
		t.Errorf("trace total = %d, want >= 1000", tr.Trace.Total)
	}
	if tr.Trace.Retained > 1024 {
		t.Errorf("trace retained = %d events, cap 1024", tr.Trace.Retained)
	}
	if tr.Trace.Dropped == 0 {
		t.Error("trace ring dropped nothing; the cap was never exercised")
	}
	if int64(traceSeen)+end.StreamDropped < 1000 {
		t.Errorf("stream delivered %d trace frames (+%d dropped), want >= 1000 through the stream",
			traceSeen, end.StreamDropped)
	}

	// The race summary names the unlocked counter.
	rr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "races"})
	if len(rr.Races) == 0 {
		t.Fatal("no races reported for an unlocked parallel counter")
	}
	if !strings.Contains(rr.Races[0], "count") {
		t.Errorf("race text = %q, want it to name count", rr.Races[0])
	}

	// Closing the session evicts it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if _, body := parity.Post(t, ts.URL+"/session/"+sr.ID+"/cmd", server.SessionCmdRequest{Cmd: "threads"}, nil); !bytes.Contains(body, []byte("no such session")) {
		t.Errorf("closed session still answers: %s", body)
	}

	met := metricsSnapshot(t, ts.URL)
	if met.Sessions == nil || met.Sessions.Active != 0 || met.Sessions.Created < 1 || met.Sessions.Evicted < 1 {
		t.Errorf("session metrics = %+v", met.Sessions)
	}
	if met.Latency["stream_lag"].Count == 0 {
		t.Error("stream_lag histogram never observed a delivery")
	}

	ts.Close()
	if err := srv.Drain(nil); err != nil {
		t.Fatal(err)
	}
	goroutines.Check(t, 10*time.Second)
}

// TestTraceCapOnlyTightens: trace_cap may tighten the trace ring's bound and
// never loosen it. On /run the bound is trace.DefaultCap, on /session the
// server's session bound; 0 means that bound.
func TestTraceCapOnlyTightens(t *testing.T) {
	const sessionBound, huge = 4096, 1_000_000_000
	srv := server.New(server.Options{SessionTraceCap: sessionBound})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		_ = srv.Drain(nil)
	}()

	t.Run("run", func(t *testing.T) {
		// 70 000 statements: more events than trace.DefaultCap retains.
		src := "def main():\n    i = 0\n    while i < 70000:\n        i = i + 1\n"
		resp, body := parity.Post(t, ts.URL+"/run", server.RunRequest{Source: src, Trace: true, TraceCap: huge}, nil)
		var rr server.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if rr.Trace == nil || rr.Trace.Dropped == 0 {
			t.Errorf("trace_cap %d kept every event: %+v", huge, rr.Trace)
		}
	})
	t.Run("session", func(t *testing.T) {
		for _, c := range []struct{ req, want int }{{0, sessionBound}, {1024, 1024}, {huge, sessionBound}} {
			sr := createSession(t, ts.URL, server.SessionRequest{Source: "def main():\n    print(1)\n", TraceCap: c.req})
			if tr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "trace"}); tr.Trace == nil || tr.Trace.Cap != c.want {
				t.Errorf("trace_cap %d: ring %+v, want cap %d", c.req, tr.Trace, c.want)
			}
			sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "close"})
		}
	})
}

func threadState(t *testing.T, base, id string, thread int) (session.ThreadInfo, bool) {
	t.Helper()
	cr := sessionCmd(t, base, id, server.SessionCmdRequest{Cmd: "thread", Thread: thread})
	if cr.Thread == nil {
		return session.ThreadInfo{}, false
	}
	return *cr.Thread, cr.OK
}

func metricsSnapshot(t *testing.T, base string) server.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var met server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	return met
}

// --- soak ---------------------------------------------------------------

// TestSessionSoak exercises the lifecycle edges concurrently under -race:
// sessions that run to completion while streamed, clients that disconnect
// mid-stream, sessions abandoned until idle eviction, stdin-fed sessions,
// and finally a drain over live sessions — with a goroutine-leak check
// over the whole ordeal.
func TestSessionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	goroutines := parity.Settle()
	srv := server.New(server.Options{
		MaxSessions:        64,
		SessionIdleTimeout: 300 * time.Millisecond,
		DrainGrace:         time.Second,
	})
	ts := httptest.NewServer(srv)

	off := false
	busy := "def main():\n    x = 0\n    for i in [0 .. 2000]:\n        x = i\n    print(x)\n"
	blocked := "def main():\n    n = read_int()\n    print(n * 2)\n"

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 6; i++ {
		// Streamed to completion.
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := createSession(t, ts.URL, server.SessionRequest{Source: busy, StopOnEntry: &off})
			ch, cancel := streamEvents(t, ts.URL, sr.ID)
			defer cancel()
			_, end := collectUntilEnd(t, ch, 30*time.Second)
			if end.Reason != session.ReasonFinished {
				errs <- fmt.Errorf("streamed session ended %q", end.Reason)
			}
			sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "close"})
		}()

		// Mid-stream disconnect: the client vanishes, the session keeps
		// running and is later evicted by the idle reaper.
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := createSession(t, ts.URL, server.SessionRequest{Source: blocked, StopOnEntry: &off})
			ch, cancel := streamEvents(t, ts.URL, sr.ID)
			<-ch // first frame (hello), then hang up mid-stream
			cancel()
		}()

		// Stdin-fed to completion over the command endpoint.
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := createSession(t, ts.URL, server.SessionRequest{Source: blocked, StopOnEntry: &off})
			sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "stdin", Data: "21\n"})
			waitSessionDone(t, ts.URL, sr.ID, 20*time.Second)
			out := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "output"})
			if out.Output != "42\n" {
				errs <- fmt.Errorf("stdin-fed session output %q", out.Output)
			}
			sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "close"})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The disconnected sessions (blocked on read_int, no subscribers) must
	// be evicted by the idle reaper.
	deadline := time.Now().Add(15 * time.Second)
	for {
		met := metricsSnapshot(t, ts.URL)
		if met.Sessions != nil && met.Sessions.Active == 0 {
			if met.Sessions.EvictedIdle == 0 {
				t.Error("no idle evictions recorded")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions not evicted: %+v", metricsSnapshot(t, ts.URL).Sessions)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Drain over live sessions: readiness flips first, streams end with a
	// terminal drain frame, nothing leaks.
	sr := createSession(t, ts.URL, server.SessionRequest{Source: blocked, StopOnEntry: &off})
	ch, cancel := streamEvents(t, ts.URL, sr.ID)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(nil) }()
	_, end := collectUntilEnd(t, ch, 15*time.Second)
	if end.Reason != session.ReasonDrain {
		t.Errorf("drain stream ended %q, want drain", end.Reason)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(ts.URL + "/healthz/ready"); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("ready after drain: %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp, body := parity.Post(t, ts.URL+"/session", server.SessionRequest{Source: busy}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create while drained: status %d: %s", resp.StatusCode, body)
	}

	ts.Close()
	goroutines.Check(t, 15*time.Second)
}

// TestSessionCapRejectsOverHTTP verifies the 429 + Retry-After path.
func TestSessionCapRejectsOverHTTP(t *testing.T) {
	srv := server.New(server.Options{MaxSessions: 2})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); _ = srv.Drain(nil) }()

	off := false
	blocked := "def main():\n    n = read_int()\n    print(n)\n"
	for i := 0; i < 2; i++ {
		createSession(t, ts.URL, server.SessionRequest{Source: blocked, StopOnEntry: &off})
	}
	resp, body := parity.Post(t, ts.URL+"/session", server.SessionRequest{Source: blocked, StopOnEntry: &off}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	met := metricsSnapshot(t, ts.URL)
	if met.Sessions.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", met.Sessions.Rejected)
	}
}

// TestSessionBadRequests covers the validation edges.
func TestSessionBadRequests(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); _ = srv.Drain(nil) }()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty source", `{}`, http.StatusBadRequest},
		{"unknown field", `{"source":"def main():\n    print(1)\n","sourec":"x"}`, http.StatusBadRequest},
		{"trailing data", `{"source":"def main():\n    print(1)\n"}{}`, http.StatusBadRequest},
		{"bad breakpoint", `{"source":"def main():\n    print(1)\n","breakpoints":[0]}`, http.StatusBadRequest},
		{"negative trace cap", `{"source":"def main():\n    print(1)\n","trace_cap":-1}`, http.StatusBadRequest},
		{"compile error", `{"source":"def main(:\n"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/session", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/session/nope/events"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown session events: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// /cmd takes its body through the same intake as /session and /run.
	sr := createSession(t, ts.URL, server.SessionRequest{Source: "def main():\n    print(1)\n"})
	resp, err := http.Post(ts.URL+sr.CmdPath, "application/json", strings.NewReader(`{"cmd":"threads"}{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cmd with trailing data: status %d, want 400", resp.StatusCode)
	}
}

// TestSessionVarsAnswersOnlyForAParkedThread: vars reads a thread's frame
// only while the thread is parked, and otherwise says why not — "no-thread"
// for an unknown thread, "running" for one that is not parked.
func TestSessionVarsAnswersOnlyForAParkedThread(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); _ = srv.Drain(nil) }()

	off := false
	sr := createSession(t, ts.URL, server.SessionRequest{StopOnEntry: &off,
		Source: "def main():\n    i = 0\n    while i >= 0:\n        i += 1\n"})
	defer sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "close"})

	if vr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "vars", Thread: 9}); vr.OK || vr.Result != "no-thread" {
		t.Errorf("vars of an unknown thread: %+v", vr)
	}
	for stop := time.Now().Add(10 * time.Second); ; {
		if _, ok := threadState(t, ts.URL, sr.ID, 0); ok {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("main never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if vr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "vars", Thread: 0}); vr.OK || vr.Result != "running" || vr.Vars != nil {
		t.Errorf("vars of a running thread: %+v", vr)
	}
	sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "pause", Thread: 0})
	if wr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "wait", Thread: 0}); !wr.OK {
		t.Fatalf("main did not park: %+v", wr)
	}
	if vr := sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "vars", Thread: 0}); !vr.OK || vr.Vars["i"] == "" {
		t.Errorf("vars of the parked thread: %+v", vr)
	}
}

// TestSessionCreateWhileDrainingSaysWhenToRetry: the 503 of a draining node
// carries Retry-After on /session as it does on /run.
func TestSessionCreateWhileDrainingSaysWhenToRetry(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := srv.Drain(nil); err != nil {
		t.Fatal(err)
	}
	resp, body := parity.Post(t, ts.URL+"/session", server.SessionRequest{Source: "def main():\n    print(1)\n"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
}

// TestSessionSnapshotReportsIdleTime: idle_ms is how long the session sat
// untouched before the snapshot asked, and a command restarts the clock.
func TestSessionSnapshotReportsIdleTime(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); _ = srv.Drain(nil) }()

	sr := createSession(t, ts.URL, server.SessionRequest{Source: "def main():\n    print(1)\n"})
	idleMS := func() int64 {
		t.Helper()
		return sessionSnapshot(t, ts.URL, sr.ID).IdleMS
	}
	const left = 150 * time.Millisecond
	time.Sleep(left)
	if got := idleMS(); got < left.Milliseconds() {
		t.Errorf("idle_ms = %d after %s untouched", got, left)
	}
	time.Sleep(left)
	sessionCmd(t, ts.URL, sr.ID, server.SessionCmdRequest{Cmd: "threads"})
	if got := idleMS(); got >= left.Milliseconds() {
		t.Errorf("idle_ms = %d right after a command, want it reset", got)
	}
}
