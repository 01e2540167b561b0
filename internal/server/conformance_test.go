package server_test

import (
	"testing"
	"time"

	"repro/internal/parity"
	"repro/internal/server"
)

// tetrad's doors of the parity matrix: every golden program at every
// engine of the table through the server's own process, the supervised
// worker pool, the promoted native artifact and a debug session run to
// completion. Each must be a transport, never a semantic layer: what a
// reply says the program printed and how it failed is what the engines
// say.

func TestServerConformanceGoldenCorpus(t *testing.T) {
	_, ts := inProcessServer(t)
	parity.Matrix(t, "tetrad", parity.Corpus(t), runDoor(ts.URL, server.TierInProc))
}

func TestWorkerPathConformanceGoldenCorpus(t *testing.T) {
	_, ts := poolServer(t, func(o *server.Options) {
		// The matrix must measure the worker path, not the fallback:
		// serialize admissions well below the pool size.
		o.MaxInFlight = 2
	})
	warmUp(t, ts.URL)
	parity.Matrix(t, "worker", parity.Corpus(t), runDoor(ts.URL, server.TierWorker))
}

func TestNativeTierConformanceGoldenCorpus(t *testing.T) {
	// A tetrad builds one artifact at a time. Two of them, each promoting
	// every other program from the start (one engine-answered run promotes
	// at threshold 1), build while the matrix runs what is built.
	corpus := parity.Corpus(t)
	sa, a := nativeServer(t, nil)
	sb, b := nativeServer(t, nil)
	// Each server's cleanup counts goroutines against its own start, so
	// both drain first: the other's resident artifacts must be gone.
	t.Cleanup(func() {
		_ = sa.Drain(nil)
		_ = sb.Drain(nil)
	})
	node := map[string]string{}
	for i, c := range corpus {
		node[c.Name] = []string{a.URL, b.URL}[i%2]
		run(t, node[c.Name], runRequest(c, parity.Variants[0]))
	}
	srv := map[string]*server.Server{a.URL: sa, b.URL: sb}
	// Every golden is answered twice by one resident process: the second
	// reply must equal the first, and the runner starts nothing for it.
	parity.Matrix(t, "native", corpus, func(t *testing.T, c parity.Case, v parity.Variant) parity.Result {
		url := node[c.Name]
		rr := runUntilNative(t, url, runRequest(c, v), 2*time.Minute)
		if !rr.CacheHit {
			t.Error("native response should report the artifact as a cache hit")
		}
		spawns := srv[url].Native().Stats().Spawns
		again := run(t, url, runRequest(c, v))
		if again.Isolation != server.TierNative || runResult(&again) != runResult(rr) {
			t.Errorf("second run on tier %s answered %+v, first %+v", again.Isolation, runResult(&again), runResult(rr))
		}
		if n := srv[url].Native().Stats().Spawns; n != spawns {
			t.Errorf("second run started %d process(es); want the resident one reused", n-spawns)
		}
		return runResult(rr)
	})
}

func TestSessionConformanceGoldenCorpus(t *testing.T) {
	_, ts := inProcessServer(t)
	parity.Matrix(t, "session", parity.Corpus(t), sessionDoor(ts.URL))
}

// runRequest is the /run request for c at variant v.
func runRequest(c parity.Case, v parity.Variant) server.RunRequest {
	req := server.RunRequest{Source: c.Src, Stdin: c.Stdin, File: c.FileName(), Backend: v.Backend}
	if v.Backend == server.BackendVM {
		opt := v.Opt
		req.Opt = &opt
	}
	return req
}

// runResult is what a reply says the program did.
func runResult(rr *server.RunResponse) parity.Result {
	r := parity.Result{Stdout: rr.Stdout}
	if rr.Error != nil {
		r.Err = rr.Error.Message
	}
	return r
}

// runDoor posts each case to url's /run, holds the reply to the serving
// invariant and requires it to have run on tier.
func runDoor(url, tier string) parity.Door {
	return func(t *testing.T, c parity.Case, v parity.Variant) parity.Result {
		resp, body := parity.Post(t, url+"/run", runRequest(c, v), nil)
		var rr server.RunResponse
		if !parity.Reply(t, resp, body, &rr) {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if rr.Isolation != tier || rr.Backend != v.Backend {
			t.Errorf("ran %s on tier %q, want %s on %q", rr.Backend, rr.Isolation, v.Backend, tier)
		}
		return runResult(&rr)
	}
}

// sessionDoor runs each case as a debug session to completion
// (stop_on_entry off, stdin seeded at create) and reads its transcript and
// error. A session is the debugger's interpreter: it has no VM to select,
// so the VM rows of its matrix are skipped.
func sessionDoor(url string) parity.Door {
	off := false
	return func(t *testing.T, c parity.Case, v parity.Variant) parity.Result {
		if v.Backend != server.BackendInterp {
			t.Skip("a session runs on the debugger's interpreter only")
		}
		sr := createSession(t, url, server.SessionRequest{
			Source: c.Src, File: c.FileName(), Stdin: c.Stdin, StopOnEntry: &off,
		})
		waitSessionDone(t, url, sr.ID, 60*time.Second)
		out := sessionCmd(t, url, sr.ID, server.SessionCmdRequest{Cmd: "output"})
		snap := sessionSnapshot(t, url, sr.ID)
		sessionCmd(t, url, sr.ID, server.SessionCmdRequest{Cmd: "close"})
		return parity.Result{Stdout: out.Output, Err: snap.Error}
	}
}
