package parity

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The serving invariants, written once: every HTTP request gets exactly
// one well-formed reply, and nothing — goroutine or child process —
// outlives its owner.

// Post sends body to url as JSON (a string is sent as it is), with the
// given headers, and returns the reply with its body read and closed.
func Post(t testing.TB, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	data, ok := body.(string)
	if !ok {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		data = string(b)
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	reply, err := Body(resp)
	if err != nil {
		t.Fatalf("POST %s: reading the reply: %v", url, err)
	}
	return resp, reply
}

// Body reads a reply's body and closes it.
func Body(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// errorBody is the wire form of every non-200 reply.
type errorBody struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// Reply holds one reply to the invariant that it is one well-formed body:
// a 200 is exactly one JSON value with no unknown field, decoded into ok
// when ok is not nil; any other status is an error body that says what
// went wrong and whose code is the status. It reports whether the reply
// was a well-formed 200.
func Reply(t testing.TB, resp *http.Response, body []byte, ok any) bool {
	t.Helper()
	if resp.StatusCode == http.StatusOK {
		if ok == nil {
			ok = &json.RawMessage{}
		}
		if err := decodeOne(body, ok); err != nil {
			t.Errorf("malformed 200 body: %v: %s", err, body)
			return false
		}
		return true
	}
	var eb errorBody
	if err := decodeOne(body, &eb); err != nil || eb.Code != resp.StatusCode || eb.Error == "" {
		t.Errorf("malformed %d body: %s", resp.StatusCode, body)
	}
	return false
}

// decodeOne decodes exactly one JSON value with no unknown field.
func decodeOne(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("more than one JSON value")
	}
	return nil
}

// Goroutines is a settled snapshot of the running goroutines, taken
// before a test starts what it must later stop.
type Goroutines struct {
	n   int
	ids map[string]bool
}

// Settle lets finished goroutines unwind and takes the snapshot.
func Settle() Goroutines {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	g := Goroutines{n: runtime.NumGoroutine(), ids: map[string]bool{}}
	for _, s := range stacks() {
		g.ids[goroutineID(s)] = true
	}
	return g
}

// Check fails t unless, within wait, the goroutine count comes back to
// within 2 of the snapshot (runtime helpers come and go). A failure
// prints the stacks of the goroutines the snapshot did not have.
func (g Goroutines) Check(t testing.TB, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= g.n+2 {
			return
		}
		if time.Now().After(deadline) {
			var extra []string
			for _, s := range stacks() {
				if !g.ids[goroutineID(s)] {
					extra = append(extra, s)
				}
			}
			t.Errorf("goroutine leak: %d above the settled baseline of %d after %s; the new ones:\n\n%s",
				n-g.n, g.n, wait, strings.Join(extra, "\n\n"))
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stacks returns one stack trace per running goroutine.
func stacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineID is the "goroutine N" header of a stack trace.
func goroutineID(stack string) string {
	head, _, _ := strings.Cut(stack, " [")
	return head
}

// Children is what a supervisor reports of the processes it started,
// plus any pids a test recorded on the way.
type Children struct {
	Spawns, Reaped int64
	Live           int
	PIDs           []int
}

// Check fails t unless no child outlives its owner: every spawn was
// reaped, none is live, and no recorded pid still exists (an unreaped
// zombie included).
func (c Children) Check(t testing.TB, who string) {
	t.Helper()
	if c.Reaped != c.Spawns || c.Live != 0 {
		t.Errorf("%s: children left: spawned %d, reaped %d, live %d", who, c.Spawns, c.Reaped, c.Live)
	}
	for _, pid := range c.PIDs {
		if err := syscall.Kill(pid, 0); err == nil {
			t.Errorf("%s: child pid %d still exists", who, pid)
		}
	}
}

// ChildPIDs lists this process's child processes, read from /proc; it
// skips the test where there is no /proc.
func ChildPIDs(t testing.TB) []int {
	t.Helper()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	if len(stats) == 0 {
		t.Skip("no /proc to list child processes from")
	}
	var pids []int
	for _, f := range stats {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // exited meanwhile
		}
		// "pid (comm) state ppid ...": comm may hold spaces and parentheses.
		s := string(data)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(f)))
			pids = append(pids, pid)
		}
	}
	return pids
}
