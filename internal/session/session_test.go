package session

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/guard"
)

func compile(t *testing.T, src string) Config {
	t.Helper()
	prog, err := core.Compile("test.ttr", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	lim := guard.Limits{Deadline: 30 * time.Second}
	return Config{Prog: prog, File: "test.ttr", Limits: lim}
}

func newTestRegistry(t *testing.T, opts Options) *Registry {
	t.Helper()
	if opts.ReapInterval == 0 {
		opts.ReapInterval = 20 * time.Millisecond
	}
	r := NewRegistry(opts)
	t.Cleanup(r.Close)
	return r
}

// collect drains a subscriber until the channel closes, returning all
// frames plus the terminal event.
func collect(t *testing.T, sub *Subscriber) ([]StreamEvent, *StreamEvent) {
	t.Helper()
	var evs []StreamEvent
	deadline := time.After(10 * time.Second)
	for {
		select {
		case it, ok := <-sub.Ch():
			if !ok {
				return evs, sub.End()
			}
			evs = append(evs, it.Ev)
		case <-deadline:
			t.Fatalf("stream did not end; %d frames so far", len(evs))
		}
	}
}

func TestSessionRunsToCompletionAndStreams(t *testing.T) {
	r := newTestRegistry(t, Options{})
	cfg := compile(t, "def main():\n    print(1 + 2)\n")
	// The real client flow: create parked, attach the stream, then run —
	// so no frame can be published before anyone is listening.
	cfg.StopOnEntry = true
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	s.Engine().ContinueAll()
	evs, end := collect(t, sub)
	if end == nil || end.Reason != ReasonFinished {
		t.Fatalf("terminal event = %+v, want finished", end)
	}
	var out strings.Builder
	sawTrace := false
	for _, ev := range evs {
		switch ev.Type {
		case EventStdout:
			out.WriteString(ev.Text)
		case EventTrace:
			sawTrace = true
		}
	}
	if out.String() != "3\n" {
		t.Errorf("streamed stdout = %q, want %q", out.String(), "3\n")
	}
	if !sawTrace {
		t.Error("no trace frames streamed")
	}
	if s.Output() != "3\n" {
		t.Errorf("accumulated output = %q", s.Output())
	}
}

func TestSessionStepAndBreakpoints(t *testing.T) {
	r := newTestRegistry(t, Options{})
	cfg := compile(t, "def main():\n    x = 1\n    x = x + 1\n    print(x)\n")
	cfg.StopOnEntry = true
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Engine().WaitPaused(0, 5*time.Second) {
		t.Fatal("main thread never parked on entry")
	}
	st, res := s.Engine().StepAndWait(0, 5*time.Second)
	if res != debugger.StepParked {
		t.Fatalf("step: %v", res)
	}
	if st.Pos.Line != 3 {
		t.Errorf("after one step at line %d, want 3", st.Pos.Line)
	}
	vars, err := s.Vars(0)
	if err != nil || vars["x"] != "1" {
		t.Errorf("vars = %v (%v), want x=1", vars, err)
	}
	s.Engine().ContinueAll()
	<-s.Ended()
	if s.Output() != "2\n" {
		t.Errorf("output = %q, want 2", s.Output())
	}
}

func TestStreamedStdinUnblocksReader(t *testing.T) {
	r := newTestRegistry(t, Options{})
	cfg := compile(t, "def main():\n    n = read_int()\n    print(n * 2)\n")
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The program is now blocked in read_int; feed it over the wire.
	time.Sleep(50 * time.Millisecond)
	if err := s.WriteStdin("21\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Ended():
	case <-time.After(5 * time.Second):
		t.Fatal("program did not finish after stdin write")
	}
	if s.Output() != "42\n" {
		t.Errorf("output = %q, want 42", s.Output())
	}
}

func TestKillUnblocksStdinRead(t *testing.T) {
	r := newTestRegistry(t, Options{})
	cfg := compile(t, "def main():\n    n = read_int()\n    print(n)\n")
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	s.Close()
	select {
	case <-s.Ended():
	case <-time.After(5 * time.Second):
		t.Fatal("kill did not end a session blocked on stdin")
	}
	sub := s.Subscribe()
	_, end := collect(t, sub)
	if end == nil || end.Reason != ReasonClosed {
		t.Fatalf("terminal event = %+v, want closed", end)
	}
}

func TestRegistryCapRejects(t *testing.T) {
	r := newTestRegistry(t, Options{MaxSessions: 2})
	cfg := compile(t, "def main():\n    n = read_int()\n    print(n)\n")
	var held []*Session
	for i := 0; i < 2; i++ {
		s, err := r.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	if _, err := r.Create(cfg); err != ErrFull {
		t.Fatalf("third create: %v, want ErrFull", err)
	}
	st := r.Snapshot()
	if st.Active != 2 || st.Rejected != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Freeing a slot re-admits.
	r.Remove(held[0].ID, ReasonClosed)
	if _, err := r.Create(cfg); err != nil {
		t.Fatalf("create after remove: %v", err)
	}
}

func TestIdleEviction(t *testing.T) {
	r := newTestRegistry(t, Options{IdleTimeout: 80 * time.Millisecond, ReapInterval: 20 * time.Millisecond})
	cfg := compile(t, "def main():\n    n = read_int()\n    print(n)\n")
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With a subscriber attached the session must survive the timeout.
	sub := s.Subscribe()
	time.Sleep(200 * time.Millisecond)
	if _, ok := r.Get(s.ID); !ok {
		t.Fatal("session with live subscriber was evicted")
	}
	s.Unsubscribe(sub)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := r.Get(s.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was not evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	<-s.Ended()
	st := r.Snapshot()
	if st.EvictedIdle != 1 {
		t.Errorf("evicted_idle = %d, want 1", st.EvictedIdle)
	}
}

func TestCloseAllDeliversDrainEventAndJoins(t *testing.T) {
	before := countSettled()
	r := NewRegistry(Options{ReapInterval: 20 * time.Millisecond})
	cfg := compile(t, "def main():\n    n = read_int()\n    print(n)\n")
	var subs []*Subscriber
	for i := 0; i < 4; i++ {
		s, err := r.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s.Subscribe())
	}
	r.CloseAll(ReasonDrain)
	for i, sub := range subs {
		_, end := collect(t, sub)
		if end == nil || end.Reason != ReasonDrain {
			t.Fatalf("sub %d terminal event = %+v, want drain", i, end)
		}
	}
	if _, err := r.Create(cfg); err != ErrClosed {
		t.Fatalf("create after CloseAll: %v, want ErrClosed", err)
	}
	r.Close()
	if leaked := waitSettled(before, 5*time.Second); leaked > 0 {
		t.Errorf("goroutine leak after CloseAll: %d", leaked)
	}
}

func TestSlowSubscriberDropsFramesButGetsEnd(t *testing.T) {
	r := newTestRegistry(t, Options{})
	cfg := compile(t, "def main():\n    x = 0\n    for i in [0 .. 499]:\n        x = i\n    print(\"done\")\n")
	cfg.StreamBuffer = 4 // absurdly small: force drops
	cfg.StopOnEntry = true
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	s.Engine().ContinueAll()
	<-s.Ended() // never read: the subscriber is maximally slow
	evs, end := collect(t, sub)
	if end == nil {
		t.Fatalf("no terminal event; got %d frames", len(evs))
	}
	if end.StreamDropped == 0 {
		t.Error("slow subscriber reports zero dropped frames")
	}
	if len(evs) > 4 {
		t.Errorf("buffered frames = %d, want <= buffer 4", len(evs))
	}
}

// parkedLoop creates a session parked at main's first statement, running a
// loop that prints nothing: from here on every frame published is a trace
// frame. published reports how many there have been since.
func parkedLoop(t *testing.T, streamBuffer int) (s *Session, published func() int64) {
	t.Helper()
	r := newTestRegistry(t, Options{})
	cfg := compile(t, "def main():\n    x = 0\n    for i in [0 .. 999]:\n        x = i\n")
	cfg.StreamBuffer = streamBuffer
	cfg.StopOnEntry = true
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Engine().WaitPaused(0, 5*time.Second) {
		t.Fatal("main thread never parked on entry")
	}
	before := s.Trace().Total
	return s, func() int64 { return s.Trace().Total - before }
}

func traceFrames(evs []StreamEvent) (n int64) {
	for _, ev := range evs {
		if ev.Type == EventTrace {
			n++
		}
	}
	return n
}

// TestTraceFramesReceivedPlusDroppedIsPublished pins the accounting
// identity of the one buffer between the program and a subscriber: a trace
// frame is either received or counted in that subscriber's stream_dropped.
func TestTraceFramesReceivedPlusDroppedIsPublished(t *testing.T) {
	s, published := parkedLoop(t, 8)
	sub := s.Subscribe()
	s.Engine().ContinueAll()
	<-s.Ended() // never read: all but the first 8 frames are dropped
	evs, end := collect(t, sub)
	if end == nil || end.Reason != ReasonFinished {
		t.Fatalf("terminal event = %+v, want finished", end)
	}
	got, want := traceFrames(evs)+end.StreamDropped, published()
	if got != want || end.StreamDropped == 0 {
		t.Errorf("received %d + stream_dropped %d = %d, want the %d trace frames published",
			traceFrames(evs), end.StreamDropped, got, want)
	}
}

// TestTerminalFrameLastForEverySubscriber: with room for every frame, each
// of 16 subscribers has the run's last trace event in hand, and has lost
// nothing, when its channel closes with the terminal frame.
func TestTerminalFrameLastForEverySubscriber(t *testing.T) {
	s, published := parkedLoop(t, 1<<14)
	subs := make([]*Subscriber, 16)
	for i := range subs {
		subs[i] = s.Subscribe()
	}
	s.Engine().ContinueAll()
	for i, sub := range subs {
		evs, end := collect(t, sub)
		if end == nil || end.Reason != ReasonFinished || end.StreamDropped != 0 {
			t.Fatalf("sub %d terminal event = %+v, want finished with nothing dropped", i, end)
		}
		if n := traceFrames(evs); n != published() {
			t.Errorf("sub %d received %d trace frames before the end, %d were published", i, n, published())
		}
		if last := evs[len(evs)-1]; last.Trace == nil || last.Trace.Seq != s.Trace().Total {
			t.Errorf("sub %d: last frame before the end is %+v, want trace seq %d", i, last, s.Trace().Total)
		}
	}
}

func TestSubscribeAfterEndGetsTerminalEvent(t *testing.T) {
	r := newTestRegistry(t, Options{})
	cfg := compile(t, "def main():\n    print(\"hi\")\n")
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-s.Ended()
	sub := s.Subscribe()
	evs, end := collect(t, sub)
	if len(evs) != 0 {
		t.Errorf("late subscriber got %d frames, want 0", len(evs))
	}
	if end == nil || end.Reason != ReasonFinished {
		t.Fatalf("terminal event = %+v", end)
	}
}

func TestRaceSummaryOnDemand(t *testing.T) {
	r := newTestRegistry(t, Options{})
	src := "def main():\n    count = 0\n    parallel for i in [1 .. 8]:\n        count += 1\n    print(count)\n"
	cfg := compile(t, src)
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-s.Ended()
	races := s.Races()
	if len(races) == 0 {
		t.Fatal("unsynchronized parallel increment reported no races")
	}
	if !strings.Contains(races[0], "RACE on count") {
		t.Errorf("race text = %q", races[0])
	}
}

func TestTraceRingBoundedInSession(t *testing.T) {
	r := newTestRegistry(t, Options{TraceCap: 128})
	cfg := compile(t, "def main():\n    x = 0\n    for i in [0 .. 1999]:\n        x = i\n")
	cfg.StopOnEntry = true
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	s.Engine().ContinueAll()
	_, end := collect(t, sub)
	ts := s.Trace()
	if ts.Retained > 128 {
		t.Errorf("retained %d events, cap 128", ts.Retained)
	}
	if ts.Dropped == 0 || end.TraceDropped == 0 {
		t.Errorf("expected ring drops: stats=%+v end=%+v", ts, end)
	}
	if ts.Total < 2000 {
		t.Errorf("total %d, want >= 2000 events through the ring", ts.Total)
	}
}

func countSettled() int {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

func waitSettled(baseline int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return 0
		}
		if time.Now().After(deadline) {
			return n - baseline
		}
		time.Sleep(20 * time.Millisecond)
	}
}
