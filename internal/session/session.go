// Package session implements streaming debug sessions for tetrad: the
// paper's IDE (§III) as a web protocol. A session runs one Tetra program
// on the tree-walking interpreter under the debugger engine
// (internal/debugger), streams stdout, live trace events and thread-state
// changes to any number of SSE subscribers, accepts per-thread
// breakpoint/step/continue commands and streamed stdin, and answers
// on-demand race/deadlock analyses over the bounded trace ring.
//
// The liveness discipline (after "Fencing off Go", Lange et al.): no
// session goroutine may outlive its session, and no session may outlive
// its owner's interest. A session starts exactly one goroutine — the
// watcher (run), which waits for the engine — beside the engine's own run
// goroutine; every stream frame is published by the program thread that
// caused it (stdout through the writer, parks through debugger.Config.OnPark,
// trace events through trace.Collector.OnEvent). Both goroutines provably
// end when the session is killed: Kill cancels the backend (waking lock-
// and input-parked threads), closes the stdin buffer (waking blocked reads)
// and releases parked debugger threads; the watcher then closes every
// subscriber with a terminal event. The registry (registry.go) bounds how
// many sessions exist, evicts idle ones, and integrates with tetrad's
// drain.
package session

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/debugger"
	"repro/internal/guard"
	"repro/internal/racedetect"
	"repro/internal/trace"
)

// Stream event types, the `type` field of every StreamEvent.
const (
	EventHello  = "hello"  // first frame: session snapshot
	EventStdout = "stdout" // a chunk of program output
	EventState  = "state"  // a thread parked (breakpoint, step, pause)
	EventTrace  = "trace"  // one live trace event
	EventEnd    = "end"    // terminal: the session is over, stream closes
)

// End reasons carried by the terminal event.
const (
	ReasonFinished = "finished" // the program ran to completion
	ReasonError    = "error"    // the program died with a runtime error
	ReasonClosed   = "closed"   // the client closed the session
	ReasonIdle     = "idle"     // idle-timeout eviction
	ReasonDrain    = "drain"    // the server is draining
)

// ThreadInfo is the wire form of one debugger thread's state.
type ThreadInfo struct {
	ID       int    `json:"id"`
	Func     string `json:"func,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Stmt     string `json:"stmt,omitempty"`
	Paused   bool   `json:"paused"`
	Finished bool   `json:"finished"`
}

// Info converts a debugger thread state to its wire form.
func Info(st debugger.ThreadState) ThreadInfo {
	return ThreadInfo{
		ID:       st.ID,
		Func:     st.Func,
		Line:     st.Pos.Line,
		Col:      st.Pos.Col,
		Stmt:     st.Stmt,
		Paused:   st.Paused,
		Finished: st.Finished,
	}
}

// TraceEventInfo is the wire form of one trace event.
type TraceEventInfo struct {
	Seq    int64  `json:"seq"`
	Thread int    `json:"thread"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Line   int    `json:"line,omitempty"`
	Col    int    `json:"col,omitempty"`
	Nanos  int64  `json:"nanos"`
}

// StreamEvent is one frame of a session's event stream.
type StreamEvent struct {
	Type   string          `json:"type"`
	Text   string          `json:"text,omitempty"`   // stdout chunk
	Thread *ThreadInfo     `json:"thread,omitempty"` // state frames
	Trace  *TraceEventInfo `json:"trace,omitempty"`  // trace frames
	// Terminal-frame fields.
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
	// TraceDropped counts events the bounded trace ring discarded over
	// the whole run; StreamDropped counts frames THIS subscriber missed
	// because it read too slowly.
	TraceDropped  int64 `json:"trace_dropped,omitempty"`
	StreamDropped int64 `json:"stream_dropped,omitempty"`
}

// Item is one queued frame with its enqueue time, so the deliverer can
// observe stream lag.
type Item struct {
	Ev StreamEvent
	At time.Time
}

// Subscriber is one live consumer of a session's stream. Frames arrive
// on Ch in publish order; the channel closes when the session ends (read
// End for the guaranteed terminal frame) or the subscriber is removed.
type Subscriber struct {
	ch      chan Item
	end     atomic.Pointer[StreamEvent]
	dropped atomic.Int64
}

// Ch returns the frame channel.
func (sub *Subscriber) Ch() <-chan Item { return sub.ch }

// End returns the terminal frame once the channel has closed because the
// session ended (nil after a plain Unsubscribe).
func (sub *Subscriber) End() *StreamEvent { return sub.end.Load() }

// Config describes one session to create.
type Config struct {
	Prog *ast.Program // compiled program (required)
	File string       // display name for positions
	// Stdin is the initial input; more can be streamed with WriteStdin.
	Stdin string
	// Limits is the (already clamped) resource budget. The deadline axis
	// bounds the whole session's wall clock.
	Limits guard.Limits
	// StopOnEntry parks every thread at its first statement (the
	// recommended default for stepping sessions).
	StopOnEntry bool
	// Breakpoints are source lines to arm before the program starts.
	Breakpoints []int
	// TraceCap bounds the live trace ring (0 = the registry default).
	TraceCap int
	// StreamBuffer is the per-subscriber frame buffer (0 = default 256).
	StreamBuffer int
}

// Session is one live (or finished but not yet evicted) debug session.
type Session struct {
	ID      string
	File    string
	Created time.Time

	eng *debugger.Engine
	col *trace.Collector
	in  *stdinBuf

	lastTouch atomic.Int64 // unix nanos of the last client interaction
	streamBuf int

	mu       sync.Mutex
	subs     map[*Subscriber]struct{}
	out      bytes.Buffer // full accumulated stdout
	done     bool
	endEvent *StreamEvent

	killOnce sync.Once
	reason   atomic.Pointer[string] // eviction reason, set before Kill
	ended    chan struct{}          // closed once the terminal event is published
}

// newSession builds and starts a session (registry.Create is the public
// entry point).
func newSession(id string, cfg Config, traceCap int) *Session {
	if cfg.TraceCap != 0 {
		traceCap = cfg.TraceCap
	}
	sb := cfg.StreamBuffer
	if sb <= 0 {
		sb = 256
	}
	s := &Session{
		ID:        id,
		File:      cfg.File,
		Created:   time.Now(),
		col:       trace.NewCollectorCap(traceCap),
		in:        newStdinBuf(cfg.Stdin),
		streamBuf: sb,
		subs:      map[*Subscriber]struct{}{},
		ended:     make(chan struct{}),
	}
	s.Touch()
	// Same rule as OnPark below, with the collector's lock held. Every
	// recorded event becomes a frame, so a frame a subscriber misses is
	// counted in that subscriber's stream_dropped and nowhere else.
	s.col.OnEvent = func(e trace.Event) {
		te := traceEventInfo(e)
		s.publish(StreamEvent{Type: EventTrace, Trace: &te})
	}

	dcfg := debugger.Config{
		StopOnEntry: cfg.StopOnEntry,
		OnPark: func(st debugger.ThreadState) {
			// Called with the engine lock held: publish is lock-cheap and
			// never calls back into the engine.
			ti := Info(st)
			s.publish(StreamEvent{Type: EventState, Thread: &ti})
		},
	}
	dcfg.Core = core.Config{
		Stdin:  s.in,
		Stdout: outWriter{s},
		Tracer: s.col,
		// Always record variable accesses: on-demand race analysis is a
		// headline session feature and must not require re-running.
		TraceVars: true,
		Limits:    cfg.Limits,
	}
	s.eng = debugger.New(cfg.Prog, dcfg)
	for _, l := range cfg.Breakpoints {
		s.eng.SetBreak(l)
	}
	s.eng.Start()
	return s
}

// run waits for the program to end and publishes the terminal event. It is
// the session's watcher goroutine body; the registry tracks it so drain can
// join it. Every frame was published by a program thread before the engine
// reported the end, so the terminal frame is last.
func (s *Session) run() {
	err := s.eng.Wait()
	s.in.Close() // no thread is left to read; wake any stdin writer logic

	reason := ReasonFinished
	msg := ""
	if r := s.reason.Load(); r != nil {
		reason = *r
		if err != nil {
			msg = err.Error()
		}
	} else if err != nil {
		reason = ReasonError
		msg = err.Error()
	}
	end := StreamEvent{
		Type:         EventEnd,
		Reason:       reason,
		Error:        msg,
		TraceDropped: s.col.Dropped(),
	}

	s.mu.Lock()
	s.done = true
	s.endEvent = &end
	for sub := range s.subs {
		e := end
		e.StreamDropped = sub.dropped.Load()
		sub.end.Store(&e)
		close(sub.ch)
	}
	s.subs = nil // a channel is open exactly while its subscriber is in the set
	s.mu.Unlock()
	close(s.ended)
}

func traceEventInfo(e trace.Event) TraceEventInfo {
	return TraceEventInfo{
		Seq:    e.Seq,
		Thread: e.Thread,
		Kind:   e.Kind.String(),
		Name:   e.Name,
		Line:   e.Pos.Line,
		Col:    e.Pos.Col,
		Nanos:  e.Nanos,
	}
}

// kill aborts the session once: records the reason, closes stdin (waking
// blocked reads), cancels the backend and releases parked threads. The
// watcher observes the run ending and publishes the terminal event.
func (s *Session) kill(reason string) {
	s.killOnce.Do(func() {
		r := reason
		s.reason.Store(&r)
		s.in.Close()
		s.eng.Kill()
	})
}

// Close ends the session on behalf of the client.
func (s *Session) Close() { s.kill(ReasonClosed) }

// Ended returns a channel closed once the terminal event has been
// published (the session's goroutines are then gone).
func (s *Session) Ended() <-chan struct{} { return s.ended }

// publish fans a frame out to every subscriber, dropping (and counting)
// for any whose buffer is full — a slow stream must never stall the
// traced program.
func (s *Session) publish(ev StreamEvent) {
	it := Item{Ev: ev, At: time.Now()}
	s.mu.Lock()
	for sub := range s.subs {
		select {
		case sub.ch <- it:
		default:
			sub.dropped.Add(1)
		}
	}
	s.mu.Unlock()
}

// Subscribe attaches a stream consumer. On an already-ended session the
// channel is closed immediately with the terminal frame in End.
func (s *Session) Subscribe() *Subscriber {
	sub := &Subscriber{ch: make(chan Item, s.streamBuf)}
	s.mu.Lock()
	if s.done {
		e := *s.endEvent
		sub.end.Store(&e)
		close(sub.ch)
	} else {
		s.subs[sub] = struct{}{}
	}
	s.mu.Unlock()
	return sub
}

// Unsubscribe detaches a consumer (idempotent; safe after the session
// ended). A stream ending is client activity: the idle clock restarts here,
// not at the request that opened the stream.
func (s *Session) Unsubscribe(sub *Subscriber) {
	s.Touch()
	s.mu.Lock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		close(sub.ch)
	}
	s.mu.Unlock()
}

// Subscribers returns the number of attached stream consumers.
func (s *Session) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Touch marks client activity, deferring idle eviction. The server calls it
// once per request that names the session.
func (s *Session) Touch() { s.lastTouch.Store(time.Now().UnixNano()) }

// IdleFor reports how long the session has been without client activity.
func (s *Session) IdleFor() time.Duration {
	return time.Since(time.Unix(0, s.lastTouch.Load()))
}

// Done reports whether the program has ended (the session may still be
// queryable until evicted).
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Output returns everything the program has printed so far.
func (s *Session) Output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.String()
}

// Engine returns the debugger engine: threads, stepping, breakpoints. The
// caller that acts for a client marks the activity with Touch.
func (s *Session) Engine() *debugger.Engine { return s.eng }

// Vars returns the parked thread's frame variables as name → rendered
// value, or the engine's reason there are none.
func (s *Session) Vars(id int) (map[string]string, error) {
	names, vals, err := s.eng.Vars(id)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(names))
	for i, n := range names {
		out[n] = vals[i].String()
	}
	return out, nil
}

// WriteStdin appends input for the program's readers.
func (s *Session) WriteStdin(data string) error { return s.in.WriteString(data) }

// CloseStdin signals end-of-input to the program.
func (s *Session) CloseStdin() { s.in.Close() }

// Races runs the lockset race detector over the retained trace window.
func (s *Session) Races() []string {
	rep := racedetect.Analyze(s.col.Events())
	out := make([]string, 0, len(rep.Races))
	for _, rc := range rep.Races {
		out = append(out, rc.String())
	}
	return out
}

// DeadlockReport runs the wait-for-graph analysis over the retained
// trace window: the cycle rendered as text (empty = none) plus per-lock
// contention counts.
func (s *Session) DeadlockReport() (cycle string, contention map[string]int) {
	rep := deadlock.Analyze(s.col.Events())
	if rep.Deadlocked != nil {
		cycle = rep.Deadlocked.String()
	}
	return cycle, rep.Contention
}

// TraceStats reports the ring's accounting.
type TraceStats struct {
	Total    int64 `json:"total"`    // events recorded over the run
	Retained int   `json:"retained"` // events currently in the ring
	Dropped  int64 `json:"dropped"`  // events the ring discarded
	Cap      int   `json:"cap"`
}

// Trace returns the ring accounting.
func (s *Session) Trace() TraceStats {
	return TraceStats{
		Total:    s.col.Total(),
		Retained: s.col.Len(),
		Dropped:  s.col.Dropped(),
		Cap:      s.col.Cap(),
	}
}

// outWriter streams program output: every write lands in the session's
// transcript and fans out to subscribers as a stdout frame.
type outWriter struct{ s *Session }

func (w outWriter) Write(p []byte) (int, error) {
	w.s.mu.Lock()
	w.s.out.Write(p)
	w.s.mu.Unlock()
	w.s.publish(StreamEvent{Type: EventStdout, Text: string(p)})
	return len(p), nil
}

// stdinBuf is the streamed-stdin pipe: Write appends (never blocks),
// Read blocks until data or close. Closing wakes blocked readers with
// EOF — how eviction unwedges a thread stuck in read_int.
type stdinBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    bytes.Buffer
	closed bool
}

func newStdinBuf(initial string) *stdinBuf {
	b := &stdinBuf{}
	b.cond = sync.NewCond(&b.mu)
	b.buf.WriteString(initial)
	return b
}

func (b *stdinBuf) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.buf.Len() == 0 && !b.closed {
		b.cond.Wait()
	}
	if b.buf.Len() > 0 {
		return b.buf.Read(p)
	}
	return 0, io.EOF
}

func (b *stdinBuf) WriteString(s string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("session stdin is closed")
	}
	b.buf.WriteString(s)
	b.cond.Broadcast()
	return nil
}

func (b *stdinBuf) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
