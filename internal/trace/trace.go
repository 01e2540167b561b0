// Package trace records the execution events of a Tetra program run: thread
// creation and completion, statement steps, and lock operations.
//
// This is the data feed behind the IDE features the paper describes
// (§III, "visualizing program execution across multiple threads"): the
// ASCII timeline renderer in this package substitutes for the Qt view, and
// the race (internal/racedetect) and deadlock (internal/deadlock) detectors
// consume the same stream.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/token"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	ThreadStart Kind = iota // a Tetra thread began (Parent is the spawner)
	ThreadEnd               // a Tetra thread finished
	Step                    // a statement began executing
	LockWait                // thread reached a lock block and may block
	LockAcquire             // thread entered the lock block
	LockRelease             // thread left the lock block
	VarRead                 // a shared variable was read   (Name = variable)
	VarWrite                // a shared variable was written (Name = variable)
	Output                  // the program printed (Name = text)
	Call                    // function call entered (Name = function)
	Return                  // function call returned (Name = function)
)

var kindNames = [...]string{
	ThreadStart: "start",
	ThreadEnd:   "end",
	Step:        "step",
	LockWait:    "lock-wait",
	LockAcquire: "lock-acquire",
	LockRelease: "lock-release",
	VarRead:     "read",
	VarWrite:    "write",
	Output:      "print",
	Call:        "call",
	Return:      "return",
}

// String returns the event kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence. Seq orders events totally (assigned
// under the collector's lock, so the order is consistent with the
// happens-before edges the collector observes).
type Event struct {
	Seq    int64
	Nanos  int64 // monotonic nanoseconds since collection started
	Thread int   // Tetra thread id (main is 0)
	Parent int   // spawning thread, for ThreadStart
	Kind   Kind
	Pos    token.Pos
	Name   string // lock name, variable name, function name, or output text
	// Locks is the set of lock indices held by the thread at the time of a
	// VarRead/VarWrite event; consumed by the lockset race detector.
	Locks []int
	// Addr identifies the memory cell of a VarRead/VarWrite event, so the
	// race detector can distinguish same-named variables in different
	// frames.
	Addr uint64
}

// String renders the event for logs: "t1 lock-acquire largest @ max.ttr:7:9".
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "t%d %s", e.Thread, e.Kind)
	if e.Name != "" {
		sb.WriteString(" " + e.Name)
	}
	if e.Pos.IsValid() {
		fmt.Fprintf(&sb, " @ %s", e.Pos)
	}
	return sb.String()
}

// Tracer receives events. Implementations must be safe for concurrent use;
// the interpreter calls Emit from every Tetra thread.
type Tracer interface {
	Emit(Event)
}

// DefaultCap is the default retention bound of a Collector: the ring keeps
// the most recent DefaultCap events and counts the rest as dropped. Sized
// so every classroom-scale trace fits whole while a runaway loop cannot
// exhaust server memory (the bug this bound fixes: the collector used to
// append without limit for the lifetime of the run).
const DefaultCap = 1 << 16

// Collector is a Tracer that buffers events in a bounded ring: the most
// recent cap events are retained, older ones are dropped (and counted).
type Collector struct {
	mu      sync.Mutex
	events  []Event // ring storage, len(events) <= cap
	head    int     // index of the oldest retained event once the ring wrapped
	wrapped bool    // the ring has overwritten at least one event
	cap     int     // retention bound; < 0 means unbounded
	dropped int64
	seq     int64
	start   time.Time
	// Filter, when non-zero, drops event kinds whose bit is unset. Zero
	// means "record everything".
	Filter uint64
	// OnEvent, when set (before the first Emit), is the live feed: it is
	// called with every recorded event, stamped, in emit order, whether or
	// not the ring still retains it. It runs with the collector's lock
	// held: it must not block and must not call back into the collector.
	OnEvent func(Event)
}

// NewCollector returns an empty collector recording all event kinds,
// retaining at most DefaultCap events.
func NewCollector() *Collector {
	return NewCollectorCap(0)
}

// NewCollectorCap returns a collector retaining at most capacity events
// (the most recent ones win). capacity 0 selects DefaultCap; a negative
// capacity disables the bound entirely — an explicit escape hatch for
// short trusted runs, never the serving path.
func NewCollectorCap(capacity int) *Collector {
	if capacity == 0 {
		capacity = DefaultCap
	}
	return &Collector{start: time.Now(), cap: capacity}
}

// Emit records the event, assigning its sequence number and timestamp.
// When the ring is full the oldest retained event is overwritten and the
// dropped count grows; OnEvent receives the event regardless.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Filter != 0 && c.Filter&(1<<uint(e.Kind)) == 0 {
		return
	}
	c.seq++
	e.Seq = c.seq
	e.Nanos = time.Since(c.start).Nanoseconds()
	if c.cap < 0 || len(c.events) < c.cap {
		c.events = append(c.events, e)
	} else {
		c.events[c.head] = e
		c.head = (c.head + 1) % c.cap
		c.wrapped = true
		c.dropped++
	}
	if c.OnEvent != nil {
		c.OnEvent(e)
	}
}

// Events returns a snapshot copy of the retained events in order (oldest
// retained first). When Truncated reports true the prefix of the run is
// missing: Dropped events preceded Events()[0].
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	n := copy(out, c.events[c.head:])
	copy(out[n:], c.events[:c.head])
	return out
}

// Len returns the number of retained events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Total returns the number of events recorded over the collector's
// lifetime, including dropped ones.
func (c *Collector) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Dropped returns how many events the ring has discarded.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Truncated reports whether the ring has discarded any events: Events()
// is then the tail of the run, not the whole run.
func (c *Collector) Truncated() bool { return c.Dropped() > 0 }

// Cap returns the retention bound (negative = unbounded).
func (c *Collector) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// Threads returns the sorted set of thread ids appearing in the events.
func Threads(events []Event) []int {
	seen := map[int]bool{}
	for _, e := range events {
		seen[e.Thread] = true
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// Timeline renders the events as an ASCII chart with one column per thread,
// the textual stand-in for the IDE's multi-thread execution view. Each row
// is one event, placed in its thread's lane:
//
//	seq  thread 0          thread 1          thread 2
//	  1  spawn t1
//	  2                    start
//	  3                    step sum.ttr:5:9
//
// maxRows truncates long traces (0 = no limit).
func Timeline(events []Event, maxRows int) string {
	threads := Threads(events)
	lane := make(map[int]int, len(threads))
	for i, t := range threads {
		lane[t] = i
	}
	const width = 22

	var sb strings.Builder
	sb.WriteString("  seq ")
	for _, t := range threads {
		cell := fmt.Sprintf("thread %d", t)
		sb.WriteString(pad(cell, width))
	}
	sb.WriteByte('\n')

	rows := events
	truncated := 0
	if maxRows > 0 && len(rows) > maxRows {
		truncated = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	for _, e := range rows {
		fmt.Fprintf(&sb, "%5d ", e.Seq)
		for i := 0; i < lane[e.Thread]; i++ {
			sb.WriteString(strings.Repeat(" ", width))
		}
		sb.WriteString(cellText(e))
		sb.WriteByte('\n')
	}
	if truncated > 0 {
		fmt.Fprintf(&sb, "... %d more events\n", truncated)
	}
	return sb.String()
}

func cellText(e Event) string {
	var s string
	switch e.Kind {
	case ThreadStart:
		s = fmt.Sprintf("start (from t%d)", e.Parent)
	case ThreadEnd:
		s = "end"
	case Step:
		s = fmt.Sprintf("step %d:%d", e.Pos.Line, e.Pos.Col)
	case LockWait:
		s = "wait " + e.Name
	case LockAcquire:
		s = "acquire " + e.Name
	case LockRelease:
		s = "release " + e.Name
	case VarRead:
		s = "read " + e.Name
	case VarWrite:
		s = "write " + e.Name
	case Output:
		s = "print " + strings.TrimRight(e.Name, "\n")
	case Call:
		s = "call " + e.Name
	case Return:
		s = "ret " + e.Name
	default:
		s = e.Kind.String()
	}
	return s
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s[:w-1] + " "
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Summary aggregates a trace into counts: the CLI's trace report footer and,
// under its JSON names, the "trace" object of a worker's reply and of
// tetrad's /run response. The counts cover the events given; when they came
// from a Collector whose ring overflowed, Truncated and Dropped say that
// the window is the tail of the run, not all of it.
type Summary struct {
	Threads      int   `json:"threads"`
	Steps        int   `json:"steps"`
	LockAcquires int   `json:"lock_acquires"`
	LockWaits    int   `json:"lock_waits"`
	Outputs      int   `json:"outputs"`
	Truncated    bool  `json:"truncated,omitempty"`
	Dropped      int64 `json:"dropped,omitempty"`
}

// Summarize computes aggregate counts over the events; Truncated and
// Dropped are the collector's to fill in.
func Summarize(events []Event) Summary {
	var s Summary
	s.Threads = len(Threads(events))
	for _, e := range events {
		switch e.Kind {
		case Step:
			s.Steps++
		case LockAcquire:
			s.LockAcquires++
		case LockWait:
			s.LockWaits++
		case Output:
			s.Outputs++
		}
	}
	return s
}
