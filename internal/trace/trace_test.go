package trace

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/token"
)

func TestCollectorOrdersAndStamps(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Thread: 0, Kind: ThreadStart})
	c.Emit(Event{Thread: 0, Kind: Step, Pos: token.Pos{Line: 1, Col: 1}})
	c.Emit(Event{Thread: 0, Kind: ThreadEnd})
	events := c.Events()
	if len(events) != 3 || c.Len() != 3 {
		t.Fatalf("got %d events", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d", i, e.Seq)
		}
	}
	for i := 1; i < len(events); i++ {
		if events[i].Nanos < events[i-1].Nanos {
			t.Error("timestamps not monotone")
		}
	}
}

func TestCollectorSnapshotIsolated(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Kind: Step})
	snap := c.Events()
	c.Emit(Event{Kind: Step})
	if len(snap) != 1 {
		t.Error("snapshot mutated by later emits")
	}
}

func TestCollectorFilter(t *testing.T) {
	c := NewCollector()
	c.Filter = 1<<uint(LockAcquire) | 1<<uint(LockRelease)
	c.Emit(Event{Kind: Step})
	c.Emit(Event{Kind: LockAcquire, Name: "m"})
	c.Emit(Event{Kind: Output, Name: "x"})
	c.Emit(Event{Kind: LockRelease, Name: "m"})
	events := c.Events()
	if len(events) != 2 {
		t.Fatalf("filter kept %d events, want 2", len(events))
	}
	if events[0].Kind != LockAcquire || events[1].Kind != LockRelease {
		t.Errorf("wrong events kept: %v", events)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Emit(Event{Thread: id, Kind: Step})
			}
		}(i)
	}
	wg.Wait()
	events := c.Events()
	if len(events) != 800 {
		t.Fatalf("got %d events", len(events))
	}
	seen := map[int64]bool{}
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatal("duplicate sequence number")
		}
		seen[e.Seq] = true
	}
}

func TestThreads(t *testing.T) {
	events := []Event{
		{Thread: 3, Kind: Step},
		{Thread: 0, Kind: Step},
		{Thread: 3, Kind: Step},
		{Thread: 1, Kind: Step},
	}
	got := Threads(events)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("Threads = %v", got)
	}
}

func TestTimeline(t *testing.T) {
	events := []Event{
		{Seq: 1, Thread: 0, Kind: ThreadStart, Parent: -1},
		{Seq: 2, Thread: 0, Kind: Step, Pos: token.Pos{Line: 2, Col: 5}},
		{Seq: 3, Thread: 1, Kind: ThreadStart, Parent: 0},
		{Seq: 4, Thread: 1, Kind: LockWait, Name: "m"},
		{Seq: 5, Thread: 1, Kind: LockAcquire, Name: "m"},
		{Seq: 6, Thread: 1, Kind: LockRelease, Name: "m"},
		{Seq: 7, Thread: 1, Kind: ThreadEnd},
		{Seq: 8, Thread: 0, Kind: Output, Name: "done\n"},
		{Seq: 9, Thread: 0, Kind: ThreadEnd},
	}
	text := Timeline(events, 0)
	for _, want := range []string{"thread 0", "thread 1", "start (from t0)", "wait m", "acquire m", "release m", "print done", "step 2:5"} {
		if !strings.Contains(text, want) {
			t.Errorf("timeline missing %q:\n%s", want, text)
		}
	}
	// Thread 1's events must be in the second lane (indented further than
	// thread 0's).
	lines := strings.Split(text, "\n")
	idx0 := strings.Index(lines[2], "step") // thread 0's step
	idx1 := strings.Index(lines[4], "wait") // thread 1's wait
	if idx0 < 0 || idx1 < 0 || idx1 <= idx0 {
		t.Errorf("lane layout wrong:\n%s", text)
	}
}

func TestTimelineTruncation(t *testing.T) {
	var events []Event
	for i := 0; i < 50; i++ {
		events = append(events, Event{Seq: int64(i + 1), Thread: 0, Kind: Step})
	}
	text := Timeline(events, 10)
	if !strings.Contains(text, "40 more events") {
		t.Errorf("truncation note missing:\n%s", text)
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Thread: 0, Kind: Step},
		{Thread: 0, Kind: Step},
		{Thread: 1, Kind: LockWait, Name: "m"},
		{Thread: 1, Kind: LockAcquire, Name: "m"},
		{Thread: 0, Kind: Output, Name: "x"},
	}
	s := Summarize(events)
	if s.Threads != 2 || s.Steps != 2 || s.LockAcquires != 1 || s.LockWaits != 1 || s.Outputs != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Thread: 1, Kind: LockAcquire, Name: "largest", Pos: token.Pos{File: "max.ttr", Line: 7, Col: 9}}
	got := e.String()
	if got != "t1 lock-acquire largest @ max.ttr:7:9" {
		t.Errorf("Event.String() = %q", got)
	}
	if ThreadStart.String() != "start" || VarWrite.String() != "write" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting")
	}
}

func TestRingCapBoundsRetention(t *testing.T) {
	c := NewCollectorCap(4)
	for i := 0; i < 10; i++ {
		c.Emit(Event{Thread: i, Kind: Step})
	}
	events := c.Events()
	if len(events) != 4 || c.Len() != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	// The most recent 4 events survive, in order.
	for i, e := range events {
		if want := int64(7 + i); e.Seq != want {
			t.Errorf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if c.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", c.Dropped())
	}
	if !c.Truncated() {
		t.Error("Truncated = false after overflow")
	}
	if c.Total() != 10 {
		t.Errorf("Total = %d, want 10", c.Total())
	}
}

func TestRingDefaultCapIsBounded(t *testing.T) {
	c := NewCollector()
	if c.Cap() != DefaultCap {
		t.Fatalf("default cap = %d, want %d", c.Cap(), DefaultCap)
	}
	if c.Truncated() {
		t.Error("fresh collector claims truncation")
	}
}

func TestRingUnboundedEscapeHatch(t *testing.T) {
	c := NewCollectorCap(-1)
	for i := 0; i < 100; i++ {
		c.Emit(Event{Kind: Step})
	}
	if c.Len() != 100 || c.Dropped() != 0 {
		t.Errorf("unbounded collector dropped events: len=%d dropped=%d", c.Len(), c.Dropped())
	}
}

func TestRingConcurrentWrap(t *testing.T) {
	c := NewCollectorCap(32)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Emit(Event{Thread: id, Kind: Step})
			}
		}(i)
	}
	wg.Wait()
	events := c.Events()
	if len(events) != 32 {
		t.Fatalf("retained %d, want 32", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("retained tail not contiguous at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
	if c.Dropped() != 800-32 {
		t.Errorf("Dropped = %d, want %d", c.Dropped(), 800-32)
	}
}

func TestOnEventSeesEveryRecordedEvent(t *testing.T) {
	c := NewCollectorCap(2)
	c.Filter = 1<<uint(Step) | 1<<uint(Output)
	var got []Event
	c.OnEvent = func(e Event) { got = append(got, e) }
	c.Emit(Event{Kind: ThreadStart}) // filtered: neither recorded nor delivered
	for i := 0; i < 4; i++ {
		c.Emit(Event{Kind: Step})
	}
	c.Emit(Event{Kind: Output, Name: "hi"})
	if len(got) != 5 || got[4].Kind != Output {
		t.Fatalf("OnEvent got %v", got)
	}
	for i, e := range got {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d delivered with Seq %d: not stamped in emit order", i, e.Seq)
		}
	}
	if c.Len() != 2 || c.Dropped() != 3 {
		t.Errorf("ring retained %d dropped %d, want 2 and 3: OnEvent must see what the ring lost", c.Len(), c.Dropped())
	}
}
