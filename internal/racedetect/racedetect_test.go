package racedetect

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// ev builds a variable-access event.
func ev(thread int, kind trace.Kind, name string, addr uint64, locks ...int) trace.Event {
	return trace.Event{Thread: thread, Kind: kind, Name: name, Addr: addr, Locks: locks}
}

func start(thread int) trace.Event { return trace.Event{Thread: thread, Kind: trace.ThreadStart} }
func end(thread int) trace.Event   { return trace.Event{Thread: thread, Kind: trace.ThreadEnd} }

func TestUnlockedSharedWriteIsRace(t *testing.T) {
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(0, trace.VarWrite, "x", 100), // init, exclusive: forgiven
		ev(1, trace.VarWrite, "x", 100),
		ev(2, trace.VarRead, "x", 100),
	}
	rep := Analyze(events)
	distinct(t, rep)
	if len(rep.Races) != 1 || rep.Races[0].Variable != "x" {
		t.Fatalf("races = %v", rep.Races)
	}
	if rep.SharedVars != 1 {
		t.Errorf("SharedVars = %d", rep.SharedVars)
	}
}

// distinct fails unless every reported race pairs two different threads.
func distinct(t *testing.T, rep Report) {
	t.Helper()
	for _, r := range rep.Races {
		if r.First.Thread == r.Second.Thread {
			t.Errorf("thread %d reported racing with itself: %s", r.First.Thread, r)
		}
	}
}

func TestOneChildBlockIsClean(t *testing.T) {
	// `parallel:` with a single child doing `x += 1`: since the forgiven
	// initialisation only thread 1 has touched x, and the parent's read
	// comes after the join.
	events := []trace.Event{
		start(0),
		ev(0, trace.VarWrite, "x", 100),
		start(1),
		ev(1, trace.VarRead, "x", 100),
		ev(1, trace.VarWrite, "x", 100),
		end(1),
		ev(0, trace.VarRead, "x", 100),
	}
	rep := Analyze(events)
	if len(rep.Races) != 0 {
		t.Errorf("a thread raced with itself: %v", rep.Races)
	}
}

func TestRacyCounterNamesTwoThreads(t *testing.T) {
	// testdata/racy_counter.ttr: `count += 1` in a parallel for. The report
	// waits for the second worker and pairs it with the first worker's
	// write, not with the worker's own read or thread 0's initialiser.
	events := []trace.Event{
		start(0),
		ev(0, trace.VarWrite, "count", 7),
		start(1), start(2),
		ev(1, trace.VarRead, "count", 7),
		ev(1, trace.VarWrite, "count", 7),
		ev(2, trace.VarRead, "count", 7),
		ev(2, trace.VarWrite, "count", 7),
	}
	rep := Analyze(events)
	if len(rep.Races) != 1 || rep.Races[0].Variable != "count" {
		t.Fatalf("races = %v", rep.Races)
	}
	if r := rep.Races[0]; r.First.Thread != 1 || r.First.Kind != trace.VarWrite || r.Second.Thread != 2 {
		t.Errorf("race = %s, want thread 1's write against thread 2", r)
	}
}

func TestConsistentLockingIsClean(t *testing.T) {
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(0, trace.VarWrite, "x", 100), // init
		ev(1, trace.VarRead, "x", 100, 3),
		ev(1, trace.VarWrite, "x", 100, 3),
		ev(2, trace.VarRead, "x", 100, 3),
		ev(2, trace.VarWrite, "x", 100, 3),
	}
	rep := Analyze(events)
	if len(rep.Races) != 0 {
		t.Errorf("locked accesses reported racy: %v", rep.Races)
	}
	if rep.SharedVars != 1 {
		t.Errorf("SharedVars = %d", rep.SharedVars)
	}
}

func TestDifferentLocksIsRace(t *testing.T) {
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(1, trace.VarWrite, "x", 100, 3),
		ev(2, trace.VarWrite, "x", 100, 4), // candidate lockset becomes {4}
		ev(1, trace.VarWrite, "x", 100, 3), // {4} ∩ {3} = ∅ → race
	}
	rep := Analyze(events)
	distinct(t, rep)
	if len(rep.Races) != 1 {
		t.Errorf("races = %v", rep.Races)
	}
}

func TestReadOnlySharingIsClean(t *testing.T) {
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(0, trace.VarWrite, "x", 100), // init
		ev(1, trace.VarRead, "x", 100),
		ev(2, trace.VarRead, "x", 100),
		ev(1, trace.VarRead, "x", 100),
	}
	rep := Analyze(events)
	if len(rep.Races) != 0 {
		t.Errorf("read-only sharing flagged: %v", rep.Races)
	}
}

func TestExclusivePhaseForgiven(t *testing.T) {
	// Thread 0 initializes without locks, then workers use a lock
	// consistently: clean.
	events := []trace.Event{
		start(0),
		ev(0, trace.VarWrite, "count", 1),
		ev(0, trace.VarWrite, "count", 1),
		start(1), start(2),
		ev(1, trace.VarWrite, "count", 1, 7),
		ev(2, trace.VarWrite, "count", 1, 7),
	}
	rep := Analyze(events)
	if len(rep.Races) != 0 {
		t.Errorf("exclusive init flagged: %v", rep.Races)
	}
}

func TestJoinRuleReExclusive(t *testing.T) {
	// Workers write under a lock, end, then the main thread reads without
	// the lock: the join (all other threads ended) makes it safe.
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(0, trace.VarWrite, "total", 5),
		ev(1, trace.VarWrite, "total", 5, 2),
		ev(2, trace.VarWrite, "total", 5, 2),
		end(1), end(2),
		ev(0, trace.VarRead, "total", 5), // post-join, sole live thread
	}
	rep := Analyze(events)
	if len(rep.Races) != 0 {
		t.Errorf("post-join read flagged: %v", rep.Races)
	}
}

func TestDoubleCheckedLockingFlagged(t *testing.T) {
	// The paper's Figure III pattern: an unlocked first read concurrent
	// with locked writes. Eraser-style analysis reports it (it is a real,
	// if benign, race).
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(0, trace.VarWrite, "largest", 9),
		ev(1, trace.VarRead, "largest", 9),     // unlocked check
		ev(1, trace.VarWrite, "largest", 9, 0), // locked update
		ev(2, trace.VarRead, "largest", 9),     // unlocked check
	}
	rep := Analyze(events)
	distinct(t, rep)
	if len(rep.Races) != 1 {
		t.Errorf("double-checked locking not flagged: %v", rep.Races)
	}
}

func TestDistinctAddressesIndependent(t *testing.T) {
	// Same variable name at different addresses (same-named locals in two
	// frames) must not be conflated.
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(1, trace.VarWrite, "i", 201),
		ev(2, trace.VarWrite, "i", 202),
		ev(1, trace.VarWrite, "i", 201),
		ev(2, trace.VarWrite, "i", 202),
	}
	rep := Analyze(events)
	if len(rep.Races) != 0 {
		t.Errorf("distinct cells flagged: %v", rep.Races)
	}
	if rep.SharedVars != 0 {
		t.Errorf("SharedVars = %d, want 0", rep.SharedVars)
	}
}

func TestOneRacePerVariable(t *testing.T) {
	events := []trace.Event{
		start(0), start(1), start(2),
		ev(1, trace.VarWrite, "x", 100),
		ev(2, trace.VarWrite, "x", 100),
		ev(1, trace.VarWrite, "x", 100),
		ev(2, trace.VarWrite, "x", 100),
	}
	rep := Analyze(events)
	distinct(t, rep)
	if len(rep.Races) != 1 {
		t.Errorf("got %d races for one variable, want 1", len(rep.Races))
	}
}

func TestRaceString(t *testing.T) {
	r := Race{
		Variable: "count",
		First:    trace.Event{Thread: 1, Kind: trace.VarWrite},
		Second:   trace.Event{Thread: 2, Kind: trace.VarRead},
	}
	s := r.String()
	if !strings.Contains(s, "RACE on count") || !strings.Contains(s, "thread 1 write") || !strings.Contains(s, "thread 2 read") {
		t.Errorf("race string = %q", s)
	}
}

func TestFormatReport(t *testing.T) {
	clean := FormatReport(Report{SharedVars: 2})
	if !strings.Contains(clean, "no races detected") {
		t.Errorf("clean report = %q", clean)
	}
	dirty := FormatReport(Report{
		Races:      []Race{{Variable: "x"}},
		SharedVars: 1,
	})
	if !strings.Contains(dirty, "1 racy variable") {
		t.Errorf("dirty report = %q", dirty)
	}
}
