// Package racedetect implements an Eraser-style lockset race detector over
// recorded Tetra execution traces.
//
// The paper's pedagogy centers on helping students "discover race
// conditions" (§III). This detector makes the discovery automatic: it
// replays the shared-variable access events the interpreter records (with
// the set of Tetra locks each thread held at the time) and reports
// variables that are accessed by multiple threads without any consistent
// lock — the textbook lockset discipline from Savage et al.'s Eraser,
// simplified to Tetra's named-lock model.
//
// Each variable moves through the classic state machine:
//
//	virgin → exclusive(first thread) → shared (reads by others)
//	       → shared-modified (writes by others; lockset violations reported)
package racedetect

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

type state int

const (
	virgin state = iota
	exclusive
	shared
	sharedModified
)

// Race describes one detected violation.
type Race struct {
	Variable string
	// First and Second are two accesses by different threads with an empty
	// common lockset, at least one of them a write; Second is the later.
	First, Second trace.Event
}

// String renders the race for a student:
//
//	RACE on largest: thread 1 writes at max.ttr:8:17 and thread 2 writes at
//	max.ttr:8:17 with no common lock
func (r Race) String() string {
	return fmt.Sprintf("RACE on %s: thread %d %ss at %s and thread %d %ss at %s with no common lock",
		r.Variable,
		r.First.Thread, verb(r.First.Kind), r.First.Pos,
		r.Second.Thread, verb(r.Second.Kind), r.Second.Pos)
}

func verb(k trace.Kind) string {
	if k == trace.VarWrite {
		return "write"
	}
	return "read"
}

// Report is the outcome of analysis.
type Report struct {
	// Races lists one entry per racy variable (the first violating pair).
	Races []Race
	// SharedVars counts how many distinct cells were touched by more than
	// one thread, races or not.
	SharedVars int
}

type cellState struct {
	name    string
	st      state
	owner   int // thread for exclusive state
	lockset map[int]bool
	// access and write remember what has touched the cell since its
	// exclusive phase ended: the candidates for a Race's First.
	access, write recent
	reported      bool
	multi         bool
}

// recent holds the latest event added and, after it, the latest from a
// different thread: enough to name one from a thread other than any given.
type recent struct {
	ev [2]trace.Event
	n  int
}

// notBy returns the latest remembered event from a thread other than t.
func (r *recent) notBy(t int) (trace.Event, bool) {
	for _, e := range r.ev[:r.n] {
		if e.Thread != t {
			return e, true
		}
	}
	return trace.Event{}, false
}

func (r *recent) add(e trace.Event) {
	if other, ok := r.notBy(e.Thread); ok {
		r.ev, r.n = [2]trace.Event{e, other}, 2
	} else {
		r.ev[0], r.n = e, 1
	}
}

// Analyze replays VarRead/VarWrite events and reports lockset violations.
//
// Two refinements over the naive lockset algorithm avoid the classic
// false positives:
//
//   - The initialization (exclusive) phase is forgiven: the candidate
//     lockset starts from the *second* thread's first access, so the usual
//     unlocked `x = 0` before the fork is not a race (Eraser's state
//     machine).
//   - Fork-join re-exclusivity: when an access happens while its thread is
//     the only live thread (every other traced thread has emitted
//     ThreadEnd), the cell returns to the exclusive state. This models the
//     happens-before edge of the join that pure lockset analysis misses,
//     so reading a reduction variable after a parallel block is clean.
func Analyze(events []trace.Event) Report {
	cells := map[uint64]*cellState{}
	live := map[int]bool{}
	var rep Report

	for _, e := range events {
		switch e.Kind {
		case trace.ThreadStart:
			live[e.Thread] = true
			continue
		case trace.ThreadEnd:
			delete(live, e.Thread)
			continue
		case trace.VarRead, trace.VarWrite:
		default:
			continue
		}
		// Threads observed only through accesses (Call API paths) count as
		// live from their first access.
		if !live[e.Thread] {
			live[e.Thread] = true
		}

		c := cells[e.Addr]
		if c == nil {
			c = &cellState{name: e.Name, st: virgin}
			cells[e.Addr] = c
		}

		// Join rule: sole live thread ⇒ everything earlier happened-before
		// this access; restart the exclusive phase.
		if len(live) == 1 && c.st != virgin {
			c.st = exclusive
			c.owner = e.Thread
			c.lockset = nil
			c.access, c.write = recent{}, recent{}
			continue
		}

		switch c.st {
		case virgin:
			c.st = exclusive
			c.owner = e.Thread
			continue

		case exclusive:
			if e.Thread == c.owner {
				continue
			}
			// Second thread arrives: the candidate lockset is what it holds
			// now; the exclusive phase is forgiven.
			c.multi = true
			c.lockset = locksetOf(e)
			if e.Kind == trace.VarWrite {
				c.st = sharedModified
			} else {
				c.st = shared
			}

		case shared:
			c.multi = true
			c.intersect(locksetOf(e))
			if e.Kind == trace.VarWrite {
				c.st = sharedModified
			}

		case sharedModified:
			c.multi = true
			c.intersect(locksetOf(e))
		}
		c.check(e, &rep)
		c.access.add(e)
		if e.Kind == trace.VarWrite {
			c.write.add(e)
		}
	}

	for _, c := range cells {
		if c.multi {
			rep.SharedVars++
		}
	}
	sort.Slice(rep.Races, func(i, j int) bool { return rep.Races[i].Variable < rep.Races[j].Variable })
	return rep
}

func locksetOf(e trace.Event) map[int]bool {
	m := make(map[int]bool, len(e.Locks))
	for _, l := range e.Locks {
		m[l] = true
	}
	return m
}

func (c *cellState) intersect(other map[int]bool) {
	if c.lockset == nil {
		c.lockset = other
		return
	}
	for l := range c.lockset {
		if !other[l] {
			delete(c.lockset, l)
		}
	}
}

// check reports the cell once its lockset is empty and e has a partner: an
// access since the exclusive phase by another thread, one of the two a
// write. A thread does not race with itself, so while only one thread has
// touched the cell since then nothing is reported.
func (c *cellState) check(e trace.Event, rep *Report) {
	if c.reported || c.st != sharedModified || len(c.lockset) > 0 {
		return
	}
	partners := &c.write
	if e.Kind == trace.VarWrite {
		partners = &c.access
	}
	first, ok := partners.notBy(e.Thread)
	if !ok {
		return
	}
	c.reported = true
	rep.Races = append(rep.Races, Race{Variable: c.name, First: first, Second: e})
}

// FormatReport renders the whole report as text.
func FormatReport(rep Report) string {
	if len(rep.Races) == 0 {
		return fmt.Sprintf("no races detected (%d shared variable(s) observed)\n", rep.SharedVars)
	}
	var sb strings.Builder
	for _, r := range rep.Races {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d racy variable(s), %d shared variable(s) observed\n", len(rep.Races), rep.SharedVars)
	return sb.String()
}
