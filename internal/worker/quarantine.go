package worker

import (
	"sync"
	"time"
)

// QuarantinePolicy is the circuit breaker for programs that repeatedly
// kill their workers: after Threshold crashes attributed to one program
// hash within Window, the hash is quarantined for TTL — requests for it
// are answered with a 422 instead of burning more workers.
type QuarantinePolicy struct {
	// Threshold is the crash count that trips the breaker. 0 selects
	// the default (3); negative disables quarantine entirely.
	Threshold int
	// Window bounds how far back crashes count toward the threshold
	// (default 1 minute).
	Window time.Duration
	// TTL is how long a tripped hash stays quarantined (default 5
	// minutes). After the TTL the breaker resets and the program gets a
	// fresh start.
	TTL time.Duration
}

func (p QuarantinePolicy) withDefaults() QuarantinePolicy {
	if p.Threshold == 0 {
		p.Threshold = 3
	}
	if p.Window <= 0 {
		p.Window = time.Minute
	}
	if p.TTL <= 0 {
		p.TTL = 5 * time.Minute
	}
	return p
}

// Disabled reports whether the policy turns quarantine off.
func (p QuarantinePolicy) Disabled() bool { return p.Threshold < 0 }

type quarEntry struct {
	crashes []time.Time // within the window, oldest first
	until   time.Time   // nonzero while quarantined
}

// quarantine tracks per-hash crash history. Safe for concurrent use.
type quarantine struct {
	mu     sync.Mutex
	policy QuarantinePolicy
	byHash map[string]*quarEntry
	now    func() time.Time // injectable clock for tests
}

func newQuarantine(p QuarantinePolicy) *quarantine {
	return &quarantine{
		policy: p.withDefaults(),
		byHash: make(map[string]*quarEntry),
		now:    time.Now,
	}
}

// Record attributes one worker crash to hash and reports whether the
// hash is now quarantined.
func (q *quarantine) Record(hash string) bool {
	if q.policy.Disabled() {
		return false
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.byHash[hash]
	if e == nil {
		e = &quarEntry{}
		q.byHash[hash] = e
	}
	if !e.until.IsZero() && now.Before(e.until) {
		return true // already quarantined; nothing more to count
	}
	e.until = time.Time{}
	cutoff := now.Add(-q.policy.Window)
	kept := e.crashes[:0]
	for _, t := range e.crashes {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	e.crashes = append(kept, now)
	if len(e.crashes) >= q.policy.Threshold {
		e.until = now.Add(q.policy.TTL)
		e.crashes = nil
		return true
	}
	return false
}

// Quarantined reports whether hash is currently quarantined, and if so
// for how much longer.
func (q *quarantine) Quarantined(hash string) (time.Duration, bool) {
	if q == nil || q.policy.Disabled() {
		return 0, false
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.byHash[hash]
	if e == nil || e.until.IsZero() {
		return 0, false
	}
	if now.Before(e.until) {
		return e.until.Sub(now), true
	}
	// TTL elapsed: the breaker resets and the entry is forgotten.
	delete(q.byHash, hash)
	return 0, false
}

// Count returns how many hashes are currently quarantined.
func (q *quarantine) Count() int {
	if q == nil {
		return 0
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, e := range q.byHash {
		if !e.until.IsZero() && now.Before(e.until) {
			n++
		}
	}
	return n
}
