package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"repro/internal/guard"
)

// Registry errors.
var (
	// ErrFull means the server-wide session cap is reached; clients should
	// retry after closing or finishing a session (HTTP 429).
	ErrFull = errors.New("session table full")
	// ErrClosed means the registry is draining or closed (HTTP 503).
	ErrClosed = errors.New("session registry closed")
)

// Options configures a Registry.
type Options struct {
	// MaxSessions caps concurrently live sessions server-wide (<= 0
	// selects 32). Create returns ErrFull beyond the cap.
	MaxSessions int
	// IdleTimeout evicts sessions with no subscribers and no client
	// activity for this long (<= 0 selects 2m).
	IdleTimeout time.Duration
	// ReapInterval is the eviction scan period (<= 0 selects 1s; tests
	// shrink it).
	ReapInterval time.Duration
	// TraceCap is the default per-session trace-ring bound (0 selects
	// trace.DefaultCap).
	TraceCap int
	// Logf, when set, receives one line per lifecycle transition.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of the registry's counters, embedded in /metrics.
type Stats struct {
	Active       int   `json:"active"`
	Created      int64 `json:"created"`
	Evicted      int64 `json:"evicted"` // all removals: finished, closed, idle, drain
	EvictedIdle  int64 `json:"evicted_idle"`
	EvictedDrain int64 `json:"evicted_drain"`
	Rejected     int64 `json:"rejected"` // Create refused: table full
}

// Registry owns every live session: it enforces the server-wide cap,
// evicts idle sessions, and tears everything down on drain. All methods
// are safe for concurrent use.
type Registry struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool
	stats    Stats

	wg       sync.WaitGroup // one count per session watcher
	stop     chan struct{}  // ends the reaper
	stopOnce sync.Once
}

// NewRegistry starts an empty registry (and its eviction scanner).
func NewRegistry(opts Options) *Registry {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 32
	}
	if opts.IdleTimeout <= 0 {
		opts.IdleTimeout = 2 * time.Minute
	}
	if opts.ReapInterval <= 0 {
		opts.ReapInterval = time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	r := &Registry{
		opts:     opts,
		sessions: map[string]*Session{},
		stop:     make(chan struct{}),
	}
	go r.reap()
	return r
}

// Create admits one session under the cap and starts its program. The
// caller has already passed tetrad's admission gate and clamped the
// limits; the registry only owns session-table concerns.
func (r *Registry) Create(cfg Config) (*Session, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if len(r.sessions) >= r.opts.MaxSessions {
		r.stats.Rejected++
		r.mu.Unlock()
		return nil, ErrFull
	}
	id := newID()
	for _, exists := r.sessions[id]; exists; _, exists = r.sessions[id] {
		id = newID()
	}
	s := newSession(id, cfg, r.opts.TraceCap)
	r.sessions[id] = s
	r.stats.Created++
	r.wg.Add(1)
	r.mu.Unlock()

	go func() {
		defer r.wg.Done()
		s.run()
	}()
	r.opts.Logf("session %s: created (file=%s stop_on_entry=%v)", id, cfg.File, cfg.StopOnEntry)
	return s, nil
}

// Get looks a session up by id.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// Remove evicts one session with the given terminal reason: its program
// is killed, subscribers receive the terminal event, and the id is freed.
// Reports whether the id was present.
func (r *Registry) Remove(id, reason string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok {
		delete(r.sessions, id)
		r.stats.Evicted++
		if reason == ReasonIdle {
			r.stats.EvictedIdle++
		}
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	s.kill(reason)
	r.opts.Logf("session %s: evicted (%s)", id, reason)
	return true
}

// Snapshot returns the current counters.
func (r *Registry) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Active = len(r.sessions)
	return st
}

// reap scans for idle sessions: no attached subscribers and no client
// activity for IdleTimeout. Finished-but-unevicted sessions age out the
// same way, so the table cannot fill with corpses.
func (r *Registry) reap() {
	tick := time.NewTicker(r.opts.ReapInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		var idle []string
		r.mu.Lock()
		for id, s := range r.sessions {
			if s.Subscribers() == 0 && s.IdleFor() > r.opts.IdleTimeout {
				idle = append(idle, id)
			}
		}
		r.mu.Unlock()
		for _, id := range idle {
			r.Remove(id, ReasonIdle)
		}
	}
}

// CloseAll evicts every session with the given reason and waits (with the
// guard grace period) for their watcher goroutines to finish — after it
// returns, no session goroutine survives. Further Creates fail with
// ErrClosed. Called by tetrad's drain after readiness has flipped.
func (r *Registry) CloseAll(reason string) {
	r.mu.Lock()
	r.closed = true
	victims := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		victims = append(victims, s)
		delete(r.sessions, id)
		r.stats.Evicted++
		if reason == ReasonDrain {
			r.stats.EvictedDrain++
		}
	}
	r.mu.Unlock()
	for _, s := range victims {
		s.kill(reason)
	}
	if n := len(victims); n > 0 {
		r.opts.Logf("session registry: evicted %d session(s) (%s)", n, reason)
	}
	guard.WaitGroup(&r.wg, guard.DefaultGrace)
}

// Close stops the reaper and tears down any remaining sessions. Idempotent.
func (r *Registry) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.CloseAll(ReasonDrain)
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand cannot fail on supported platforms; an all-zero id
		// still works (ids only need uniqueness, enforced by the map).
		return "s-00000000"
	}
	return "s-" + hex.EncodeToString(b[:])
}
