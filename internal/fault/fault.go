// Package fault is tetrad's fault-injection layer: named injection
// points compiled into the execution path that, when armed, make the
// service hurt itself on purpose — workers panic, replies stall past
// their deadline, pipe writes truncate mid-message, processes die
// without a word. The chaos suites in internal/worker and
// internal/server arm these points to prove the supervision tier
// (restart with backoff, transparent retry, crash quarantine) keeps
// every request answered while workers are being murdered.
//
// Points are armed through a spec string — directly (Parse) or via the
// TETRA_FAULTS environment variable (FromEnv), which is how a parent
// process arms faults inside the worker processes it spawns:
//
//	TETRA_FAULTS="worker-panic=0.15,worker-delay=0.05:3s,worker-exit=0.1"
//
// Each entry is point=probability, optionally :duration for points that
// stall. An unarmed Injector (or a nil one) answers "no fault" with one
// predictable branch, so production paths pay nothing measurable.
package fault

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Injection point names. The worker points fire inside the worker
// process (internal/worker.ServeStdio); HandlerPanic fires inside the
// HTTP handler (internal/server) to exercise the panic-recovery
// middleware.
const (
	// WorkerPanic panics the worker before it executes the request:
	// the process dies with a stack trace, the reply never comes.
	WorkerPanic = "worker-panic"
	// WorkerExit SIGKILLs the worker after it executed the request but
	// before it replies — the cruelest window for retry semantics,
	// because the work was done and the reply was dropped.
	WorkerExit = "worker-exit"
	// WorkerDelay stalls the worker's reply by the configured duration
	// (default 1s), driving the supervisor's deadline-overrun path.
	WorkerDelay = "worker-delay"
	// PipeTruncate writes half of the reply bytes and exits, corrupting
	// the protocol stream mid-message.
	PipeTruncate = "pipe-truncate"
	// HandlerPanic panics inside HTTP request handling.
	HandlerPanic = "handler-panic"
	// NativeKill SIGKILLs a native-tier artifact process right after it
	// starts, simulating a crashing promoted binary — the trigger for
	// the demotion path (native → VM retry, artifact invalidated).
	NativeKill = "native-kill"
)

// EnvVar is the environment variable FromEnv reads the spec from.
const EnvVar = "TETRA_FAULTS"

// Fault describes one firing of an injection point.
type Fault struct {
	// Delay is the stall duration for points that delay rather than
	// kill (WorkerDelay).
	Delay time.Duration
}

type point struct {
	prob  float64
	delay time.Duration
	fired int64
}

// Injector holds a set of armed injection points. The zero value and
// nil are valid and never fire. Safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

// New returns an Injector with no armed points, rolling from seed
// (seed 0 picks a time-free fixed seed; pass distinct seeds for
// distinct sequences).
func New(seed int64) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*point),
	}
}

// Parse builds an Injector from a spec string like
// "worker-panic=0.2,worker-delay=0.1:500ms". Empty spec returns an
// inactive (but non-nil) Injector.
func Parse(spec string) (*Injector, error) {
	inj := New(1)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return inj, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault spec %q: want point=probability[:delay]", entry)
		}
		probStr, delayStr, hasDelay := strings.Cut(rest, ":")
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("fault spec %q: bad probability %q", entry, probStr)
		}
		var delay time.Duration
		if hasDelay {
			delay, err = time.ParseDuration(delayStr)
			if err != nil || delay < 0 {
				return nil, fmt.Errorf("fault spec %q: bad delay %q", entry, delayStr)
			}
		}
		inj.Set(strings.TrimSpace(name), prob, delay)
	}
	return inj, nil
}

// FromEnv builds an Injector from the TETRA_FAULTS environment
// variable. A malformed spec is reported on stderr and ignored rather
// than killing the worker before supervision can see it. The injector
// is reseeded with the process ID: a pool of identically-configured
// workers must roll independent sequences, not crash in lockstep at
// the same request ordinal.
func FromEnv() *Injector {
	spec := os.Getenv(EnvVar)
	inj, err := Parse(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault: ignoring %s: %v\n", EnvVar, err)
		inj = New(1)
	}
	inj.Reseed(int64(os.Getpid()))
	return inj
}

// Reseed replaces the injector's random sequence. Distinct processes
// sharing one spec reseed with a per-process value (FromEnv uses the
// PID) so their firings are uncorrelated.
func (i *Injector) Reseed(seed int64) {
	if i == nil {
		return
	}
	if seed == 0 {
		seed = 1
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rng = rand.New(rand.NewSource(seed))
}

// Set arms (or re-arms) a point with a firing probability and an
// optional delay payload.
func (i *Injector) Set(name string, prob float64, delay time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.points[name] = &point{prob: prob, delay: delay}
}

// Active reports whether any point is armed with a nonzero probability.
func (i *Injector) Active() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, p := range i.points {
		if p.prob > 0 {
			return true
		}
	}
	return false
}

// Fire rolls the dice for one point. It returns the fault payload and
// true when the point fires. Nil and unarmed injectors never fire.
func (i *Injector) Fire(name string) (Fault, bool) {
	if i == nil {
		return Fault{}, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	p, ok := i.points[name]
	if !ok || p.prob <= 0 {
		return Fault{}, false
	}
	if i.rng.Float64() >= p.prob {
		return Fault{}, false
	}
	p.fired++
	d := p.delay
	if name == WorkerDelay && d == 0 {
		d = time.Second
	}
	return Fault{Delay: d}, true
}

// Fired returns how many times the point has fired.
func (i *Injector) Fired(name string) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if p, ok := i.points[name]; ok {
		return p.fired
	}
	return 0
}

// String renders the armed points back into spec form (sorted, for
// stable test assertions and forensics logs).
func (i *Injector) String() string {
	if i == nil {
		return ""
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	names := make([]string, 0, len(i.points))
	for name := range i.points {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		p := i.points[name]
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", name, p.prob)
		if p.delay > 0 {
			fmt.Fprintf(&b, ":%s", p.delay)
		}
	}
	return b.String()
}
