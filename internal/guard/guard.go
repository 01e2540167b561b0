// Package guard is Tetra's resource governor: a shared budget that every
// execution backend — the AST interpreter (internal/interp), the bytecode
// VM (internal/vm) and the compiled-program runtime (internal/gort) —
// consults so that untrusted programs terminate cleanly instead of hanging
// or exhausting the host.
//
// The deadlock detector already converts "my program hangs" into an
// explanatory diagnostic; the governor does the same for every other
// resource-exhaustion failure mode a beginner can write: `while true:`
// (deadline / step budget), a `background` fork-bomb (thread budget),
// print floods (output budget) and unbounded array or string growth
// (allocation budget).
//
// One Governor is shared by all Tetra threads of a run. The hot path is a
// single atomic add against the fuel counter plus one atomic add on the
// thread's own tally (which funds the per-thread "where did the work go"
// breakdown in the trip diagnostic); backends check on statement
// boundaries (interpreter), per instruction (VM) and at loop back-edges
// (compiled code). Tripping is sticky: the first limit to trip wins, every
// later check observes it, and each backend converts the trip into a
// positioned value.RuntimeError at the statement it was detected.
package guard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/value"
)

// Limits bounds one execution. The zero value of any field means
// "unlimited"; the zero Limits disables the governor entirely.
type Limits struct {
	// Deadline is the wall-clock budget for the whole run.
	Deadline time.Duration
	// MaxSteps is the total statement/instruction budget across all
	// threads (the fuel counter).
	MaxSteps int64
	// MaxThreads bounds concurrently-live Tetra threads (the main thread
	// counts as one).
	MaxThreads int64
	// MaxOutputBytes bounds bytes written by print.
	MaxOutputBytes int64
	// MaxAllocCells bounds cumulative data allocation: one cell per array
	// element and one per byte of built string.
	MaxAllocCells int64
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.Deadline > 0 || l.MaxSteps > 0 || l.MaxThreads > 0 ||
		l.MaxOutputBytes > 0 || l.MaxAllocCells > 0
}

// Sandbox default budgets, chosen to let every legitimate teaching
// workload (including the paper's evaluation programs) finish while
// killing runaway programs promptly.
const (
	SandboxDeadline   = 10 * time.Second
	SandboxMaxSteps   = 200_000_000
	SandboxMaxThreads = 10_000
	SandboxMaxOutput  = 8 << 20 // 8 MiB
	SandboxMaxAlloc   = 1 << 26 // 64M cells
	// DefaultGrace bounds how long a terminating run waits for background
	// threads to notice the trip and exit before giving up on the join.
	DefaultGrace = 2 * time.Second
)

// WithSandboxDefaults fills every unset field with the sandbox default,
// keeping explicit settings. This is what `tetra -sandbox` applies.
func (l Limits) WithSandboxDefaults() Limits {
	if l.Deadline == 0 {
		l.Deadline = SandboxDeadline
	}
	if l.MaxSteps == 0 {
		l.MaxSteps = SandboxMaxSteps
	}
	if l.MaxThreads == 0 {
		l.MaxThreads = SandboxMaxThreads
	}
	if l.MaxOutputBytes == 0 {
		l.MaxOutputBytes = SandboxMaxOutput
	}
	if l.MaxAllocCells == 0 {
		l.MaxAllocCells = SandboxMaxAlloc
	}
	return l
}

// Kind identifies which limit tripped. OK means none has.
type Kind uint8

// Trip kinds, one per limit plus explicit cancellation.
const (
	OK Kind = iota
	Deadline
	Steps
	Threads
	Output
	Alloc
	Cancelled
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case Deadline:
		return "deadline"
	case Steps:
		return "steps"
	case Threads:
		return "threads"
	case Output:
		return "output"
	case Alloc:
		return "alloc"
	case Cancelled:
		return "cancelled"
	default:
		return "ok"
	}
}

// Tally is one thread's private work counter. Threads add to their own
// tally on every step; the governor reads all tallies when building the
// per-thread breakdown of a trip diagnostic. A nil Tally is inert.
type Tally struct {
	ID    int
	steps atomic.Int64
}

// Steps returns the work recorded so far.
func (t *Tally) Steps() int64 {
	if t == nil {
		return 0
	}
	return t.steps.Load()
}

// Governor enforces one Limits over one program run. All methods are safe
// for concurrent use by every Tetra thread.
type Governor struct {
	lim Limits

	steps  atomic.Int64 // fuel consumed
	output atomic.Int64 // bytes printed
	alloc  atomic.Int64 // cells allocated
	live   atomic.Int64 // currently-live threads

	trip  atomic.Uint32 // Kind of the first limit to trip (0 = none)
	timer *time.Timer

	mu      sync.Mutex
	tallies []*Tally
	onTrip  []func()
}

// New returns a governor enforcing lim. Callers typically skip creating a
// governor at all when !lim.Enabled(); a governor with zero limits still
// supports Cancel.
func New(lim Limits) *Governor {
	return &Governor{lim: lim}
}

// Limits returns the budgets being enforced.
func (g *Governor) Limits() Limits { return g.lim }

// Start arms the wall-clock deadline. Idempotent; call once per run.
func (g *Governor) Start() {
	if g.lim.Deadline <= 0 || g.timer != nil {
		return
	}
	g.timer = time.AfterFunc(g.lim.Deadline, func() { g.tripOnce(Deadline) })
}

// Stop disarms the deadline timer. Safe to call whether or not Start ran.
func (g *Governor) Stop() {
	if g.timer != nil {
		g.timer.Stop()
	}
}

// NewTally registers and returns a work counter for one thread.
func (g *Governor) NewTally(id int) *Tally {
	t := &Tally{ID: id}
	g.mu.Lock()
	g.tallies = append(g.tallies, t)
	g.mu.Unlock()
	return t
}

// OnTrip registers f to run exactly once when any limit trips (or Cancel
// is called). Backends use this to wake threads parked on condition
// variables so they observe the trip.
func (g *Governor) OnTrip(f func()) {
	g.mu.Lock()
	g.onTrip = append(g.onTrip, f)
	g.mu.Unlock()
}

func (g *Governor) tripOnce(k Kind) Kind {
	if !g.trip.CompareAndSwap(0, uint32(k)) {
		return Kind(g.trip.Load())
	}
	g.mu.Lock()
	fns := g.onTrip
	g.mu.Unlock()
	for _, f := range fns {
		f()
	}
	return k
}

// Tripped returns the Kind of the first limit to trip, or OK.
func (g *Governor) Tripped() Kind { return Kind(g.trip.Load()) }

// Cancel trips the governor with Cancelled, stopping every thread at its
// next check. This is how Interp.Cancel and VM.Cancel are implemented when
// a governor is attached.
func (g *Governor) Cancel() { g.tripOnce(Cancelled) }

// StepBatch is how many steps a backend accumulates thread-locally before
// syncing with the governor via StepN. Batching keeps the per-step hot-path
// cost to one local increment; a trip is observed at most StepBatch-1
// steps late, which is microseconds on any spinning workload.
const StepBatch = 64

// Step charges one unit of fuel on behalf of the thread owning tally and
// returns the trip state: one tally add plus one fuel add (skipped when
// MaxSteps is unlimited). Backends on very hot paths batch with StepN
// instead.
func (g *Governor) Step(tally *Tally) Kind {
	return g.StepN(tally, 1)
}

// StepN charges n units of fuel at once (the batched hot-path call).
func (g *Governor) StepN(tally *Tally, n int64) Kind {
	if k := Kind(g.trip.Load()); k != OK {
		return k
	}
	if tally != nil {
		tally.steps.Add(n)
	}
	if g.lim.MaxSteps > 0 && g.steps.Add(n) > g.lim.MaxSteps {
		return g.tripOnce(Steps)
	}
	return OK
}

// ThreadStart accounts a new live thread and returns the trip state. Only
// an OK is to be paired with a ThreadDone.
func (g *Governor) ThreadStart() Kind {
	if k := Kind(g.trip.Load()); k != OK {
		return k
	}
	if n := g.live.Add(1); g.lim.MaxThreads > 0 && n > g.lim.MaxThreads {
		g.live.Add(-1) // refused: the thread never starts and is never done
		return g.tripOnce(Threads)
	}
	return OK
}

// ThreadDone accounts a thread exit.
func (g *Governor) ThreadDone() { g.live.Add(-1) }

// Live returns how many threads have started and are not yet done.
func (g *Governor) Live() int64 { return g.live.Load() }

// AddOutput charges n bytes of program output. When the charge would cross
// the budget the write must be suppressed by the caller.
func (g *Governor) AddOutput(n int) Kind {
	if k := Kind(g.trip.Load()); k != OK {
		return k
	}
	if g.lim.MaxOutputBytes > 0 && g.output.Add(int64(n)) > g.lim.MaxOutputBytes {
		return g.tripOnce(Output)
	}
	return OK
}

// AddAlloc charges n cells of data allocation (array elements, string
// bytes).
func (g *Governor) AddAlloc(n int64) Kind {
	if k := Kind(g.trip.Load()); k != OK {
		return k
	}
	if g.lim.MaxAllocCells > 0 && g.alloc.Add(n) > g.lim.MaxAllocCells {
		return g.tripOnce(Alloc)
	}
	return OK
}

// message renders the diagnostic for a tripped limit.
func (g *Governor) message(k Kind) string {
	switch k {
	case Deadline:
		return fmt.Sprintf("exceeded deadline (%s)", g.lim.Deadline)
	case Steps:
		return fmt.Sprintf("exceeded step budget (%d)", g.lim.MaxSteps)
	case Threads:
		return fmt.Sprintf("exceeded thread budget (%d live threads)", g.lim.MaxThreads)
	case Output:
		return fmt.Sprintf("exceeded output budget (%d bytes)", g.lim.MaxOutputBytes)
	case Alloc:
		return fmt.Sprintf("exceeded allocation budget (%d cells)", g.lim.MaxAllocCells)
	case Cancelled:
		return "execution cancelled"
	default:
		return "no limit exceeded"
	}
}

// Breakdown summarizes where the work went, listing the busiest threads:
// "work: thread 0: 612340 steps, thread 3: 120 steps". Empty when no work
// was recorded.
func (g *Governor) Breakdown() string {
	g.mu.Lock()
	tallies := append([]*Tally(nil), g.tallies...)
	g.mu.Unlock()
	type tw struct {
		id    int
		steps int64
	}
	var rows []tw
	for _, t := range tallies {
		if n := t.Steps(); n > 0 {
			rows = append(rows, tw{t.ID, n})
		}
	}
	if len(rows) == 0 {
		return ""
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].steps != rows[j].steps {
			return rows[i].steps > rows[j].steps
		}
		return rows[i].id < rows[j].id
	})
	const maxRows = 6
	shown := rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	var sb strings.Builder
	sb.WriteString("work: ")
	for i, r := range shown {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "thread %d: %d steps", r.id, r.steps)
	}
	if n := len(rows) - len(shown); n > 0 {
		fmt.Fprintf(&sb, ", +%d more", n)
	}
	return sb.String()
}

// Err builds the un-positioned limit error for k (used where no source
// position is available, e.g. inside a builtin; the backend re-wraps it
// with the call site's position).
func (g *Governor) Err(k Kind) error {
	return fmt.Errorf("%s", g.message(k))
}

// ErrAt builds the positioned runtime error for a trip detected at pos,
// including the per-thread work breakdown.
func (g *Governor) ErrAt(k Kind, pos string) *value.RuntimeError {
	msg := g.message(k)
	if bd := g.Breakdown(); bd != "" && k != Cancelled {
		msg += " [" + bd + "]"
	}
	return &value.RuntimeError{Msg: msg, Pos: pos}
}

// WaitGroup joins wg but gives up after the grace period, so a run that
// tripped a limit still returns even if a thread is stuck in a blocking
// operation the governor cannot interrupt. Reports whether the join
// completed.
func WaitGroup(wg *sync.WaitGroup, grace time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(grace):
		return false
	}
}
