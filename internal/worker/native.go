package worker

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
)

// maxResident is how many artifacts may keep a live process at once; a
// new artifact beyond it evicts the least recently used idle one. A
// resident artifact holds about 4 MiB, so four hold what two warm pool
// workers do. The serve_* workloads promote one program each, and their
// rss_mb is the same at 1 and at 4 (DESIGN.md §12 "Evidence").
const maxResident = 4

// NativeRunner executes promoted native artifacts — Tetra programs
// compiled via gogen and `go build` (internal/promote). An artifact's
// process is resident: started on the artifact's first request with
// EnvWorker=1, it serves request after request over the wire protocol
// pooled workers speak (gort.Main's loop), so the fork, exec and Go
// runtime start are paid once per artifact instead of once per request.
// Each run gets fresh per-run state inside the artifact and carries its
// budget in Request.Limits; the reply's run_us is the artifact's own run.
//
// One process serves an artifact, one request at a time: a request whose
// artifact is busy waits up to leaseTimeout for it and then gets
// ErrExhausted, which the server answers from the pool. At most
// maxResident artifacts are live. A process is never reused after a run
// that did not succeed (its threads may still be live or parked), nor
// after a crash, a deadline overrun, info.Stop, Close or
// fault.NativeKill: it is killed, and the artifact's next request starts
// a fresh one.
//
// The runner supervises its children as the pool does, through the same
// supervisor and protocol code (child.go): one attempt deadline, one
// forensics call, and zero-orphan accounting (Stats().Reaped ==
// Stats().Spawns and Live == 0 after Close). A runtime error is reply
// data; a death or a broken exchange is a crash. It has no circuit
// breaker of its own: the server demotes a program at its artifact's
// first crash, and promote pins it to the VM after MaxDemotions.
type NativeRunner struct {
	faults *fault.Injector
	sup    *supervisor

	mu    sync.Mutex
	slots map[string]*resident // by artifact path, at most maxResident
	clock uint64               // LRU stamps
}

// resident is one artifact's slot. token holds its idle process — nil
// when none is live, and the next lease starts one — and is empty while
// a request holds the lease, so a second request for the artifact waits
// on it.
type resident struct {
	token chan *proc
	used  uint64 // LRU stamp, under NativeRunner.mu
}

// NativeOptions configures a NativeRunner.
type NativeOptions struct {
	// Faults arms the native-tier injection point (fault.NativeKill).
	Faults *fault.Injector
	// Logf, when set, receives supervision events.
	Logf func(format string, args ...any)
}

// NewNativeRunner returns a runner ready to execute artifacts.
func NewNativeRunner(opts NativeOptions) *NativeRunner {
	return &NativeRunner{
		faults: opts.Faults,
		sup:    newSupervisor("native", opts.Logf),
		slots:  make(map[string]*resident),
	}
}

// Stats snapshots the runner's process accounting.
func (r *NativeRunner) Stats() ProcStats { return r.sup.stats() }

// Run executes one request on the artifact binary's resident process,
// starting it if none is live. A Tetra runtime error is data and comes
// back as a well-formed Response; any other failure of the exchange
// returns a *CrashedError of one attempt. ErrExhausted means the
// artifact stayed busy for leaseTimeout, or every resident slot is
// leased. Closing info.Stop kills the process (drain); a Run that Close
// interrupts returns ErrClosed.
func (r *NativeRunner) Run(bin string, req *Request, info RunInfo) (*Response, error) {
	slot, pr, err := r.lease(bin)
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrExhausted):
		return nil, err
	case err != nil:
		return nil, r.sup.crashed(nil, 1, 1, req, info, fmt.Sprintf("artifact spawn failed: %v", err))
	}
	r.sup.runs.Add(1)

	// Chaos hook: murder the artifact mid-request to drive the
	// demotion path.
	if _, ok := r.faults.Fire(fault.NativeKill); ok {
		pr.kill()
	}

	resp, err := pr.roundTrip(req, attemptDeadline(req.Limits), info.Stop)
	if err == nil {
		resp.CacheHit = true // the artifact IS the cached compile
		if resp.OK {
			slot.token <- pr
			return resp, nil
		}
	}
	pr.retire()
	slot.token <- nil
	if err == nil {
		// The program failed: the reply stands, the process does not.
		return resp, nil
	}
	<-pr.dead
	switch {
	case errors.Is(err, ErrCancelled):
		return nil, ErrCancelled
	case pr.shutdown.Load():
		return nil, ErrClosed
	}
	return nil, r.sup.crashed(pr.child, 1, 1, req, info, err.Error())
}

// lease takes bin's slot, waiting up to leaseTimeout while another
// request holds it, and returns it with a live process, started here when
// the slot had none. A spawn error is returned as is; the slot is then
// free again.
func (r *NativeRunner) lease(bin string) (*resident, *proc, error) {
	r.mu.Lock()
	slot := r.slots[bin]
	if slot == nil {
		if len(r.slots) >= maxResident && !r.evictLocked() {
			r.mu.Unlock()
			return nil, nil, ErrExhausted
		}
		slot = &resident{token: make(chan *proc, 1)}
		slot.token <- nil
		r.slots[bin] = slot
	}
	r.clock++
	slot.used = r.clock
	r.mu.Unlock()

	timer := time.NewTimer(leaseTimeout)
	defer timer.Stop()
	var pr *proc
	select {
	case pr = <-slot.token:
	case <-timer.C:
		// Busy throughout, or evicted between the lookup and the wait.
		return nil, nil, ErrExhausted
	case <-r.sup.done:
		return nil, nil, ErrClosed
	}
	if pr != nil {
		select {
		case <-pr.dead:
			pr.retire()
			if pr.shutdown.Load() {
				slot.token <- nil
				return nil, nil, ErrClosed
			}
			r.sup.logf("native artifact died idle: pid=%d bin=%s", pr.pid, bin)
		default:
			return slot, pr, nil
		}
	}
	pr, err := r.sup.startProc([]string{bin}, nil)
	if err != nil {
		slot.token <- nil
		return nil, nil, err
	}
	return slot, pr, nil
}

// evictLocked frees the slot of the least recently used idle artifact,
// retiring its process, and reports false when every slot is leased.
func (r *NativeRunner) evictLocked() bool {
	bins := make([]string, 0, len(r.slots))
	for bin := range r.slots {
		bins = append(bins, bin)
	}
	slices.SortFunc(bins, func(a, b string) int { return cmp.Compare(r.slots[a].used, r.slots[b].used) })
	for _, bin := range bins {
		select {
		case pr := <-r.slots[bin].token:
			delete(r.slots, bin)
			if pr != nil {
				pr.retire()
			}
			return true
		default:
		}
	}
	return false
}

// Close kills every resident process and waits until all are reaped —
// zero orphans. A Run it interrupts returns ErrClosed.
func (r *NativeRunner) Close() { r.sup.close() }
