package worker

import (
	"errors"
	"fmt"

	"repro/internal/fault"
)

// maxResident is how many artifact processes may be live at once; a new
// one beyond it retires the least recently used idle one. A resident
// artifact holds about 4 MiB, so four hold what two warm pool workers do.
// The serve_* workloads promote one program each, and their rss_mb is the
// same at 1 and at 4 (DESIGN.md §12 "Evidence").
const maxResident = 4

// NativeRunner executes promoted native artifacts — Tetra programs
// compiled via gogen and `go build` (internal/promote). An artifact's
// process is resident: started on the artifact's first request with
// EnvWorker=1, it serves request after request over the wire protocol
// pooled workers speak (gort.Main's loop), so the fork, exec and Go
// runtime start are paid once per process instead of once per request.
// Each run gets fresh per-run state inside the artifact and carries its
// budget in Request.Limits; the reply's run_us is the artifact's own run.
//
// A process serves one request at a time. Processes are leased as pooled
// workers are (residents, child.go), keyed by the artifact, at most
// maxResident live; ErrExhausted, when all stay leased, is answered by the
// server from the pool. A process is never reused after a run that did
// not succeed (its threads may still be live or parked), nor after a
// crash, a deadline overrun, info.Stop, Close or fault.NativeKill: it is
// killed, and a later request starts a fresh one.
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
	set    *residents
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
	return &NativeRunner{faults: opts.Faults, set: newResidents("native", nil, maxResident, opts.Logf)}
}

// Stats snapshots the runner's process accounting.
func (r *NativeRunner) Stats() ProcStats { return r.set.stats() }

// Run executes one request on a resident process of the artifact binary,
// starting one if none is idle. A Tetra runtime error is data and comes
// back as a well-formed Response; any other failure of the exchange
// returns a *CrashedError of one attempt. ErrExhausted means every
// resident process stayed leased for leaseTimeout, or a start is backing
// off. Closing info.Stop kills the process (drain); a Run that Close
// interrupts returns ErrClosed.
func (r *NativeRunner) Run(bin string, req *Request, info RunInfo) (*Response, error) {
	pr, err := r.set.lease([]string{bin})
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrExhausted):
		return nil, err
	case err != nil:
		return nil, r.set.crashed(nil, 1, 1, req, info, fmt.Sprintf("artifact spawn failed: %v", err))
	}
	r.set.runs.Add(1)

	// Chaos hook: murder the artifact mid-request to drive the
	// demotion path.
	if _, ok := r.faults.Fire(fault.NativeKill); ok {
		pr.kill()
	}

	resp, err := pr.roundTrip(req, attemptDeadline(req.Limits), info.Stop)
	if err == nil {
		resp.CacheHit = true // the artifact IS the cached compile
		if resp.OK {
			r.set.release(pr)
		} else {
			// The program failed: the reply stands, the process does not.
			r.set.retire(pr, nil)
		}
		return resp, nil
	}
	crashed := r.set.retire(pr, err)
	<-pr.dead
	switch {
	case crashed:
		return nil, r.set.crashed(pr.child, 1, 1, req, info, err.Error())
	case errors.Is(err, ErrCancelled):
		return nil, ErrCancelled
	}
	return nil, ErrClosed
}

// Close kills every resident process and waits until all are reaped —
// zero orphans. A Run it interrupts returns ErrClosed.
func (r *NativeRunner) Close() { r.set.close() }
