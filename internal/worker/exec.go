package worker

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/racedetect"
	"repro/internal/trace"
	"repro/internal/value"
)

// Canceler is the slice of the backend API the drain path needs; both
// core.NewInterp and core.NewVM results satisfy it.
type Canceler interface{ Cancel() }

// Execute compiles and runs one request through the given compile
// cache, always returning a well-formed Response (compile and runtime
// failures are data). It is THE execution path: worker processes call
// it from their serve loop, and the server calls it directly for
// in-process (isolation=off / pool-exhausted fallback) execution — so
// the isolated and non-isolated tiers cannot drift semantically.
//
// Execute deliberately does not recover panics. In a worker process the
// supervisor's whole job is to observe the death and retry elsewhere;
// the in-process caller wraps its own recovery around it.
func Execute(req *Request, cache *core.CompileCache) *Response {
	return ExecuteTracked(req, cache, nil)
}

// ExecuteTracked is Execute with a hook that receives the live backend
// before the run starts, so a draining server can cancel in-process
// executions through the governor trip path.
func ExecuteTracked(req *Request, cache *core.CompileCache, track func(Canceler) (untrack func())) *Response {
	resp := &Response{Seq: req.Seq}

	var out bytes.Buffer
	cfg := core.Config{
		Stdin:  strings.NewReader(req.Stdin),
		Stdout: &out,
		Limits: req.Limits,
	}
	var col *trace.Collector
	if req.Trace || req.Race {
		col = trace.NewCollectorCap(req.TraceCap)
		cfg.Tracer = col
		cfg.TraceVars = req.Race
	}

	compileStart := time.Now()
	var run func() error
	var c Canceler
	switch req.Backend {
	case "vm":
		resp.CacheHit = cache.PeekBytecode(req.File, req.Source, req.Opt)
		bc, err := cache.CompileBytecode(req.File, req.Source, req.Opt)
		if err != nil {
			return compileFailed(resp, err, compileStart)
		}
		m := core.NewVM(bc, cfg)
		run, c = m.Run, m
	case "", "interp":
		resp.CacheHit = cache.PeekAST(req.File, req.Source)
		prog, err := cache.Compile(req.File, req.Source)
		if err != nil {
			return compileFailed(resp, err, compileStart)
		}
		in := core.NewInterp(prog, cfg)
		run, c = in.Run, in
	default:
		// Refuse rather than silently running the interpreter: a request
		// layer that forgot to validate its backend must hear about it,
		// not get a default engine and byte-different semantics.
		resp.ErrStage = "request"
		resp.ErrMessage = fmt.Sprintf("unknown backend %q (want \"interp\" or \"vm\")", req.Backend)
		return resp
	}
	resp.CompileMicros = time.Since(compileStart).Microseconds()

	if track != nil {
		untrack := track(c)
		defer untrack()
	}
	runStart := time.Now()
	runErr := run()
	resp.RunMicros = time.Since(runStart).Microseconds()

	resp.Stdout = out.String()
	if runErr != nil {
		resp.ErrStage = "runtime"
		resp.ErrMessage = runErr.Error()
		var rte *value.RuntimeError
		if errors.As(runErr, &rte) {
			resp.ErrPos = rte.Pos
		}
	} else {
		resp.OK = true
	}
	if col != nil {
		events := col.Events()
		sum := trace.Summarize(events)
		sum.Truncated, sum.Dropped = col.Truncated(), col.Dropped()
		resp.Trace = &sum
		if req.Race {
			rep := racedetect.Analyze(events)
			resp.Races = make([]string, 0, len(rep.Races))
			for _, rc := range rep.Races {
				resp.Races = append(resp.Races, rc.String())
			}
		}
	}
	return resp
}

func compileFailed(resp *Response, err error, start time.Time) *Response {
	resp.CompileMicros = time.Since(start).Microseconds()
	resp.ErrStage = "compile"
	resp.ErrMessage = err.Error()
	return resp
}
