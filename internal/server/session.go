package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/debugger"
	"repro/internal/session"
)

// Session endpoints (the streaming counterpart of POST /run):
//
//	POST   /session              create a debug session (program starts
//	                             parked on entry unless stop_on_entry=false)
//	GET    /session/{id}         snapshot: threads, breakpoints, trace stats
//	GET    /session/{id}/events  SSE stream: stdout, state, trace, end
//	POST   /session/{id}/cmd     one debugger command (step, break, stdin, …)
//	DELETE /session/{id}         close the session (terminal event: closed)
//
// Sessions run on the interpreter tier only — the debugger's step hook is
// an interp feature — in the server process, under the same limit ceiling
// as /run except the deadline axis, which is replaced by SessionMaxAge
// (an interactive session legitimately outlives the batch deadline; the
// governor still ends it at the session ceiling). Creation passes through
// the same admission controller as /run, so a create burst queues and
// sheds like any other load; long-lived concurrency is bounded separately
// by Options.MaxSessions.

// SessionRequest is the JSON body of POST /session.
type SessionRequest struct {
	// Source is the Tetra program text (required).
	Source string `json:"source"`
	// File names the program in positions and events; default "prog.ttr".
	File string `json:"file,omitempty"`
	// Stdin seeds the program's input; more can be streamed with the
	// "stdin" command.
	Stdin string `json:"stdin,omitempty"`
	// Limits tightens the per-session budget (clamped by the server
	// ceiling; timeout_ms is clamped by the session max age instead of
	// the batch deadline).
	Limits *LimitSpec `json:"limits,omitempty"`
	// StopOnEntry parks every thread at its first statement. Omitted
	// means true — the natural mode for a debugger front-end.
	StopOnEntry *bool `json:"stop_on_entry,omitempty"`
	// Breakpoints are source lines armed before the program starts.
	Breakpoints []int `json:"breakpoints,omitempty"`
	// TraceCap tightens this session's trace-ring bound (0 = the server's
	// session bound, Options.SessionTraceCap); a larger value is clamped
	// to that bound, never loosening it.
	TraceCap int `json:"trace_cap,omitempty"`
}

// Validate checks the request and fills defaults.
func (r *SessionRequest) Validate() error {
	// What a session shares with a run is held to the run's rules.
	rr := RunRequest{Source: r.Source, File: r.File, Stdin: r.Stdin, Limits: r.Limits, TraceCap: r.TraceCap}
	if err := rr.Validate(); err != nil {
		return err
	}
	r.File = rr.File
	for _, l := range r.Breakpoints {
		if l <= 0 {
			return fmt.Errorf("breakpoint line must be >= 1, got %d", l)
		}
	}
	return nil
}

func (r *SessionRequest) stopOnEntry() bool {
	return r.StopOnEntry == nil || *r.StopOnEntry
}

// SessionResponse is the JSON body answering POST /session.
type SessionResponse struct {
	ID          string `json:"id"`
	File        string `json:"file"`
	StopOnEntry bool   `json:"stop_on_entry"`
	Breakpoints []int  `json:"breakpoints,omitempty"`
	// EventsPath and CmdPath are the session's other endpoints, spelled
	// out so clients need no URL templating.
	EventsPath string `json:"events_path"`
	CmdPath    string `json:"cmd_path"`
	// MaxAgeMS and IdleTimeoutMS tell the client how long the session
	// may live and how quickly an abandoned one is evicted.
	MaxAgeMS      int64 `json:"max_age_ms"`
	IdleTimeoutMS int64 `json:"idle_timeout_ms"`
}

// SessionCmdRequest is the JSON body of POST /session/{id}/cmd.
type SessionCmdRequest struct {
	// Cmd is one of: threads, thread, step, next, continue, pause,
	// continue_all, pause_all, wait, break, clear, breakpoints, vars,
	// stdin, stdin_close, races, deadlock, output, trace, close.
	Cmd string `json:"cmd"`
	// Thread targets one thread (step, next, continue, pause, vars,
	// thread, wait).
	Thread int `json:"thread,omitempty"`
	// Line is the breakpoint line (break, clear).
	Line int `json:"line,omitempty"`
	// Data is the input chunk for the stdin command.
	Data string `json:"data,omitempty"`
	// TimeoutMS bounds how long step/next/wait block for the re-park
	// (default 2000, capped at 10000).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r *SessionCmdRequest) timeout() time.Duration {
	const def, max = 2 * time.Second, 10 * time.Second
	d := time.Duration(r.TimeoutMS) * time.Millisecond
	if d <= 0 {
		return def
	}
	if d > max {
		return max
	}
	return d
}

// SessionCmdResponse answers a session command. OK reports the command
// took effect; Result carries the step outcome ("parked", "finished",
// "timeout", "no-thread") when one applies, and why vars has none
// ("no-thread", or "running" for a thread that is not parked and is in a
// function with no shared variable). A running thread's vars are its
// shared variables only.
type SessionCmdResponse struct {
	OK          bool                 `json:"ok"`
	Cmd         string               `json:"cmd"`
	Result      string               `json:"result,omitempty"`
	Thread      *session.ThreadInfo  `json:"thread,omitempty"`
	Threads     []session.ThreadInfo `json:"threads,omitempty"`
	Vars        map[string]string    `json:"vars,omitempty"`
	Breakpoints []int                `json:"breakpoints,omitempty"`
	Races       []string             `json:"races,omitempty"`
	Deadlock    string               `json:"deadlock,omitempty"`
	Contention  map[string]int       `json:"contention,omitempty"`
	Output      string               `json:"output,omitempty"`
	Trace       *session.TraceStats  `json:"trace,omitempty"`
	Done        bool                 `json:"done"`
}

// SessionSnapshot is the JSON body of GET /session/{id}.
type SessionSnapshot struct {
	ID          string               `json:"id"`
	File        string               `json:"file"`
	Done        bool                 `json:"done"`
	Error       string               `json:"error,omitempty"`
	Threads     []session.ThreadInfo `json:"threads"`
	Breakpoints []int                `json:"breakpoints,omitempty"`
	Subscribers int                  `json:"subscribers"`
	Trace       session.TraceStats   `json:"trace"`
	AgeMS       int64                `json:"age_ms"`
	IdleMS      int64                `json:"idle_ms"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFrom(r)
	w.Header().Set("X-Request-ID", reqID)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST /session with a JSON body")
		return
	}
	s.met.requests.Add(1)
	var req SessionRequest
	if !s.intake(w, r, &req, req.Validate) {
		return
	}

	// Same admission gate as /run: a create burst queues and sheds here.
	// The slot is released as soon as the session exists — long-lived
	// concurrency is MaxSessions' job, and a parked session must not
	// starve /run of execution slots.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	prog, err := s.cache.Compile(req.File, req.Source)
	if err != nil {
		// Same shape as /run: a compile error is data, not an HTTP error,
		// but a session cannot exist without a program — 422 here.
		s.met.compileErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}

	// The batch deadline would kill an interactive session mid-step:
	// clamp the timeout axis by the session max age instead.
	ceiling := s.opts.Ceiling
	ceiling.Deadline = s.opts.SessionMaxAge
	eff := ClampLimits(req.Limits, ceiling)

	sess, err := s.sessions.Create(session.Config{
		Prog:        prog,
		File:        req.File,
		Stdin:       req.Stdin,
		Limits:      eff,
		StopOnEntry: req.stopOnEntry(),
		Breakpoints: req.Breakpoints,
		TraceCap:    req.TraceCap,
	})
	switch err {
	case nil:
	case session.ErrFull:
		s.reject(w, http.StatusTooManyRequests,
			fmt.Sprintf("session table full (%d live); close one or retry later", s.opts.MaxSessions))
		return
	case session.ErrClosed:
		s.reject(w, http.StatusServiceUnavailable, "server is draining")
		return
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	writeJSON(w, http.StatusCreated, SessionResponse{
		ID:            sess.ID,
		File:          req.File,
		StopOnEntry:   req.stopOnEntry(),
		Breakpoints:   req.Breakpoints,
		EventsPath:    "/session/" + sess.ID + "/events",
		CmdPath:       "/session/" + sess.ID + "/cmd",
		MaxAgeMS:      s.opts.SessionMaxAge.Milliseconds(),
		IdleTimeoutMS: s.opts.SessionIdleTimeout.Milliseconds(),
	})
}

// handleSessionSub routes /session/{id}[/events|/cmd].
func (s *Server) handleSessionSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/session/")
	id, sub, _ := strings.Cut(rest, "/")
	sess, ok := s.sessions.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such session %q", id))
		return
	}
	// Every request that names a live session is client activity; the
	// snapshot reports how long the session sat idle before this one.
	idle := sess.IdleFor()
	sess.Touch()
	switch {
	case sub == "" && r.Method == http.MethodGet:
		s.handleSessionGet(w, sess, idle)
	case sub == "" && r.Method == http.MethodDelete:
		s.sessions.Remove(id, session.ReasonClosed)
		writeJSON(w, http.StatusOK, map[string]string{"status": "closed", "id": id})
	case sub == "events" && r.Method == http.MethodGet:
		s.handleSessionEvents(w, r, sess)
	case sub == "cmd" && r.Method == http.MethodPost:
		s.handleSessionCmd(w, r, sess)
	default:
		writeError(w, http.StatusMethodNotAllowed,
			"use GET /session/{id}, DELETE /session/{id}, GET /session/{id}/events or POST /session/{id}/cmd")
	}
}

func (s *Server) handleSessionGet(w http.ResponseWriter, sess *session.Session, idle time.Duration) {
	snap := SessionSnapshot{
		ID:          sess.ID,
		File:        sess.File,
		Done:        sess.Done(),
		Threads:     threadInfos(sess),
		Breakpoints: sess.Engine().Breakpoints(),
		Subscribers: sess.Subscribers(),
		Trace:       sess.Trace(),
		AgeMS:       time.Since(sess.Created).Milliseconds(),
		IdleMS:      idle.Milliseconds(),
	}
	if snap.Done { // the engine has its final error: Wait returns at once
		if err := sess.Engine().Wait(); err != nil {
			snap.Error = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

func threadInfos(sess *session.Session) []session.ThreadInfo {
	ts := sess.Engine().Threads()
	out := make([]session.ThreadInfo, 0, len(ts))
	for _, st := range ts {
		out = append(out, session.Info(st))
	}
	return out
}

// handleSessionEvents serves the SSE stream: a hello frame with the
// session snapshot, then every stdout/state/trace frame as it happens,
// then a terminal end frame. The connection also ends when the client
// hangs up (the subscriber detaches; the session lives on until idle
// eviction) or the server drains (terminal frame: "drain").
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	sub := sess.Subscribe()
	defer sess.Unsubscribe(sub)

	hello := struct {
		Type    string               `json:"type"`
		ID      string               `json:"id"`
		File    string               `json:"file"`
		Done    bool                 `json:"done"`
		Threads []session.ThreadInfo `json:"threads"`
	}{session.EventHello, sess.ID, sess.File, sess.Done(), threadInfos(sess)}
	writeSSEJSON(w, session.EventHello, hello)
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case it, ok := <-sub.Ch():
			if !ok {
				if end := sub.End(); end != nil {
					writeSSEJSON(w, session.EventEnd, end)
					fl.Flush()
				}
				return
			}
			s.met.latStreamLag.Observe(time.Since(it.At))
			writeSSEJSON(w, it.Ev.Type, it.Ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			// SSE comment frame: keeps proxies from timing the stream out.
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}

func writeSSEJSON(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"type":"error","error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

func (s *Server) handleSessionCmd(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	var req SessionCmdRequest
	if !s.intake(w, r, &req, nil) {
		return
	}
	eng := sess.Engine()

	resp := SessionCmdResponse{OK: true, Cmd: req.Cmd}
	switch req.Cmd {
	case "threads":
		resp.Threads = threadInfos(sess)

	case "thread":
		st, ok := eng.Thread(req.Thread)
		if !ok {
			resp.OK, resp.Result = false, "no-thread"
			break
		}
		ti := session.Info(st)
		resp.Thread = &ti

	case "step", "next":
		stepAndWait := eng.StepAndWait
		if req.Cmd == "next" {
			stepAndWait = eng.NextAndWait
		}
		st, res := stepAndWait(req.Thread, req.timeout())
		resp.Result = res.String()
		resp.OK = res == debugger.StepParked || res == debugger.StepFinished
		if res == debugger.StepParked {
			ti := session.Info(st)
			resp.Thread = &ti
		}

	case "continue", "pause":
		direct := eng.Continue
		if req.Cmd == "pause" {
			direct = eng.Pause
		}
		if resp.OK = direct(req.Thread); !resp.OK {
			resp.Result = "no-thread"
		}

	case "continue_all":
		eng.ContinueAll()

	case "pause_all":
		eng.PauseAll()

	case "wait":
		if eng.WaitPaused(req.Thread, req.timeout()) {
			resp.Result = "parked"
			if st, ok := eng.Thread(req.Thread); ok {
				ti := session.Info(st)
				resp.Thread = &ti
			}
		} else {
			resp.OK, resp.Result = false, "timeout"
		}

	case "break":
		if req.Line <= 0 {
			writeError(w, http.StatusBadRequest, "break needs a line >= 1")
			return
		}
		eng.SetBreak(req.Line)
		resp.Breakpoints = eng.Breakpoints()

	case "clear":
		eng.ClearBreak(req.Line)
		resp.Breakpoints = eng.Breakpoints()

	case "breakpoints":
		resp.Breakpoints = eng.Breakpoints()

	case "vars":
		vars, err := sess.Vars(req.Thread)
		if err != nil {
			resp.OK, resp.Result = false, err.Error()
			break
		}
		resp.Vars = vars

	case "stdin":
		if err := sess.WriteStdin(req.Data); err != nil {
			resp.OK, resp.Result = false, err.Error()
		}

	case "stdin_close":
		sess.CloseStdin()

	case "races":
		resp.Races = sess.Races()
		if resp.Races == nil {
			resp.Races = []string{}
		}

	case "deadlock":
		cycle, contention := sess.DeadlockReport()
		resp.Deadlock = cycle
		resp.Contention = contention

	case "output":
		resp.Output = sess.Output()

	case "trace":
		ts := sess.Trace()
		resp.Trace = &ts

	case "close":
		s.sessions.Remove(sess.ID, session.ReasonClosed)

	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"unknown cmd %q (want threads, thread, step, next, continue, pause, continue_all, pause_all, wait, break, clear, breakpoints, vars, stdin, stdin_close, races, deadlock, output, trace or close)",
			req.Cmd))
		return
	}
	resp.Done = sess.Done()
	writeJSON(w, http.StatusOK, resp)
}
