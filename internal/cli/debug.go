package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/debugger"
)

// DebugMain runs the tetradbg command (cmd/tetradbg is a thin wrapper):
// an interactive or scripted parallel-debugger session, the terminal
// stand-in for the paper's IDE (§III).
func DebugMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tetradbg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	script := fs.String("script", "", "read debugger commands from this file instead of stdin")
	interactivePrompt := fs.Bool("prompt", false, "print the (tdb) prompt even when input is not a terminal")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tetradbg [-script file] program.ttr")
		return 2
	}
	path := fs.Arg(0)
	prog, err := core.CompileFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	cmdIn := stdin
	interactive := *script == ""
	if !interactive {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		cmdIn = f
	}

	cfg := debugger.Config{StopOnEntry: true}
	cfg.Core = core.Config{Stdout: stdout}
	if interactive {
		// In interactive mode the program shares the session's stdin only
		// if a script carries the commands; otherwise programs should not
		// read input (commands own the stream).
		cfg.Core.Stdin = nil
	}
	eng := debugger.Run(prog, cfg)
	eng.WaitAnyPaused(1, 2*time.Second)
	fmt.Fprintf(stdout, "tetradbg: stopped on entry of %s\n", path)

	sc := bufio.NewScanner(cmdIn)
	for {
		if interactive || *interactivePrompt {
			fmt.Fprint(stdout, "(tdb) ")
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !interactive && !*interactivePrompt {
			fmt.Fprintf(stdout, "(tdb) %s\n", line)
		}
		if quit := debugCommand(eng, line, string(src), stdout); quit {
			break
		}
		if eng.Done() {
			fmt.Fprintln(stdout, "program finished")
			break
		}
	}
	eng.ContinueAll()
	if err := eng.Wait(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// debugCommand executes one debugger command line; it reports whether the
// session should end.
func debugCommand(eng *debugger.Engine, line, src string, stdout io.Writer) bool {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "threads", "t":
		fmt.Fprint(stdout, debugger.Render(eng.Threads()))

	case "step", "s", "next", "n":
		id, ok := argInt(args)
		if !ok {
			fmt.Fprintf(stdout, "usage: %s <thread>\n", cmd)
			return false
		}
		var st debugger.ThreadState
		var res debugger.StepResult
		if cmd == "next" || cmd == "n" {
			st, res = eng.NextAndWait(id, 2*time.Second)
		} else {
			st, res = eng.StepAndWait(id, 2*time.Second)
		}
		switch res {
		case debugger.StepNoThread:
			fmt.Fprintf(stdout, "no such live thread t%d\n", id)
		case debugger.StepFinished:
			fmt.Fprintf(stdout, "t%d finished\n", id)
		case debugger.StepParked:
			fmt.Fprintf(stdout, "t%d at %d:%d  %s\n", id, st.Pos.Line, st.Pos.Col, st.Stmt)
		case debugger.StepTimeout:
			// A distinct outcome, not a park with stale state: the stepped
			// statement is still in flight.
			fmt.Fprintf(stdout, "t%d did not stop in time (blocked on a lock or input?)\n", id)
		}

	case "continue", "c":
		if id, ok := argInt(args); !ok {
			fmt.Fprintln(stdout, "usage: continue <thread>")
		} else if !eng.Continue(id) {
			fmt.Fprintf(stdout, "no such live thread t%d\n", id)
		}

	case "pause", "p":
		if id, ok := argInt(args); !ok {
			fmt.Fprintln(stdout, "usage: pause <thread>")
		} else {
			eng.Pause(id)
		}

	case "vars", "v":
		id, ok := argInt(args)
		if !ok {
			fmt.Fprintln(stdout, "usage: vars <thread>")
			return false
		}
		names, vals, err := eng.Vars(id)
		if errors.Is(err, debugger.ErrRunning) {
			fmt.Fprintf(stdout, "thread t%d is running; pause it to see its variables\n", id)
			return false
		}
		if err != nil {
			fmt.Fprintf(stdout, "thread t%d has no inspectable frame\n", id)
			return false
		}
		for i, n := range names {
			fmt.Fprintf(stdout, "  %s = %s\n", n, vals[i])
		}

	case "break", "b":
		if l, ok := argInt(args); !ok {
			fmt.Fprintln(stdout, "usage: break <line>")
		} else {
			eng.SetBreak(l)
			fmt.Fprintf(stdout, "breakpoint at line %d\n", l)
		}

	case "clear":
		if l, ok := argInt(args); ok {
			eng.ClearBreak(l)
		}

	case "breaks":
		fmt.Fprintln(stdout, "breakpoints:", eng.Breakpoints())

	case "run", "r":
		eng.ContinueAll()

	case "stop":
		eng.PauseAll()
		eng.WaitAnyPaused(1, time.Second)

	case "wait", "w":
		if id, ok := argInt(args); ok {
			eng.WaitPaused(id, 5*time.Second)
		} else {
			eng.WaitAnyPaused(1, 5*time.Second)
		}
		if eng.Done() {
			fmt.Fprintln(stdout, "program finished")
		}

	case "list", "l":
		printSource(stdout, src, eng.Breakpoints())

	case "quit", "q", "exit":
		return true

	default:
		fmt.Fprintf(stdout, "unknown command %q (try: threads step next continue pause vars break run wait list quit)\n", cmd)
	}
	return false
}

func argInt(args []string) (int, bool) {
	if len(args) != 1 {
		return 0, false
	}
	v, err := strconv.Atoi(strings.TrimPrefix(args[0], "t"))
	if err != nil {
		return 0, false
	}
	return v, true
}

func printSource(w io.Writer, src string, breaks []int) {
	isBreak := map[int]bool{}
	for _, l := range breaks {
		isBreak[l] = true
	}
	for i, line := range strings.Split(src, "\n") {
		mark := "   "
		if isBreak[i+1] {
			mark = " ● "
		}
		fmt.Fprintf(w, "%4d%s%s\n", i+1, mark, line)
	}
}
