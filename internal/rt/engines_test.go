package rt_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/guard"
	"repro/internal/parity"
	"repro/internal/parser"
	"repro/internal/rt"
)

// The runtime's contract, checked end to end: every case runs the same
// Tetra program on each engine of the parity table — the interpreter and
// the VM at every optimization level, which share internal/rt — and must
// behave the same on all of them.

// output is a writer the test can read while the program still runs.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// crossedLocks takes two locks in opposite orders on two threads, each
// announcing its first lock: a deadlock no amount of waiting resolves.
const crossedLocks = `def left():
    lock a:
        print("left has a")
        sleep(30)
        lock b:
            print("left")

def right():
    lock b:
        print("right has b")
        sleep(30)
        lock a:
            print("right")

def main():
    parallel:
        left()
        right()
`

// down recurses n deep with a live `1 +` operand in every caller.
func down(n int) string {
	return fmt.Sprintf(`def down(n int) int:
    if n == 0:
        return 0
    return 1 + down(n - 1)

def main():
    print(down(%d))
`, n)
}

// contractCase is one row of the contract: a program, the limits it runs
// under and how the run must end.
type contractCase struct {
	name   string
	src    string
	limits guard.Limits
	// noDetect turns the live deadlock check off, which every engine
	// has on by default.
	noDetect bool
	reps     int // runs per engine; 0 means one
	// cancelAfter, when set, is the output after which the test cancels
	// the run from outside.
	cancelAfter string
	wantOut     string // exact output, checked when the run must succeed
	wantErr     string // substring of the error; "" means success
	// wantLines, when set, bounds the line of the error's position.
	wantLines [2]int
}

func TestRuntimeContractOnEveryEngine(t *testing.T) {
	cases := []contractCase{
		{
			// 100 threads through one lock: the exact count proves no lost
			// update and no lost wakeup in the parking protocol.
			name: "heavy_contention",
			src: `def main():
    count = 0
    parallel for i in range(100):
        lock c:
            count += 1
    print(count)
`,
			wantOut: "100\n",
		},
		{
			// A consistent a→b order must complete and must not trip the
			// live detector (no false positives).
			name: "same_order_never_deadlocks",
			src: `def main():
    total = 0
    parallel for i in range(30):
        lock a:
            lock b:
                total += 1
    print(total)
`,
			reps:    5,
			wantOut: "30\n",
		},
		{
			name: "many_locks_many_threads",
			src: `def main():
    a = 0
    b = 0
    c = 0
    parallel for i in range(60):
        lock la:
            a += 1
        lock lb:
            b += 2
        lock lc:
            c += 3
    print(a, " ", b, " ", c)
`,
			wantOut: "60 120 180\n",
		},
		{
			name: "self_wait_is_an_error",
			src: `def main():
    lock a:
        lock a:
            print("unreachable")
`,
			wantErr: `test.ttr:3:9: runtime error: deadlock: thread 0 already holds lock "a" and would wait for itself`,
		},
		{
			// A thread that fails inside a lock block never releases it;
			// the threads parked on that lock must be let go.
			name: "error_in_lock_block_frees_the_waiters",
			src: `def hit(a [int]):
    lock t:
        sleep(10)
        a[5] = 0

def main():
    a = [1]
    parallel:
        hit(a)
        hit(a)
        hit(a)
`,
			wantErr: "test.ttr:4:9: runtime error: index 5 out of range for array of length 1",
		},
		{
			// Without live detection the deadline is the backstop: it must
			// wake threads parked on locks.
			name:     "deadline_wakes_lock_parked",
			src:      crossedLocks,
			noDetect: true,
			limits:   guard.Limits{Deadline: 200 * time.Millisecond},
			wantErr:  "exceeded deadline (200ms)",
		},
		{
			// Cancel must end lock-parked threads with no governor at all
			// (the server's drain path relies on it).
			name:        "cancel_wakes_lock_parked",
			src:         crossedLocks,
			noDetect:    true,
			cancelAfter: "left has a\nright has b\n",
			wantErr:     "execution cancelled",
		},
		{
			// Each iteration is a thread of three or four steps, far under
			// guard.StepBatch: the budget must trip all the same.
			name: "short_parfor_bodies_spend_the_step_budget",
			src: `def main():
    a = [1 .. 20000]
    total = 0
    parallel for i in a:
        lock t:
            total += i
    print(total)
`,
			limits:    guard.Limits{MaxSteps: 1000},
			wantErr:   "exceeded step budget (1000)",
			wantLines: [2]int{4, 6},
		},
		{
			// A trip that comes from outside the loop's threads (here the
			// deadline timer) during a loop of short bodies is reported from
			// inside the loop, by a worker, not by main at the statement
			// after it. The loops never end, so the deadline always finds one
			// running.
			name: "trip_in_short_parfor_is_positioned_in_the_loop",
			src: `def main():
    a = [1 .. 100000]
    c = 0
    while true:
        parallel for i in a:
            c = i
`,
			limits:    guard.Limits{Deadline: 300 * time.Millisecond},
			wantErr:   "exceeded deadline (300ms)",
			wantLines: [2]int{5, 6},
		},
		{
			// Inside the bound every engine gets to the bottom, the VM across
			// several growths of its register stack.
			name:    "recursion_under_the_bound",
			src:     down(9000),
			wantOut: "9000\n",
		},
		{
			// main and down(10000) .. down(2) are the activations the bound
			// allows; the call of down(1) is refused, where it is written.
			name:    "recursion_at_the_bound",
			src:     down(rt.MaxCallDepth),
			wantErr: "test.ttr:4:16: runtime error: call stack exhausted (recursion deeper than 10000)",
		},
		// The allocation budget counts what library calls build, not only
		// literals and operators: each program below builds far more than
		// its budget through one builtin, and ends at that call.
		{
			name: "alloc_budget_counts_push",
			src: `def main():
    a = [0]
    i = 0
    while i < 100000:
        push(a, i)
        i += 1
    print(len(a))
`,
			limits:  guard.Limits{MaxAllocCells: 1000},
			wantErr: "test.ttr:5:9: runtime error: exceeded allocation budget (1000 cells)",
		},
		{
			// The outer call is charged before it builds its 2 MB.
			name: "alloc_budget_counts_repeat",
			src: `def main():
    t = repeat(repeat("ab", 1000), 1000)
    print(len(t))
`,
			limits:  guard.Limits{MaxAllocCells: 100000},
			wantErr: "test.ttr:2:9: runtime error: exceeded allocation budget (100000 cells)",
		},
		{
			name: "alloc_budget_counts_split_and_join",
			src: `def main():
    s = repeat("a ", 5000)
    i = 0
    while i < 100:
        s = join(split(s, " "), " ")
        i += 1
    print(len(s))
`,
			limits:  guard.Limits{MaxAllocCells: 50000},
			wantErr: "test.ttr:5:13: runtime error: exceeded allocation budget (50000 cells)",
		},
		{
			name: "alloc_budget_counts_to_string",
			src: `def main():
    i = 0
    while i < 100000:
        s = to_string(i)
        i += 1
    print(s)
`,
			limits:  guard.Limits{MaxAllocCells: 1000},
			wantErr: "test.ttr:4:13: runtime error: exceeded allocation budget (1000 cells)",
		},
		{
			name: "alloc_budget_counts_sorts_copy",
			src: `def main():
    a = range(10000)
    b = sort(a)
    print(len(b))
`,
			limits:  guard.Limits{MaxAllocCells: 15000},
			wantErr: "test.ttr:3:9: runtime error: exceeded allocation budget (15000 cells)",
		},
	}
	// A program inside its budget is untouched: the library-heavy goldens
	// under the sandbox defaults.
	for _, g := range parity.Corpus(t) {
		switch g.Name {
		case "pascal", "string_tools", "unicode_strings":
			cases = append(cases, contractCase{
				name:    "sandbox_budget_leaves_" + g.Name + "_alone",
				src:     g.Src,
				limits:  guard.Limits{}.WithSandboxDefaults(),
				wantOut: g.Want.Stdout,
			})
		}
	}
	for _, c := range cases {
		prog, err := parser.Parse("test.ttr", c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		if err := check.Check(prog); err != nil {
			t.Fatalf("%s: check: %v", c.name, err)
		}
		var msgs []string
		for i := 0; i < len(parity.Variants)*max(c.reps, 1); i++ {
			v := parity.Variants[i%len(parity.Variants)]
			t.Run(c.name+"/"+v.Name, func(t *testing.T) {
				var out output
				m, err := v.Build(prog, rt.Config{Stdout: &out, Limits: c.limits, NoDeadlockDetection: c.noDetect})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { done <- m.Run() }()
				if c.cancelAfter != "" {
					for deadline := time.Now().Add(20 * time.Second); !sameLines(out.String(), c.cancelAfter); {
						if time.Now().After(deadline) {
							t.Fatalf("program never printed %q, got %q", c.cancelAfter, out.String())
						}
						time.Sleep(time.Millisecond)
					}
					m.Cancel()
				}
				select {
				case err = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("run did not return")
				}
				if c.wantErr == "" {
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					if out.String() != c.wantOut {
						t.Errorf("output = %q, want %q", out.String(), c.wantOut)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				msgs = append(msgs, err.Error())
				if c.wantLines != [2]int{} {
					var line, col int
					if _, serr := fmt.Sscanf(err.Error(), "test.ttr:%d:%d:", &line, &col); serr != nil ||
						line < c.wantLines[0] || line > c.wantLines[1] {
						t.Errorf("error %q is not positioned in lines %d-%d", err, c.wantLines[0], c.wantLines[1])
					}
				}
			})
		}
		// Where the whole message is pinned it is the same on every engine.
		if strings.HasPrefix(c.wantErr, "test.ttr:") {
			for _, m := range msgs {
				if m != c.wantErr {
					t.Errorf("%s: message %q, want exactly %q", c.name, m, c.wantErr)
				}
			}
		}
	}
}

// sameLines reports whether got holds exactly the lines of want, in any
// order (threads print concurrently).
func sameLines(got, want string) bool {
	if len(got) != len(want) {
		return false
	}
	for _, line := range strings.SplitAfter(want, "\n") {
		if !strings.Contains(got, line) {
			return false
		}
	}
	return true
}
