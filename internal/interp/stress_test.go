package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rt"
)

// Stress and failure-injection tests: deep recursion, wide fan-out, large
// data, and error paths under concurrency. Lock contention is checked for
// every engine at once by internal/rt's engine table.

func TestDeepRecursionWithinLimit(t *testing.T) {
	src := `def down(n int) int:
    if n == 0:
        return 0
    return down(n - 1) + 1

def main():
    print(down(9000))
`
	if got := run(t, src, ""); got != "9000\n" {
		t.Errorf("output = %q", got)
	}
}

func TestParallelForEmptySequence(t *testing.T) {
	src := `def main():
    parallel for i in [1 .. 0]:
        print("never")
    print("done")
`
	if got := run(t, src, ""); got != "done\n" {
		t.Errorf("output = %q", got)
	}
}

func TestParallelForSingleElement(t *testing.T) {
	src := `def main():
    parallel for i in [7 .. 7]:
        print(i)
`
	if got := run(t, src, ""); got != "7\n" {
		t.Errorf("output = %q", got)
	}
}

func TestLargeArraySum(t *testing.T) {
	src := `def main():
    n = 200000
    total = 0
    for x in range(n):
        total += x
    print(total)
`
	if got := run(t, src, ""); got != "19999900000\n" {
		t.Errorf("output = %q", got)
	}
}

func TestNestedArraysDeep(t *testing.T) {
	src := `def main():
    a = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
    total = 0
    for plane in a:
        for row in plane:
            for x in row:
                total += x
    a[1][0][1] = 60
    print(total, " ", a[1][0][1])
`
	if got := run(t, src, ""); got != "36 60\n" {
		t.Errorf("output = %q", got)
	}
}

func TestStringBuildingLoop(t *testing.T) {
	src := `def main():
    s = ""
    for i in [1 .. 200]:
        s += "ab"
    print(len(s))
`
	if got := run(t, src, ""); got != "400\n" {
		t.Errorf("output = %q", got)
	}
}

func TestIntOverflowWraps(t *testing.T) {
	// Tetra ints are 64-bit two's-complement; overflow wraps like Go/C.
	src := `def main():
    x = 9223372036854775807
    x += 1
    print(x)
`
	if got := run(t, src, ""); got != "-9223372036854775808\n" {
		t.Errorf("output = %q", got)
	}
}

func TestNegativeDivisionTruncates(t *testing.T) {
	src := "def main():\n    print(-7 / 2, \" \", 7 / -2, \" \", -7 % 2, \" \", 7 % -2)\n"
	if got := run(t, src, ""); got != "-3 -3 -1 1\n" {
		t.Errorf("output = %q", got)
	}
}

func TestBackgroundErrorSurfacesAtExit(t *testing.T) {
	src := `def main():
    a = [1]
    background:
        a[5] = 0
    print("launched")
`
	prog := compile(t, src)
	var out bytes.Buffer
	in := New(prog, rt.Config{Stdout: &out})
	err := in.Run()
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("background error lost: %v", err)
	}
	// The main thread's print happened before the join observed the error.
	if !strings.Contains(out.String(), "launched") {
		t.Errorf("output = %q", out.String())
	}
}

func TestErrorInOneParallelArmStopsOthers(t *testing.T) {
	// One arm fails immediately; the other would loop for a very long
	// time. The stop flag must cut it short instead of running to
	// completion.
	src := `def spin() int:
    t = 0
    i = 0
    while i < 2000000000:
        t += i
        i += 1
    return t

def boom() int:
    a = [1]
    return a[9]

def main():
    parallel:
        x = spin()
        y = boom()
    print(x + y)
`
	_, err := tryRun(t, src, "")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestNestedParallelForInCalledFunctions(t *testing.T) {
	src := `def fill(out [int], base int):
    parallel for k in range(4):
        out[base + k] = base + k

def main():
    out = range(16)
    parallel for b in [0, 4, 8, 12]:
        fill(out, b)
    total = 0
    for x in out:
        total += x
    print(total)
`
	if got := run(t, src, ""); got != "120\n" {
		t.Errorf("output = %q", got)
	}
}

func TestParallelForOverString(t *testing.T) {
	// One thread per character; threads mark disjoint slots indexed by a
	// reduction under a lock so the count is exact.
	src := `def main():
    count = 0
    parallel for c in "hello world":
        if c != " ":
            lock n:
                count += 1
    print(count)
`
	if got := run(t, src, ""); got != "10\n" {
		t.Errorf("output = %q", got)
	}
}

func TestPushAcrossCalls(t *testing.T) {
	src := `def collect(into [int], lo int, hi int):
    i = lo
    while i < hi:
        if i % 2 == 0:
            push(into, i)
        i += 1

def main():
    evens = [0]
    collect(evens, 1, 10)
    print(evens)
`
	if got := run(t, src, ""); got != "[0, 2, 4, 6, 8]\n" {
		t.Errorf("output = %q", got)
	}
}

func TestWhileLoopWithComplexCondition(t *testing.T) {
	src := `def main():
    i = 0
    j = 10
    while i < j and not (i == 5):
        i += 1
        j -= 1
    print(i, " ", j)
`
	if got := run(t, src, ""); got != "5 5\n" {
		t.Errorf("output = %q", got)
	}
}

func TestEmptyStringOperations(t *testing.T) {
	src := `def main():
    s = ""
    print(len(s), " [", s + "", "] ", s == "", " ", reverse(s), to_upper(s))
    for c in s:
        print("never")
    print("done")
`
	if got := run(t, src, ""); got != "0 [] true \ndone\n" {
		t.Errorf("output = %q", got)
	}
}

func TestPrintManyThreadsLineAtomicity(t *testing.T) {
	src := `def main():
    parallel for i in range(50):
        print("0123456789")
`
	got := run(t, src, "")
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 50 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, l := range lines {
		if l != "0123456789" {
			t.Fatalf("interleaved line %q", l)
		}
	}
}
