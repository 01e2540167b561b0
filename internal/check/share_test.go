package check

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
)

// TestSharedSlots pins the sharing rule: a variable is a cell only if a
// thread body mentions it and it is written while such a body may run.
func TestSharedSlots(t *testing.T) {
	cases := []struct {
		name   string
		body   string // main's body, indented by four spaces
		shared []string
	}{
		{"flat function", `
    x = 1
    x += 2
    print(x)`, nil},
		{"read-only capture", `
    n = 3
    xs = [1, 2]
    parallel for v in xs:
        print(v * n)
    parallel:
        print(n)
        print(xs)`, nil},
		{"parallel-arm write", `
    x = 0
    parallel:
        x = 1
        print(2)
    print(x)`, []string{"x"}},
		{"arm-local variable", `
    parallel:
        y = 1
        print(2)`, []string{"y"}},
		{"parent write after the join", `
    x = 1
    parallel:
        print(x)
        print(x + 1)
    x = 2
    parallel for v in [1, 2]:
        print(x + v)
    x = 3
    print(x)`, nil},
		{"background read then parent write", `
    x = 1
    background:
        print(x)
    x = 2`, []string{"x"}},
		{"background read, parent write before it", `
    x = 1
    x = 2
    background:
        print(x)
    print(x)`, nil},
		{"background in a loop, write before it in the loop", `
    i = 0
    while i < 3:
        i += 1
        background:
            print(i)`, []string{"i"}},
		{"background nested in an arm outlives the join", `
    x = 1
    parallel:
        background:
            print(x)
        print(0)
    x = 2`, []string{"x"}},
		{"induction variable", `
    parallel for i in [1, 2, 3]:
        print(i)
    print(i)`, nil},
		{"induction variable assigned in the body", `
    parallel for i in [1, 2, 3]:
        i = i * 10
        print(i)`, []string{"i"}},
		{"sequential loop inside a body", `
    parallel:
        for j in [1, 2]:
            print(j)
        print(0)`, []string{"j"}},
		{"nested constructs, read only", `
    k = 2
    parallel for v in [1, 2]:
        parallel:
            print(v * k)
            background:
                print(v + k)`, nil},
		{"nested constructs, inner write", `
    k = 2
    parallel for v in [1, 2]:
        parallel:
            k = v
            print(k)`, []string{"k"}},
		{"write under a lock", `
    total = 0
    best = [0]
    parallel for v in [1, 2, 3]:
        lock m:
            total += v
            if v > best[0]:
                best[0] = v
    print(total, best[0])`, []string{"total"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := checked(t, "def main():"+c.body+"\n")
			f := prog.Funcs[0]
			var got []string
			for slot, sh := range f.Shared {
				if sh {
					got = append(got, f.SlotNames[slot])
				}
			}
			if !slices.Equal(got, c.shared) {
				t.Errorf("shared = %v, want %v", got, c.shared)
			}
			if f.Shared != nil && len(f.Shared) != f.NumSlots {
				t.Errorf("len(Shared) = %d for %d slots", len(f.Shared), f.NumSlots)
			}
		})
	}
}

// TestSharedSlotsOfThePaper: Figure III's largest is written by the
// parallel-for body, so it stays a cell, and so does racy_counter's count;
// the benchmark's locked_max only reads its variables from the body.
func TestSharedSlotsOfThePaper(t *testing.T) {
	for _, c := range []struct {
		src, fn string
		shared  []string
	}{
		{`def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    print(max([1, 2]))
`, "max", []string{"largest"}},
		{"def main():\n    count = 0\n    parallel for i in [1 .. 8]:\n        count += 1\n    print(count)\n", "main", []string{"count"}},
		{`def main():
    n = 50
    a = range(n)
    x = 7
    i = 0
    while i < n:
        x = (x * 31 + 11) % 1000
        a[i] = x
        i += 1
    best = [0]
    parallel for v in a:
        lock maxlock:
            if v > best[0]:
                best[0] = v
    print(best[0])
`, "main", nil},
	} {
		prog := checked(t, c.src)
		f := prog.Lookup(c.fn)
		var got []string
		for slot, sh := range f.Shared {
			if sh {
				got = append(got, f.SlotNames[slot])
			}
		}
		if !slices.Equal(got, c.shared) {
			t.Errorf("%s: shared = %v, want %v\n%s", c.fn, got, c.shared, strings.SplitN(c.src, "\n", 2)[0])
		}
	}
}

// TestSpawns pins ast.ParallelForStmt.Spawns: a body that holds a parallel
// construct, at any depth, starts threads that may outlive an iteration.
func TestSpawns(t *testing.T) {
	prog := checked(t, `def main():
    parallel for i in [1, 2]:
        print(i)
    parallel for j in [1, 2]:
        if j > 1:
            background:
                print(j)
    parallel for k in [1, 2]:
        parallel for m in [3, 4]:
            print(k + m)
`)
	var got []bool
	eachStmt(prog.Funcs[0].Body, func(st ast.Stmt) {
		if pf, ok := st.(*ast.ParallelForStmt); ok {
			got = append(got, pf.Spawns)
		}
	})
	if want := []bool{false, true, true, false}; !slices.Equal(got, want) {
		t.Errorf("Spawns = %v, want %v", got, want)
	}
}
