package vm

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/stdlib"
)

// Inline-cache invalidation: a call site that cached a callee must
// re-resolve after Rebind, and concurrent callers — including re-entrant
// calls under `parallel` — must never be served a stale entry once the
// rebind has returned.

// funcNamed compiles src and returns its function named name, for use as
// a Rebind replacement. Replacements in these tests are leaves or
// same-layout functions, so their call-site and function indices are
// valid against the VM they are rebound into.
func funcNamed(t *testing.T, src, name string) *bytecode.Func {
	t.Helper()
	_, bc := compileBoth(t, src)
	for _, f := range bc.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %q in source", name)
	return nil
}

func TestRebindInvalidatesCallIC(t *testing.T) {
	src := "def f() int:\n    return 1\n\ndef g() int:\n    return f() + f()\n\ndef main():\n    print(g())\n"
	_, bc := compileBoth(t, src)
	var out bytes.Buffer
	m := New(bc, Options{Env: stdlib.NewEnv(strings.NewReader(""), &out)})

	v, err := m.Call("g", nil...)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 2 {
		t.Fatalf("before rebind: g() = %v, want 2", v)
	}
	// The two call sites inside g are now cached on the original f.
	repl := funcNamed(t, "def f() int:\n    return 5\n\ndef main():\n    pass\n", "f")
	if err := m.Rebind("f", repl); err != nil {
		t.Fatal(err)
	}
	v, err = m.Call("g", nil...)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 10 {
		t.Fatalf("after rebind: g() = %v, want 10 (stale inline cache?)", v)
	}
}

func TestRebindRejectsSignatureMismatch(t *testing.T) {
	src := "def f(x int) int:\n    return x\n\ndef main():\n    print(f(1))\n"
	_, bc := compileBoth(t, src)
	m := New(bc, Options{Env: stdlib.NewEnv(strings.NewReader(""), &bytes.Buffer{})})

	arity := funcNamed(t, "def f() int:\n    return 1\n\ndef main():\n    pass\n", "f")
	if err := m.Rebind("f", arity); err == nil {
		t.Error("rebind accepted an arity mismatch")
	}
	result := funcNamed(t, "def f(x int) real:\n    return 1.0\n\ndef main():\n    pass\n", "f")
	if err := m.Rebind("f", result); err == nil {
		t.Error("rebind accepted a result-type mismatch")
	}
	// Same arity and result, another parameter type: the call site in main
	// passes an int unwidened, and f's body would read it as a real.
	param := funcNamed(t, "def f(x real) int:\n    return 1\n\ndef main():\n    pass\n", "f")
	if err := m.Rebind("f", param); err == nil || !strings.Contains(err.Error(), "parameter 1 is real, want int") {
		t.Errorf("rebind with another parameter type: %v", err)
	}
	if err := m.Rebind("nosuch", arity); err == nil {
		t.Error("rebind accepted an unknown function name")
	}
}

// TestParallelCallsNeverServeStaleIC is the deterministic half of the
// invalidation contract: every call dispatched after Rebind returns must
// see the new body, even when the sites were warmed under `parallel` and
// the calls re-enter through nested user functions.
func TestParallelCallsNeverServeStaleIC(t *testing.T) {
	src := `def f() int:
    return 1

def mid() int:
    return f()

def work() int:
    a = 0
    b = 0
    parallel:
        a = mid() + f()
        b = f() + mid()
    return a + b

def main():
    print(work())
`
	_, bc := compileBoth(t, src)
	optimize(t, bc, bytecode.O2)
	m := New(bc, Options{Env: stdlib.NewEnv(strings.NewReader(""), &bytes.Buffer{})})

	for round, want := range map[int]int64{1: 4, 7: 28} {
		repl := funcNamed(t, fmt.Sprintf("def f() int:\n    return %d\n\ndef main():\n    pass\n", round), "f")
		if err := m.Rebind("f", repl); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			v, err := m.Call("work", nil...)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int() != want {
				t.Fatalf("round %d call %d: work() = %v, want %d (stale inline cache)", round, i, v, want)
			}
		}
	}
}

// TestRebindSoakUnderParallel hammers call sites from many threads while
// rebinding between two compatible bodies. Run under -race this checks the
// gen/entry ordering protocol; deterministically it checks every observed
// result is one of the two live bodies' values (never garbage, never a
// half-installed entry).
func TestRebindSoakUnderParallel(t *testing.T) {
	src := `def f() int:
    return 1

def work() int:
    s = 0
    i = 0
    while i < 50:
        s = s + f()
        i += 1
    return s

def main():
    print(work())
`
	_, bc := compileBoth(t, src)
	optimize(t, bc, bytecode.O2)
	m := New(bc, Options{Env: stdlib.NewEnv(strings.NewReader(""), &bytes.Buffer{})})

	fOne := funcNamed(t, "def f() int:\n    return 1\n\ndef main():\n    pass\n", "f")
	fTwo := funcNamed(t, "def f() int:\n    return 2\n\ndef main():\n    pass\n", "f")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v, err := m.Call("work", nil...)
				if err != nil {
					t.Error(err)
					return
				}
				// Each iteration adds either 1 or 2; any interleaving of
				// the two bodies sums within [50, 100].
				if s := v.Int(); s < 50 || s > 100 {
					t.Errorf("work() = %d, outside [50,100]: stale or corrupt cache entry", s)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			repl := fOne
			if i%2 == 0 {
				repl = fTwo
			}
			if err := m.Rebind("f", repl); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	// Quiescent again: the last completed rebind wins and must be what
	// new dispatches observe.
	if err := m.Rebind("f", fTwo); err != nil {
		t.Fatal(err)
	}
	v, err := m.Call("work", nil...)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 100 {
		t.Fatalf("after final rebind: work() = %v, want 100", v)
	}
}
