package gort

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/wire"
)

// initGuard makes the active run one of a two-lock program under the
// environment's budgets, as a hand-run binary's Main does.
func initGuard() {
	lim, _ := guard.LimitsFromEnv(os.Getenv)
	active = rt.New(rt.Config{Limits: lim}, []string{"a", "b"})
}

// runOnce runs body as the main thread of a two-lock program under lim and
// the current schedConfig, as Main does, and returns the run's error.
func runOnce(lim guard.Limits, body func(*Thread)) error {
	defer initGuard()
	return run(rt.New(rt.Config{Limits: lim, Sched: schedConfig}, []string{"a", "b"}), body)
}

// catchErr runs f and returns the Tetra runtime error it raised, or nil.
func catchErr(f func()) (err *Err) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(Err); ok {
				err = &e
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func TestArrayBasics(t *testing.T) {
	a := NewArray[int64](1, 2, 3)
	if a.Len() != 3 || a.Get(1) != 2 {
		t.Errorf("array = %v", a)
	}
	a.Set(1, 20)
	if a.Get(1) != 20 {
		t.Error("Set failed")
	}
	a.Push(4)
	if a.Len() != 4 || a.Get(3) != 4 {
		t.Error("Push failed")
	}
	z := MakeArray[float64](2)
	if z.Len() != 2 || z.Get(0) != 0 {
		t.Error("MakeArray not zeroed")
	}
}

func TestArrayBounds(t *testing.T) {
	a := NewArray[int64](1)
	if err := catchErr(func() { a.Get(5) }); err == nil || !strings.Contains(err.Msg, "out of range") {
		t.Errorf("Get OOB err = %v", err)
	}
	// -1 counts from the end, Python-style; below -len still raises.
	if got := a.Get(-1); got != 1 {
		t.Errorf("Get(-1) = %d, want 1", got)
	}
	a.Set(-1, 7)
	if got := a.Get(0); got != 7 {
		t.Errorf("after Set(-1, 7): Get(0) = %d, want 7", got)
	}
	if err := catchErr(func() { a.Set(-2, 0) }); err == nil || !strings.Contains(err.Msg, "index -2 out of range") {
		t.Errorf("Set below -len err = %v", err)
	}
}

func TestArrayString(t *testing.T) {
	if s := NewArray[int64](1, 2).String(); s != "[1, 2]" {
		t.Errorf("int array = %q", s)
	}
	if s := NewArray[string]("a", "b").String(); s != `["a", "b"]` {
		t.Errorf("string array = %q", s)
	}
	if s := NewArray[float64](1, 2.5).String(); s != "[1.0, 2.5]" {
		t.Errorf("real array = %q", s)
	}
	nested := NewArray[*Array[int64]](NewArray[int64](1), NewArray[int64](2, 3))
	if s := nested.String(); s != "[[1], [2, 3]]" {
		t.Errorf("nested array = %q", s)
	}
}

func TestRangeFunctions(t *testing.T) {
	r := Range(1, 5)
	if r.Len() != 5 || r.Get(0) != 1 || r.Get(4) != 5 {
		t.Errorf("Range = %v", r)
	}
	if Range(5, 1).Len() != 0 {
		t.Error("reversed Range not empty")
	}
	if n := RangeN(3); n.Len() != 3 || n.Get(0) != 0 {
		t.Errorf("RangeN(3) = %v", n)
	}
	if n := RangeN(2, 5); n.Len() != 3 || n.Get(0) != 2 {
		t.Errorf("RangeN(2,5) = %v", n)
	}
	if RangeN(5, 2).Len() != 0 {
		t.Error("reversed RangeN not empty")
	}
}

func TestStrHelpers(t *testing.T) {
	if StrIndex("abc", 1) != "b" {
		t.Error("StrIndex")
	}
	if err := catchErr(func() { StrIndex("abc", 9) }); err == nil {
		t.Error("StrIndex OOB not raised")
	}
	if Substring("hello", 1, 3) != "el" {
		t.Error("Substring")
	}
	if err := catchErr(func() { Substring("x", 0, 5) }); err == nil {
		t.Error("Substring OOB not raised")
	}
	if Repeat("ab", 2) != "abab" {
		t.Error("Repeat")
	}
	if err := catchErr(func() { Repeat("ab", -1) }); err == nil || err.Msg != "repeat: count -1 out of range" {
		t.Errorf("Repeat(-1) err = %v", err)
	}
	j := Join(NewArray[string]("a", "b"), "-")
	if j != "a-b" {
		t.Error("Join")
	}
	sp := Split("a,b", ",")
	if sp.Len() != 2 || sp.Get(1) != "b" {
		t.Error("Split")
	}
	if Split("  a b ", "").Len() != 2 {
		t.Error("Split whitespace")
	}
}

func TestArith(t *testing.T) {
	if DivInt(7, 2) != 3 || ModInt(7, 2) != 1 {
		t.Error("int arithmetic")
	}
	if err := catchErr(func() { DivInt(1, 0) }); err == nil || !strings.Contains(err.Msg, "division by zero") {
		t.Errorf("div zero = %v", err)
	}
	if err := catchErr(func() { ModInt(1, 0) }); err == nil {
		t.Error("mod zero not raised")
	}
	if ModReal(7.5, 2) != 1.5 {
		t.Error("real mod")
	}
}

func TestEqDeep(t *testing.T) {
	if !Eq(NewArray[int64](1, 2), NewArray[int64](1, 2)) {
		t.Error("equal arrays not Eq")
	}
	if Eq(NewArray[int64](1), NewArray[int64](2)) {
		t.Error("unequal arrays Eq")
	}
	if !Eq(int64(3), int64(3)) || Eq("a", "b") {
		t.Error("scalar Eq")
	}
}

func TestConversionsAndMath(t *testing.T) {
	if ToIntFromString(" 42 ") != 42 {
		t.Error("ToIntFromString")
	}
	if err := catchErr(func() { ToIntFromString("zz") }); err == nil {
		t.Error("bad int parse not raised")
	}
	if ToRealFromString("2.5") != 2.5 {
		t.Error("ToRealFromString")
	}
	if Floor(2.7) != 2 || Ceil(2.1) != 3 || ToIntFromReal(-2.7) != -2 {
		t.Error("floor/ceil/to_int")
	}
	for name, f := range map[string]func(float64) int64{"floor": Floor, "ceil": Ceil, "to_int": ToIntFromReal} {
		if err := catchErr(func() { f(1e30) }); err == nil || err.Msg != name+": real 1e+30 out of int range" {
			t.Errorf("%s(1e30) err = %v", name, err)
		}
	}
	if ToStringOf(int64(5)) != "5" || ToStringOf(2.0) != "2.0" || ToStringOf(true) != "true" {
		t.Error("ToStringOf")
	}
	s := SortArray(NewArray[int64](3, 1, 2))
	if s.Get(0) != 1 || s.Get(2) != 3 {
		t.Error("SortArray")
	}
}

// TestLocksAndBackground: the adapters run threads on rt. A lock serializes
// twenty parallel arms, and the run joins a background thread before it
// returns.
func TestLocksAndBackground(t *testing.T) {
	count := 0
	var done atomic.Bool
	err := runOnce(guard.Limits{}, func(th *Thread) {
		arms := make([]func(*Thread), 20)
		for i := range arms {
			arms[i] = func(th *Thread) {
				Lock(th, 0, 1, 1)
				count++
				Unlock(th, 0)
			}
		}
		Parallel(th, 1, 1, arms...)
		Background(th, 2, 1, func(*Thread) {
			time.Sleep(20 * time.Millisecond)
			done.Store(true)
		})
	})
	if err != nil || count != 20 {
		t.Errorf("count = %d, err = %v", count, err)
	}
	if !done.Load() {
		t.Error("background thread not joined")
	}
}

func TestParFor(t *testing.T) {
	defer func(old sched.Config) { schedConfig = old }(schedConfig)
	for _, cfg := range []sched.Config{{}, {Workers: 1}, {Workers: 2, Grain: 3}, {Workers: 16, Grain: 1}} {
		for _, n := range []int{0, 1, 2, 4, 5, 33} {
			schedConfig = cfg
			elems := make([]int, n)
			for i := range elems {
				elems[i] = i
			}
			counts := make([]atomic.Int64, n)
			if err := runOnce(guard.Limits{}, func(th *Thread) {
				ParFor(th, 1, 1, elems, func(_ *Thread, i int) { counts[i].Add(1) })
			}); err != nil {
				t.Fatalf("cfg=%+v n=%d: %v", cfg, n, err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("cfg=%+v n=%d: element %d ran %d times", cfg, n, i, got)
				}
			}
		}
	}
}

// TestParForPanicCapture: an iteration's runtime error is the run's error.
func TestParForPanicCapture(t *testing.T) {
	defer func(old sched.Config) { schedConfig = old }(schedConfig)
	schedConfig = sched.Config{Workers: 2, Grain: 1}
	err := runOnce(guard.Limits{}, func(th *Thread) {
		ParFor(th, 1, 1, []int64{1, 2, 3, 4}, func(_ *Thread, i int64) {
			if i == 3 {
				Raise("boom at %d", i)
			}
		})
	})
	if err == nil || err.Error() != "runtime error: boom at 3" {
		t.Errorf("run err = %v", err)
	}
}

// TestParForThreadBudget: the budget is charged per worker, not per
// iteration, and a refusal is raised, positioned at the loop, only after
// the workers already started have joined.
func TestParForThreadBudget(t *testing.T) {
	defer func(old sched.Config) { schedConfig = old }(schedConfig)
	defer func(old string) { file = old }(file)
	file = "f.ttr"
	lim := guard.Limits{MaxThreads: 3}

	// 2 workers + main fit a 3-thread budget regardless of element count.
	schedConfig = sched.Config{Workers: 2}
	var ran atomic.Int64
	if err := runOnce(lim, func(th *Thread) {
		ParFor(th, 4, 5, make([]int64, 1000), func(*Thread, int64) { ran.Add(1) })
	}); err != nil {
		t.Fatalf("2 workers under 3-thread budget raised: %v", err)
	}
	if ran.Load() != 1000 {
		t.Errorf("ran %d of 1000 iterations", ran.Load())
	}

	// An 8-worker pool cannot.
	schedConfig = sched.Config{Workers: 8}
	var inFlight atomic.Int64
	err := runOnce(lim, func(th *Thread) {
		ParFor(th, 4, 5, make([]int64, 1000), func(*Thread, int64) {
			inFlight.Add(1)
			time.Sleep(time.Microsecond)
			inFlight.Add(-1)
		})
	})
	if err == nil || !strings.HasPrefix(err.Error(), "f.ttr:4:5: runtime error: exceeded thread budget (3 live threads)") {
		t.Errorf("8 workers under 3-thread budget: err = %v", err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Errorf("the refusal was raised with %d iterations still running", n)
	}
}

// BenchmarkTick is the per-back-edge cost of the governor in a compiled
// program with a step budget in force (serve_heavy's native tier runs it
// 200k times a request).
func BenchmarkTick(b *testing.B) {
	active = rt.New(rt.Config{Limits: guard.Limits{MaxSteps: 1e12}}, nil)
	defer initGuard()
	t := new(Thread)
	for i := 0; i < b.N; i++ {
		Tick(t, 1, 1)
	}
}

func TestFormatReal(t *testing.T) {
	cases := map[float64]string{2.5: "2.5", 3: "3.0"}
	for f, want := range cases {
		if got := FormatReal(f); got != want {
			t.Errorf("FormatReal(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestAllocBudget(t *testing.T) {
	t.Setenv("TETRA_MAX_ALLOC", "10")
	initGuard()
	defer func() {
		os.Unsetenv("TETRA_MAX_ALLOC")
		initGuard()
	}()

	if err := catchErr(func() { MakeArray[int64](8) }); err != nil {
		t.Fatalf("within budget raised: %v", err)
	}
	err := catchErr(func() { MakeArray[int64](8) }) // cumulative: 16 > 10
	if err == nil || !strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("over-budget MakeArray err = %v", err)
	}

	// The budget is cumulative across allocation kinds: literals, push,
	// range materialization, string concat and what a library call built
	// all charge it.
	initGuard()
	if err := catchErr(func() { NewArray[int64](1, 2, 3) }); err != nil {
		t.Fatalf("literal raised: %v", err)
	}
	a := NewArray[int64](1, 2, 3) // 6 cells now
	if err := catchErr(func() {
		for i := 0; i < 8; i++ {
			a.Push(int64(i))
		}
	}); err == nil || !strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Push never tripped: %v", err)
	}

	initGuard()
	if err := catchErr(func() { Range(0, 100) }); err == nil || !strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Range(0,100) err = %v", err)
	}

	initGuard()
	if got := Concat("ab", "cd"); got != "abcd" {
		t.Fatalf("Concat = %q", got)
	}
	if err := catchErr(func() { Concat(strings.Repeat("x", 6), strings.Repeat("y", 6)) }); err == nil ||
		!strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Concat never tripped: %v", err)
	}

	initGuard()
	if got := Built("abcd"); got != "abcd" {
		t.Fatalf("Built = %q", got)
	}
	if got := Built(Split("a b c", " ")); got.Len() != 3 { // 7 cells now
		t.Fatalf("Built(Split) = %v", got)
	}
	if err := catchErr(func() { Built("wxyz") }); err == nil || !strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Built never tripped: %v", err)
	}

	// repeat charges before it builds.
	initGuard()
	if err := catchErr(func() { Repeat("x", 1<<24) }); err == nil || !strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Repeat never tripped: %v", err)
	}
}

func TestAllocBudgetUnsetIsUnlimited(t *testing.T) {
	t.Setenv("TETRA_MAX_ALLOC", "")
	initGuard()
	if err := catchErr(func() { MakeArray[int64](1 << 16) }); err != nil {
		t.Fatalf("unlimited alloc raised: %v", err)
	}
}

func TestEnvInt64WarnsOnMalformed(t *testing.T) {
	t.Setenv("TETRA_MAX_ALLOC", "banana")
	initGuard() // must not panic; malformed values are ignored with a warning
	defer func() {
		os.Unsetenv("TETRA_MAX_ALLOC")
		initGuard()
	}()
	if err := catchErr(func() { MakeArray[int64](64) }); err != nil {
		t.Fatalf("malformed budget should disable, not trip: %v", err)
	}
}

// TestServeResetsPerRunState: one resident loop answers run after run, and
// each starts clean: its own runtime, with thread ids from 0, a lock table
// with every lock free, its own input and output, and its own budget (two
// runs of 5 output bytes fit an 8-byte budget only if it is not
// cumulative). A failed run is answered and ends the loop.
func TestServeResetsPerRunState(t *testing.T) {
	defer initGuard()
	var runs []*rt.Runtime
	prog := func(th *Thread) {
		runs = append(runs, active)
		if th.ID != 0 {
			Raise("main thread id %d", th.ID)
		}
		n := ReadInt()
		Lock(th, 0, 1, 1)
		Print(n * 2)
		// The lock stays held when the run ends: the next run must not
		// inherit it.
		Background(th, 1, 1, func(*Thread) { Print("bg") })
	}
	var in, out bytes.Buffer
	enc := json.NewEncoder(&in)
	for i, stdin := range []string{"2\n", "3\n", "x\n", "5\n"} {
		if err := enc.Encode(wire.Request{Seq: uint64(i + 1), Stdin: stdin, Limits: guard.Limits{MaxOutputBytes: 8}}); err != nil {
			t.Fatal(err)
		}
	}
	if code := serve([]string{"a"}, prog, &in, &out); code != 0 {
		t.Fatalf("serve exited %d", code)
	}
	var got []wire.Response
	for dec := json.NewDecoder(&out); dec.More(); {
		var r wire.Response
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != 3 {
		t.Fatalf("got %d replies, want 3 (the failed run ends the loop): %+v", len(got), got)
	}
	for i, want := range []string{"4\nbg\n", "6\nbg\n"} {
		if r := got[i]; !r.OK || r.Seq != uint64(i+1) || r.Stdout != want {
			t.Errorf("run %d: %+v, want ok with %q", i+1, r, want)
		}
	}
	if r := got[2]; r.OK || r.Seq != 3 || r.ErrStage != "runtime" || !strings.HasPrefix(r.ErrMessage, "runtime error: read_int") {
		t.Errorf("failed run: %+v", r)
	}
	if len(runs) != 3 || runs[0] == runs[1] || runs[1] == runs[2] {
		t.Errorf("runs shared a runtime: %p", runs)
	}
}
