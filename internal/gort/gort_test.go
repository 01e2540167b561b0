package gort

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rt"
	"repro/internal/sched"
)

// Generated binaries cannot import internal/rt, so the recursion bound is
// written out here a second time; this keeps the copy honest.
func TestMaxCallDepthMatchesTheEngines(t *testing.T) {
	if MaxCallDepth != rt.MaxCallDepth {
		t.Errorf("gort.MaxCallDepth = %d, rt.MaxCallDepth = %d", MaxCallDepth, rt.MaxCallDepth)
	}
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

func TestLocksAndBackground(t *testing.T) {
	InitLocks(2)
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Lock(0)
			count++
			Unlock(0)
		}()
	}
	wg.Wait()
	if count != 20 {
		t.Errorf("count = %d", count)
	}

	done := false
	var mu sync.Mutex
	Go(func() {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	WaitBG()
	mu.Lock()
	defer mu.Unlock()
	if !done {
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
			ParFor(elems, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("cfg=%+v n=%d: element %d ran %d times", cfg, n, i, got)
				}
			}
		}
	}
}

func TestParForPanicCapture(t *testing.T) {
	defer func(old sched.Config) { schedConfig = old }(schedConfig)
	schedConfig = sched.Config{Workers: 2, Grain: 1}
	err := catchErr(func() {
		ParFor([]int64{1, 2, 3, 4}, func(i int64) {
			if i == 3 {
				Raise("boom at %d", i)
			}
		})
		Reraise()
	})
	if err == nil || !strings.Contains(err.Msg, "boom at 3") {
		t.Errorf("captured err = %v", err)
	}
}

func TestParForThreadBudget(t *testing.T) {
	t.Setenv("TETRA_MAX_THREADS", "3")
	InitGuard()
	defer func(oldCfg sched.Config) {
		os.Unsetenv("TETRA_MAX_THREADS")
		InitGuard()
		schedConfig = oldCfg
	}(schedConfig)
	schedConfig = sched.Config{Workers: 2}

	// 2 workers + main fit a 3-thread budget regardless of element count.
	var ran atomic.Int64
	if err := catchErr(func() {
		ParFor(make([]int64, 1000), func(int64) { ran.Add(1) })
	}); err != nil {
		t.Fatalf("2 workers under 3-thread budget raised: %v", err)
	}
	if ran.Load() != 1000 {
		t.Errorf("ran %d of 1000 iterations", ran.Load())
	}

	// An 8-worker pool cannot: budget raises after joining started workers.
	schedConfig = sched.Config{Workers: 8}
	if err := catchErr(func() {
		ParFor(make([]int64, 1000), func(int64) {})
	}); err == nil || err.Msg != "exceeded thread budget (3 live threads)" {
		t.Errorf("8 workers under 3-thread budget: err = %v", err)
	}
}

// BenchmarkTick is the per-back-edge cost of the governor in a compiled
// program with a step budget in force (serve_heavy's native tier runs it
// 200k times a request).
func BenchmarkTick(b *testing.B) {
	b.Setenv("TETRA_MAX_STEPS", "1000000000000")
	InitGuard()
	defer func() {
		os.Unsetenv("TETRA_MAX_STEPS")
		InitGuard()
	}()
	for i := 0; i < b.N; i++ {
		Tick()
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
	InitGuard()
	defer func() {
		os.Unsetenv("TETRA_MAX_ALLOC")
		InitGuard()
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
	InitGuard()
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

	InitGuard()
	if err := catchErr(func() { Range(0, 100) }); err == nil || !strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Range(0,100) err = %v", err)
	}

	InitGuard()
	if got := Concat("ab", "cd"); got != "abcd" {
		t.Fatalf("Concat = %q", got)
	}
	if err := catchErr(func() { Concat(strings.Repeat("x", 6), strings.Repeat("y", 6)) }); err == nil ||
		!strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Concat never tripped: %v", err)
	}

	InitGuard()
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
	InitGuard()
	if err := catchErr(func() { Repeat("x", 1<<24) }); err == nil || !strings.Contains(err.Msg, "allocation budget") {
		t.Fatalf("Repeat never tripped: %v", err)
	}
}

func TestAllocBudgetUnsetIsUnlimited(t *testing.T) {
	t.Setenv("TETRA_MAX_ALLOC", "")
	InitGuard()
	if err := catchErr(func() { MakeArray[int64](1 << 16) }); err != nil {
		t.Fatalf("unlimited alloc raised: %v", err)
	}
}

func TestEnvInt64WarnsOnMalformed(t *testing.T) {
	t.Setenv("TETRA_MAX_ALLOC", "banana")
	InitGuard() // must not panic; malformed values are ignored with a warning
	defer func() {
		os.Unsetenv("TETRA_MAX_ALLOC")
		InitGuard()
	}()
	if err := catchErr(func() { MakeArray[int64](64) }); err != nil {
		t.Fatalf("malformed budget should disable, not trip: %v", err)
	}
}
