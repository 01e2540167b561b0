package fault

import (
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	inj, err := Parse("worker-panic=0.25,worker-delay=0.5:750ms, pipe-truncate=1")
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Active() {
		t.Fatal("parsed injector should be active")
	}
	got := inj.String()
	want := "pipe-truncate=1,worker-delay=0.5:750ms,worker-panic=0.25"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"worker-panic",         // no probability
		"worker-panic=1.5",     // out of range
		"worker-panic=x",       // not a number
		"worker-delay=0.5:-1s", // negative delay
		"worker-delay=0.5:zz",  // bad duration
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestEmptyAndNilNeverFire(t *testing.T) {
	var nilInj *Injector
	if nilInj.Active() {
		t.Error("nil injector reports active")
	}
	if _, ok := nilInj.Fire(WorkerPanic); ok {
		t.Error("nil injector fired")
	}
	empty, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Active() {
		t.Error("empty injector reports active")
	}
	for i := 0; i < 100; i++ {
		if _, ok := empty.Fire(WorkerPanic); ok {
			t.Fatal("empty injector fired")
		}
	}
}

func TestFireProbabilityAndCounters(t *testing.T) {
	inj := New(42)
	inj.Set(WorkerPanic, 0.5, 0)
	const n = 2000
	for i := 0; i < n; i++ {
		inj.Fire(WorkerPanic)
	}
	fired := inj.Fired(WorkerPanic)
	if fired < n*35/100 || fired > n*65/100 {
		t.Errorf("fired %d/%d at p=0.5, far outside expectation", fired, n)
	}
}

func TestAlwaysAndNeverFire(t *testing.T) {
	inj := New(7)
	inj.Set(WorkerExit, 1, 0)
	inj.Set(WorkerPanic, 0, 0)
	for i := 0; i < 50; i++ {
		if _, ok := inj.Fire(WorkerExit); !ok {
			t.Fatal("p=1 point did not fire")
		}
		if _, ok := inj.Fire(WorkerPanic); ok {
			t.Fatal("p=0 point fired")
		}
	}
}

func TestDelayPayload(t *testing.T) {
	inj := New(3)
	inj.Set(WorkerDelay, 1, 250*time.Millisecond)
	f, ok := inj.Fire(WorkerDelay)
	if !ok || f.Delay != 250*time.Millisecond {
		t.Errorf("Fire = %+v, %v; want 250ms delay", f, ok)
	}
	// A delay point armed without an explicit duration defaults to 1s.
	inj.Set(WorkerDelay, 1, 0)
	f, ok = inj.Fire(WorkerDelay)
	if !ok || f.Delay != time.Second {
		t.Errorf("default delay = %+v, %v; want 1s", f, ok)
	}
}
