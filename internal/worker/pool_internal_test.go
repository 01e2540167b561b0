package worker

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestFailedSpawnAndCrashShareBackoff: a spawn that fails and a worker that
// crashes back the next start off the same way, so both step through the
// backoff delays from level 0.
func TestFailedSpawnAndCrashShareBackoff(t *testing.T) {
	var mu sync.Mutex
	var levels []int64
	startDelay = func(level int64) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		levels = append(levels, level)
		return time.Millisecond
	}
	t.Cleanup(func() { startDelay = backoffDelay })
	// recorded returns the levels asked for so far and forgets them.
	recorded := func() string {
		mu.Lock()
		defer mu.Unlock()
		got := fmt.Sprint(levels)
		levels = nil
		return got
	}
	run := func(p *Pool) error {
		_, err := p.Run(&Request{Source: "def main():\n    print(1)\n", File: "t.ttr"}, RunInfo{})
		return err
	}

	// A command that cannot start: each Run's failed start backs off the next.
	p := NewPool(Options{Cmd: []string{filepath.Join(t.TempDir(), "missing")}, Size: 1})
	for i := 0; i < 3; i++ {
		if err := run(p); !errors.Is(err, ErrExhausted) {
			t.Fatalf("run %d: %v, want ErrExhausted", i, err)
		}
	}
	if st := p.Stats(); st.SpawnFailures != 3 {
		t.Errorf("%d spawn failures, want 3", st.SpawnFailures)
	}
	p.Close()
	failed := recorded()

	// A worker that dies after every request: each crash backs off the next.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p = NewPool(Options{
		Cmd:        []string{exe},
		Size:       1,
		Env:        []string{"TETRA_FAULTS=worker-exit=1"},
		Retry:      RetryPolicy{MaxAttempts: 1},
		Quarantine: QuarantinePolicy{Threshold: -1},
	})
	defer p.Close()
	for i := 0; i < 3; i++ {
		var ce *CrashedError
		if err := run(p); !errors.As(err, &ce) {
			t.Fatalf("run %d: %v, want a crash", i, err)
		}
	}
	crashed := recorded()

	if failed != "[0 1 2]" || crashed != "[0 1 2]" {
		t.Errorf("backoff levels: failed spawns %s, crashes %s; want [0 1 2] for both", failed, crashed)
	}
}
