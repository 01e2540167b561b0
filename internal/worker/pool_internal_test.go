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
// crashes schedule the next spawn the same way, so both step through the
// backoff delays from level 0.
func TestFailedSpawnAndCrashShareBackoff(t *testing.T) {
	var mu sync.Mutex
	var levels []int64
	respawnDelay = func(level int64) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		levels = append(levels, level)
		return time.Millisecond
	}
	t.Cleanup(func() { respawnDelay = backoffDelay })
	// firstThree waits for three scheduled respawns and returns their levels.
	firstThree := func() string {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			got := append([]int64(nil), levels...)
			mu.Unlock()
			if len(got) >= 3 {
				return fmt.Sprint(got[:3])
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d respawns scheduled, want 3", len(got))
			}
		}
	}

	// A command that cannot start: each failed spawn schedules the next.
	p := NewPool(Options{Cmd: []string{filepath.Join(t.TempDir(), "missing")}, Size: 1})
	failed := firstThree()
	p.Close()
	mu.Lock()
	levels = nil
	mu.Unlock()

	// A worker that dies after every request: each crash schedules the next.
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
		for deadline := time.Now().Add(10 * time.Second); ; {
			_, err := p.Run(&Request{Source: "def main():\n    print(1)\n", File: "t.ttr"}, RunInfo{})
			var ce *CrashedError
			if errors.As(err, &ce) {
				break
			}
			if !errors.Is(err, ErrExhausted) || time.Now().After(deadline) {
				t.Fatalf("run %d: %v, want a crash", i, err)
			}
		}
	}
	crashed := firstThree()

	if failed != "[0 1 2]" || crashed != "[0 1 2]" {
		t.Errorf("backoff levels: failed spawns %s, crashes %s; want [0 1 2] for both", failed, crashed)
	}
}
