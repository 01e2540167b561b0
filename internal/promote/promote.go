// Package promote is tetrad's native promotion tier: it watches which
// programs the service keeps executing, and compiles the hot ones via
// gogen → `go build` into native binaries the server can run instead of
// interpreting — the paper's §VI future-work compiler finally serving
// traffic.
//
// The lifecycle per program hash:
//
//	cold ──(Threshold observations)──▶ pending ──▶ building ──▶ ready
//	  ▲                                                │            │
//	  │                                   build failed │            │ artifact crashed
//	  │                                                ▼            ▼
//	  └────────────(RebuildBackoff elapses)───────── cooling ◀── Demote
//	                                                   │
//	                     too many demotions / compile error
//	                                                   ▼
//	                                                 failed (pinned to the VM)
//
// Builds happen on one background goroutine, off the request path:
// requests only bump counters and read the artifact table. Emission is
// deterministic (gogen orders everything by declaration and resets its
// temp counter per generation), so artifacts are content-addressed by
// the hash of the generated Go source — a rebuild of unchanged source
// reuses the artifact on disk, across demotion cycles and across server
// restarts.
package promote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gogen"
	"repro/internal/worker"
)

// Config configures a Manager.
type Config struct {
	// Threshold is how many observations (requests an engine answered OK)
	// a program needs before it is queued for native compilation. Default
	// 32.
	Threshold int
	// BuildDir is where artifacts are written, content-addressed by
	// generated-source hash. Default <os.TempDir()>/tetrad-native.
	BuildDir string
	// GoTool is the Go toolchain command for the build step (default
	// "go"; tests inject a failing tool to drive the failure paths).
	GoTool string
	// RebuildBackoff is the cooldown after a demotion or build failure
	// before the program may be promoted again (default 30s).
	RebuildBackoff time.Duration
	// MaxDemotions is how many demotions a program survives before it
	// is pinned to the VM for good (default 2). A binary that keeps
	// crashing is evidence about the binary, not bad luck.
	MaxDemotions int
	// Logf, when set, receives promotion-tier events.
	Logf func(format string, args ...any)

	// now is the injectable clock for backoff tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 32
	}
	if c.BuildDir == "" {
		c.BuildDir = filepath.Join(os.TempDir(), "tetrad-native")
	}
	if c.GoTool == "" {
		c.GoTool = "go"
	}
	if c.RebuildBackoff <= 0 {
		c.RebuildBackoff = 30 * time.Second
	}
	if c.MaxDemotions <= 0 {
		c.MaxDemotions = 2
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

type state int

const (
	stateCold state = iota
	statePending
	stateBuilding
	stateReady
	stateCooling
	stateFailed
)

func (s state) String() string {
	switch s {
	case stateCold:
		return "cold"
	case statePending:
		return "pending"
	case stateBuilding:
		return "building"
	case stateReady:
		return "ready"
	case stateCooling:
		return "cooling"
	case stateFailed:
		return "failed"
	default:
		return "?"
	}
}

// program is one tracked (file, source) pair.
type program struct {
	file, src string
	hash      string // native program hash (artifact key)
	count     int    // observations since last state change
	state     state
	bin       string // artifact path when ready
	demotions int
	notBefore time.Time // cooling: no re-promotion before this
	lastErr   string
}

// maxTracked bounds the observation table; an adversarial stream of
// unique programs degrades hotness tracking, never memory.
const maxTracked = 4096

// Stats is a point-in-time snapshot of the promotion tier.
type Stats struct {
	Enabled         bool  `json:"enabled"`
	Tracked         int   `json:"tracked"`
	Ready           int   `json:"ready"`
	Builds          int64 `json:"builds"`
	ArtifactReuses  int64 `json:"artifact_reuses"`
	BuildFailures   int64 `json:"build_failures"`
	CompileFailures int64 `json:"compile_failures"`
	Demotions       int64 `json:"demotions"`
	Pinned          int   `json:"pinned_vm"`
}

// Manager tracks program hotness and runs the background builder.
// Create with New; safe for concurrent use; Close stops the builder.
type Manager struct {
	cfg  Config
	root string // module root ("" = toolchain unavailable, tier disabled)

	mu    sync.Mutex
	byKey map[string]*program

	queue   chan *program
	closeCh chan struct{}
	cancel  context.CancelFunc
	ctx     context.Context
	wg      sync.WaitGroup

	builds, reuses, buildFails, compileFails, demotions atomic.Int64
}

// New starts a Manager (and its builder goroutine). If the Go toolchain
// or module root is unavailable, the Manager is inert: Enabled reports
// false, Observe is a no-op, Artifact never answers.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		byKey:   make(map[string]*program),
		queue:   make(chan *program, 64),
		closeCh: make(chan struct{}),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	if root, err := moduleRoot(); err == nil {
		m.root = root
	} else {
		m.logf("native tier disabled: %v", err)
		return m
	}
	if err := os.MkdirAll(cfg.BuildDir, 0o755); err != nil {
		m.logf("native tier disabled: creating build dir: %v", err)
		m.root = ""
		return m
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.builder()
	}()
	return m
}

// moduleRoot locates the go.mod directory via the toolchain: generated
// programs import repro/internal/gort, so they only build inside this
// module.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

// Enabled reports whether the tier can build at all.
func (m *Manager) Enabled() bool { return m != nil && m.root != "" }

// Key returns the native program hash for (file, src) — the key the
// server and the native runner share for artifacts and crash records.
func Key(file, src string) string {
	return worker.HashProgram(file, src, "native", 0)
}

// Observe counts one request for (file, src) that an engine answered OK —
// which is the caller's to know — and queues the program for promotion
// once it crosses the threshold (or, for a demoted program, once the
// cooldown has passed).
func (m *Manager) Observe(file, src string) {
	if !m.Enabled() {
		return
	}
	key := Key(file, src)
	m.mu.Lock()
	p := m.byKey[key]
	if p == nil {
		if len(m.byKey) >= maxTracked {
			m.mu.Unlock()
			return
		}
		p = &program{file: file, src: src, hash: key}
		m.byKey[key] = p
	}
	p.count++
	enqueue := false
	switch p.state {
	case stateCold:
		enqueue = p.count >= m.cfg.Threshold
	case stateCooling:
		enqueue = p.count >= m.cfg.Threshold && m.cfg.now().After(p.notBefore)
	}
	if enqueue {
		p.state = statePending
	}
	m.mu.Unlock()
	if enqueue {
		select {
		case m.queue <- p:
		default:
			// Build queue full: stay hot, retry on a later observation.
			m.mu.Lock()
			p.state = stateCold
			m.mu.Unlock()
		}
	}
}

// Artifact answers the native binary for (file, src) when one is ready.
func (m *Manager) Artifact(file, src string) (string, bool) {
	if !m.Enabled() {
		return "", false
	}
	key := Key(file, src)
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.byKey[key]; p != nil && p.state == stateReady {
		return p.bin, true
	}
	return "", false
}

// Demote pulls (file, src) off the native tier after its artifact
// crashed: the artifact is forgotten, the hotness counter resets, and
// the program may re-promote only after RebuildBackoff — unless it has
// burned MaxDemotions already, in which case it is pinned to the VM.
func (m *Manager) Demote(file, src, reason string) {
	if !m.Enabled() {
		return
	}
	key := Key(file, src)
	m.mu.Lock()
	p := m.byKey[key]
	if p == nil || p.state != stateReady {
		m.mu.Unlock()
		return
	}
	m.demotions.Add(1)
	p.bin = ""
	p.count = 0
	p.demotions++
	p.lastErr = reason
	if p.demotions >= m.cfg.MaxDemotions {
		p.state = stateFailed
		m.mu.Unlock()
		m.logf("native demotion: %s pinned to vm after %d demotions (%s)", key, p.demotions, reason)
		return
	}
	p.state = stateCooling
	p.notBefore = m.cfg.now().Add(m.cfg.RebuildBackoff)
	m.mu.Unlock()
	m.logf("native demotion: %s cooling for %s (%s)", key, m.cfg.RebuildBackoff, reason)
}

// Stats snapshots the tier.
func (m *Manager) Stats() Stats {
	st := Stats{
		Enabled:         m.Enabled(),
		Builds:          m.builds.Load(),
		ArtifactReuses:  m.reuses.Load(),
		BuildFailures:   m.buildFails.Load(),
		CompileFailures: m.compileFails.Load(),
		Demotions:       m.demotions.Load(),
	}
	m.mu.Lock()
	st.Tracked = len(m.byKey)
	for _, p := range m.byKey {
		switch p.state {
		case stateReady:
			st.Ready++
		case stateFailed:
			st.Pinned++
		}
	}
	m.mu.Unlock()
	return st
}

// Close stops the builder (cancelling any in-flight `go build`) and
// waits for it. Artifacts stay on disk for reuse by the next process.
func (m *Manager) Close() {
	m.mu.Lock()
	select {
	case <-m.closeCh:
		m.mu.Unlock()
	default:
		close(m.closeCh)
		m.mu.Unlock()
		m.cancel()
	}
	m.wg.Wait()
}

// builder is the background build loop: one build at a time, so the
// tier never competes with itself for the toolchain.
func (m *Manager) builder() {
	for {
		select {
		case <-m.closeCh:
			return
		case p := <-m.queue:
			m.build(p)
		}
	}
}

// maxArtifacts bounds how many programs may be ready at once; beyond it,
// promotion stops until the server restarts.
const maxArtifacts = 64

// build compiles one program to a native artifact and publishes it.
func (m *Manager) build(p *program) {
	m.mu.Lock()
	if p.state != statePending {
		m.mu.Unlock()
		return
	}
	ready := 0
	for _, q := range m.byKey {
		if q.state == stateReady {
			ready++
		}
	}
	if ready >= maxArtifacts {
		p.state = stateCold
		p.count = 0
		m.mu.Unlock()
		m.logf("native build skipped: artifact cap (%d) reached", maxArtifacts)
		return
	}
	p.state = stateBuilding
	m.mu.Unlock()

	bin, reused, err := m.compileAndBuild(p)
	m.mu.Lock()
	switch {
	case err == nil:
		// Counted before the artifact can be seen, so whoever sees it also
		// sees it counted (/metrics "promotions").
		if reused {
			m.reuses.Add(1)
		} else {
			m.builds.Add(1)
		}
		p.state = stateReady
		p.bin = bin
		p.count = 0
		p.lastErr = ""
	case isCompileError(err):
		// A program gogen cannot compile today will not compile
		// tomorrow; don't burn the builder on it again.
		m.compileFails.Add(1)
		p.state = stateFailed
		p.lastErr = err.Error()
	default:
		m.buildFails.Add(1)
		p.state = stateCooling
		p.count = 0
		p.notBefore = m.cfg.now().Add(m.cfg.RebuildBackoff)
		p.lastErr = err.Error()
	}
	st := p.state
	m.mu.Unlock()

	switch {
	case st != stateReady:
		m.logf("native build failed (%s): %s: %v", st, p.hash, err)
	case reused:
		m.logf("native promote: %s -> %s (artifact reused)", p.hash, bin)
	default:
		m.logf("native promote: %s -> %s", p.hash, bin)
	}
}

// compileError wraps Tetra-compile and gogen failures so build can
// distinguish them from toolchain failures.
type compileError struct{ err error }

func (e *compileError) Error() string { return e.err.Error() }
func (e *compileError) Unwrap() error { return e.err }

func isCompileError(err error) bool {
	var ce *compileError
	return errors.As(err, &ce)
}

// buildTimeout bounds one `go build`.
const buildTimeout = 120 * time.Second

// compileAndBuild runs the pipeline: Tetra → checked AST → Go source →
// native binary. Artifacts are content-addressed by the generated
// source's hash, so an identical program (even across restarts or
// demotion cycles) reuses the binary on disk without invoking the
// toolchain.
func (m *Manager) compileAndBuild(p *program) (bin string, reused bool, err error) {
	prog, err := core.Compile(p.file, p.src)
	if err != nil {
		return "", false, &compileError{err}
	}
	goSrc, err := gogen.Generate(prog)
	if err != nil {
		return "", false, &compileError{err}
	}
	bin = filepath.Join(m.cfg.BuildDir, worker.HashProgram("gogen", goSrc, "native", 0)+".bin")
	if fi, statErr := os.Stat(bin); statErr == nil && fi.Mode().IsRegular() && fi.Mode()&0o111 != 0 {
		return bin, true, nil
	}

	// Stage the generated main package inside the module (it imports
	// repro/internal/gort) and build it out into the artifact dir.
	dir, err := os.MkdirTemp(m.root, ".tetrad-native-build-*")
	if err != nil {
		return "", false, err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(goSrc), 0o644); err != nil {
		return "", false, err
	}

	ctx, cancel := context.WithTimeout(m.ctx, buildTimeout)
	defer cancel()
	tmp := bin + ".tmp"
	cmd := exec.CommandContext(ctx, m.cfg.GoTool, "build", "-o", tmp, "./"+filepath.Base(dir))
	cmd.Dir = m.root
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		os.Remove(tmp)
		return "", false, fmt.Errorf("%s build: %v: %s", m.cfg.GoTool, err, strings.TrimSpace(errOut.String()))
	}
	// Rename-into-place: a concurrent reader never sees a half-written
	// binary.
	if err := os.Rename(tmp, bin); err != nil {
		os.Remove(tmp)
		return "", false, err
	}
	return bin, false, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
