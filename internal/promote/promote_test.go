package promote

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const helloSrc = "def main():\n    print(1 + 2)\n"

// waitArtifact polls until the Manager publishes an artifact for
// (file, src) or the deadline passes.
func waitArtifact(t *testing.T, m *Manager, file, src string, wait time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		if bin, ok := m.Artifact(file, src); ok {
			return bin
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no artifact for %s within %s; stats %+v", file, wait, m.Stats())
	return ""
}

// waitState polls until the tracked program reaches the wanted state.
func waitState(t *testing.T, m *Manager, file, src string, want state, wait time.Duration) {
	t.Helper()
	key := Key(file, src)
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		p := m.byKey[key]
		st := stateCold
		if p != nil {
			st = p.state
		}
		m.mu.Unlock()
		if st == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("program never reached state %v; stats %+v", want, m.Stats())
}

func TestThresholdPromotesAndBuildsArtifact(t *testing.T) {
	m := New(Config{Threshold: 3, BuildDir: t.TempDir(), Logf: t.Logf})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	m.Observe("hot.ttr", helloSrc)
	m.Observe("hot.ttr", helloSrc)
	if _, ok := m.Artifact("hot.ttr", helloSrc); ok {
		t.Fatal("artifact published below the threshold")
	}
	m.Observe("hot.ttr", helloSrc) // crosses the threshold

	bin := waitArtifact(t, m, "hot.ttr", helloSrc, 2*time.Minute)
	fi, err := os.Stat(bin)
	if err != nil {
		t.Fatalf("artifact missing on disk: %v", err)
	}
	if fi.Mode()&0o111 == 0 {
		t.Fatalf("artifact %s is not executable (mode %v)", bin, fi.Mode())
	}
	st := m.Stats()
	if st.Ready != 1 || st.Builds+st.ArtifactReuses != 1 {
		t.Errorf("stats after promote: %+v", st)
	}
}

func TestArtifactReusedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Threshold: 1, BuildDir: dir, Logf: t.Logf})
	if !m1.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	m1.Observe("reuse.ttr", helloSrc)
	bin1 := waitArtifact(t, m1, "reuse.ttr", helloSrc, 2*time.Minute)
	m1.Close()

	// A fresh Manager (a restarted server) must find the same
	// content-addressed binary without invoking the toolchain.
	m2 := New(Config{Threshold: 1, BuildDir: dir, Logf: t.Logf})
	defer m2.Close()
	m2.Observe("reuse.ttr", helloSrc)
	bin2 := waitArtifact(t, m2, "reuse.ttr", helloSrc, time.Minute)
	if bin1 != bin2 {
		t.Errorf("artifact path changed across restart: %s vs %s", bin1, bin2)
	}
	st := m2.Stats()
	if st.Builds != 0 || st.ArtifactReuses != 1 {
		t.Errorf("restart should reuse, not rebuild: %+v", st)
	}
}

func TestBuildFailureCoolsThenRetriesAfterBackoff(t *testing.T) {
	clock := time.Now()
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	m := New(Config{
		Threshold:      1,
		BuildDir:       t.TempDir(),
		GoTool:         "/bin/false", // toolchain always fails
		RebuildBackoff: time.Hour,
		Logf:           t.Logf,
		now:            now,
	})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	m.Observe("flaky.ttr", helloSrc)
	waitState(t, m, "flaky.ttr", helloSrc, stateCooling, time.Minute)
	if st := m.Stats(); st.BuildFailures != 1 || st.Ready != 0 {
		t.Fatalf("after failed build: %+v", st)
	}

	// Inside the cooldown, more heat must not re-enqueue.
	m.Observe("flaky.ttr", helloSrc)
	time.Sleep(50 * time.Millisecond)
	if st := m.Stats(); st.BuildFailures != 1 {
		t.Fatalf("re-enqueued during cooldown: %+v", st)
	}

	// Past the cooldown it retries (and fails again — the tool is still
	// /bin/false — which is how we observe the retry happened).
	clockMu.Lock()
	clock = clock.Add(2 * time.Hour)
	clockMu.Unlock()
	m.Observe("flaky.ttr", helloSrc)
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if m.Stats().BuildFailures >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no rebuild attempt after backoff: %+v", m.Stats())
}

func TestCompileErrorPinsProgram(t *testing.T) {
	m := New(Config{Threshold: 1, BuildDir: t.TempDir(), Logf: t.Logf})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	m.Observe("broken.ttr", "def main(:\n")
	waitState(t, m, "broken.ttr", "def main(:\n", stateFailed, time.Minute)
	st := m.Stats()
	if st.CompileFailures != 1 || st.Pinned != 1 {
		t.Fatalf("compile error should pin: %+v", st)
	}
	// Pinned means pinned: more heat never re-enqueues.
	for i := 0; i < 5; i++ {
		m.Observe("broken.ttr", "def main(:\n")
	}
	time.Sleep(50 * time.Millisecond)
	if st := m.Stats(); st.CompileFailures != 1 || st.Pinned != 1 {
		t.Fatalf("pinned program re-entered the pipeline: %+v", st)
	}
}

func TestDemoteCoolsThenPins(t *testing.T) {
	clock := time.Now()
	m := New(Config{
		Threshold:      1,
		BuildDir:       t.TempDir(),
		RebuildBackoff: time.Hour,
		MaxDemotions:   2,
		Logf:           t.Logf,
		now:            func() time.Time { return clock },
	})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	key := Key("demote.ttr", helloSrc)
	// Install a ready program directly — this test is about the demotion
	// state machine, not the build pipeline.
	seedReady := func() {
		m.mu.Lock()
		p := m.byKey[key]
		if p == nil {
			p = &program{file: "demote.ttr", src: helloSrc, hash: key}
			m.byKey[key] = p
		}
		p.state = stateReady
		p.bin = "/nonexistent.bin"
		m.mu.Unlock()
	}

	seedReady()
	m.Demote("demote.ttr", helloSrc, "killed by signal")
	if _, ok := m.Artifact("demote.ttr", helloSrc); ok {
		t.Fatal("artifact still served after demotion")
	}
	if st := m.Stats(); st.Demotions != 1 || st.Pinned != 0 {
		t.Fatalf("after first demotion: %+v", st)
	}
	// Demoting a non-ready program is a no-op (concurrent crashes of the
	// same artifact must not double-count).
	m.Demote("demote.ttr", helloSrc, "again")
	if st := m.Stats(); st.Demotions != 1 {
		t.Fatalf("demotion double-counted: %+v", st)
	}

	seedReady()
	m.Demote("demote.ttr", helloSrc, "killed again")
	st := m.Stats()
	if st.Demotions != 2 || st.Pinned != 1 {
		t.Fatalf("second demotion should pin to the VM: %+v", st)
	}
	// A pinned program never re-promotes, however hot.
	for i := 0; i < 3; i++ {
		m.Observe("demote.ttr", helloSrc)
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := m.Artifact("demote.ttr", helloSrc); ok {
		t.Fatal("pinned program re-promoted")
	}
}

func TestKeyDistinguishesPrograms(t *testing.T) {
	a := Key("a.ttr", helloSrc)
	if b := Key("b.ttr", helloSrc); b == a {
		t.Error("file name not part of the key")
	}
	if c := Key("a.ttr", helloSrc+"\n"); c == a {
		t.Error("source not part of the key")
	}
	if d := Key("a.ttr", helloSrc); d != a {
		t.Error("key not deterministic")
	}
}

func TestDisabledManagerIsInert(t *testing.T) {
	// Point the build dir at a path that cannot be created: the Manager
	// must disable itself rather than fail requests later.
	bad := filepath.Join(string([]byte{0}), "nope")
	m := New(Config{Threshold: 1, BuildDir: bad, Logf: t.Logf})
	defer m.Close()
	if m.Enabled() {
		t.Skip("build dir unexpectedly creatable")
	}
	m.Observe("x.ttr", helloSrc) // must not panic or enqueue
	if _, ok := m.Artifact("x.ttr", helloSrc); ok {
		t.Fatal("disabled manager served an artifact")
	}
	m.Demote("x.ttr", helloSrc, "?") // no-op
	if st := m.Stats(); st.Enabled || st.Tracked != 0 {
		t.Fatalf("disabled manager tracked state: %+v", st)
	}
}
