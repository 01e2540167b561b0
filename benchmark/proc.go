package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything building and running leaves behind: the
// daemons' binaries, the per-daemon temp dirs and, under run.sh, the Go
// build cache. It is inside the checkout and ignored by git.
const buildDir = ".bench_build"

// repoRoot finds the module root: the daemons must start there because
// the native tier stages generated packages inside the module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module (no go.mod with `module repro` above the working directory)")
		}
		dir = parent
	}
}

// buildDaemons compiles tetrad and tetrarouter from source into
// buildDir/bin. With a warm build cache this is a no-op of ~0.1 s; it is
// part of every set-up so that work moved into the build shows.
func buildDaemons(root string) error {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/tetrad", "./cmd/tetrarouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building tetrad and tetrarouter: %v: %s", err, out)
	}
	return nil
}

func lastBytes(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

func daemonPath(root, name string) string { return filepath.Join(root, buildDir, "bin", name) }

// daemon is one tetrad or tetrarouter child process in its own process
// group, so that it and everything it spawned can be found and killed.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	tmp  string
	done chan struct{} // closed once Wait returned
	err  error

	stopOnce sync.Once
	stopErr  error
}

// live tracks started daemons so a signal or a failure can stop them all.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

// Pdeathsig fires when the thread that forked the child exits, not the
// process, so every daemon is started from one goroutine that owns an OS
// thread for the life of the benchmark.
var startRequests = make(chan func())

func init() {
	go func() {
		runtime.LockOSThread()
		for f := range startRequests {
			f()
		}
	}()
}

func startOnParentThread(cmd *exec.Cmd) error {
	errCh := make(chan error, 1)
	startRequests <- func() { errCh <- cmd.Start() }
	return <-errCh
}

// startDaemon starts bin with `-addr 127.0.0.1:0` plus args, reads the
// address it chose from its first output line, and waits until
// /healthz/ready answers 200. TMPDIR points at a fresh directory so
// tetrad's native artifact store starts empty.
func startDaemon(root, name string, args ...string) (*daemon, error) {
	tmpBase := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpBase, name+"-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(daemonPath(root, name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(tmp, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	cmd.Stderr = logFile
	if err := startOnParentThread(cmd); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, tmp: tmp, done: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]struct{})
	}
	live.set[d] = struct{}{}
	live.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() { // keep draining so the child never blocks on stdout
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addrCh <- strings.TrimSpace(addr)
				sent = true
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()

	select {
	case addr := <-addrCh:
		d.url = "http://" + addr
	case <-d.done:
		tail, _ := os.ReadFile(logFile.Name())
		d.stop()
		return nil, fmt.Errorf("%s exited before listening: %v: %s", name, d.err, lastBytes(tail, 400))
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not announce its address within 20s", name)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s at %s never became ready", name, d.url)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, then kills whatever is left of
// the process group and checks that nothing survived. Waiting reaps the
// child, which is also what folds its children's CPU into ours.
func (d *daemon) stop() error {
	// Once only: after the first stop the process group id may belong to
	// someone else.
	d.stopOnce.Do(func() { d.stopErr = d.terminate() })
	return d.stopErr
}

func (d *daemon) terminate() error {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
	pgid := d.cmd.Process.Pid
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var stopErr error
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		stopErr = fmt.Errorf("%s ignored SIGTERM for 15s; killed", d.name)
	}
	_ = syscall.Kill(-pgid, syscall.SIGKILL)
	<-d.done
	// Orphans of the group are reparented and reaped by init; give the
	// kernel a moment to finish with the ones just killed.
	var left []int
	for i := 0; i < 200; i++ {
		if left = groupMembers(pgid); len(left) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(left) > 0 && stopErr == nil {
		stopErr = fmt.Errorf("%s left processes behind: %v", d.name, left)
	}
	if err := os.RemoveAll(d.tmp); err != nil && stopErr == nil {
		stopErr = err
	}
	return stopErr
}

// stopAll stops every daemon still running; it is the last thing the
// benchmark does on success, on failure and on a signal.
func stopAll() error {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// leftoverChildren is the check at exit: any process that still calls the
// benchmark its parent (a worker of the in-process pool, a native
// artifact, a daemon) is killed and reported.
func leftoverChildren() error {
	self := os.Getpid()
	var left []int
	for _, pid := range allPids() {
		if st, ok := readProcStat(pid); ok && st.ppid == self && st.state != 'Z' {
			left = append(left, pid)
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	}
	if len(left) > 0 {
		return fmt.Errorf("child processes left running at exit (killed): %v", left)
	}
	return nil
}

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	ppid, pgrp int
	state      byte
	cpuTicks   int64 // utime+stime of the process plus cutime+cstime of its reaped children
}

func readProcStat(pid int) (procStat, bool) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return procStat{}, false
	}
	// The command name may contain spaces and parentheses; fields resume
	// after the last ')'.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return procStat{}, false
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 15 {
		return procStat{}, false
	}
	num := func(k int) int64 { v, _ := strconv.ParseInt(f[k], 10, 64); return v }
	// f[0] is field 3 (state); field n of proc(5) is f[n-3].
	return procStat{
		state:    f[0][0],
		ppid:     int(num(1)),
		pgrp:     int(num(2)),
		cpuTicks: num(11) + num(12) + num(13) + num(14),
	}, true
}

func allPids() []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		if pid, err := strconv.Atoi(e.Name()); err == nil {
			pids = append(pids, pid)
		}
	}
	return pids
}

// groupMembers lists the live (non-zombie) processes of a process group.
func groupMembers(pgid int) []int {
	var out []int
	for _, pid := range allPids() {
		if st, ok := readProcStat(pid); ok && st.pgrp == pgid && st.state != 'Z' {
			out = append(out, pid)
		}
	}
	return out
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 100

// treeUsage returns the CPU seconds consumed so far by pid, its reaped
// descendants and its live children, and the resident memory of pid and
// its live children in MiB. tetrad's workers are live children; its
// one-shot native processes are reaped, so their time arrives through
// cutime and cstime.
func treeUsage(pid int) (cpuS, rssMB float64) {
	var ticks, pages int64
	for _, p := range allPids() {
		st, ok := readProcStat(p)
		if !ok || (p != pid && st.ppid != pid) {
			continue
		}
		ticks += st.cpuTicks
		if data, err := os.ReadFile("/proc/" + strconv.Itoa(p) + "/statm"); err == nil {
			if f := strings.Fields(string(data)); len(f) > 1 {
				n, _ := strconv.ParseInt(f[1], 10, 64)
				pages += n
			}
		}
	}
	return float64(ticks) / clockTick, float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// selfUsage is treeUsage for the benchmark's own process, at the finer
// resolution getrusage offers.
func selfUsage() (cpuS, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			n, _ := strconv.ParseInt(f[1], 10, 64)
			rssMB = float64(n) * float64(os.Getpagesize()) / (1 << 20)
		}
	}
	return cpuS, rssMB
}
