package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// nativeThreshold is tetrad's shipped -native-threshold: the request
// count after which a program is queued for a native build.
const nativeThreshold = 32

// reply is the part of a /run answer the benchmark depends on. Fields the
// server stops sending decode as zero values.
type reply struct {
	OK        bool   `json:"ok"`
	Stdout    string `json:"stdout"`
	CacheHit  bool   `json:"cache_hit"`
	CompileUS int64  `json:"compile_us"`
	RunUS     int64  `json:"run_us"`
	Isolation string `json:"isolation"`
}

// client sends /run requests over keep-alive connections and checks
// every reply against the expected output.
type client struct {
	http *http.Client
	url  string
	rec  *recorder
}

func newClient(baseURL string, conns int, rec *recorder) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
			Timeout:   30 * time.Second,
		},
		url: baseURL + "/run",
		rec: rec,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// outcome is one request as the generator saw it.
type outcome struct {
	rep     reply
	wall    time.Duration
	status  int
	backend string // X-Tetra-Backend, set by tetrarouter
	correct bool
}

// do sends request k. A transport error, a refusal (any status but 200),
// a runtime error or a wrong stdout all make the outcome incorrect.
func (c *client) do(k int, req request) outcome {
	id := c.rec.begin("client.request", -1, k)
	start := time.Now()
	var o outcome
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(req.body))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		o.backend = resp.Header.Get("X-Tetra-Backend")
		if err == nil && o.status == http.StatusOK {
			err = json.Unmarshal(body, &o.rep)
		}
	}
	o.wall = time.Since(start)
	c.rec.end(id)
	o.correct = err == nil && o.status == http.StatusOK && o.rep.OK && o.rep.Stdout == req.want
	if o.correct {
		// The reply says how long the server compiled and ran; what is
		// left of the client's wall time is everything else.
		c.rec.estimate("server.run", id, time.Duration(o.rep.RunUS)*time.Microsecond, true)
		c.rec.estimate("server.compile", id, time.Duration(o.rep.CompileUS)*time.Microsecond, false)
	}
	return o
}

// tally accumulates what a phase's replies said.
type tally struct {
	attempted, correct int
	tiers              map[string]int
	cacheHits          int
	compileUS, runUS   int64
	overLimit          int
}

func (t *tally) add(o outcome) {
	t.attempted++
	if !o.correct {
		return
	}
	t.correct++
	if t.tiers == nil {
		t.tiers = make(map[string]int)
	}
	t.tiers[o.rep.Isolation]++
	if o.rep.CacheHit {
		t.cacheHits++
	}
	t.compileUS += o.rep.CompileUS
	t.runUS += o.rep.RunUS
}

func (t *tally) merge(u tally) {
	t.attempted += u.attempted
	t.correct += u.correct
	t.cacheHits += u.cacheHits
	t.compileUS += u.compileUS
	t.runUS += u.runUS
	t.overLimit += u.overLimit
	for k, v := range u.tiers {
		if t.tiers == nil {
			t.tiers = make(map[string]int)
		}
		t.tiers[k] += v
	}
}

func (t tally) failed() int { return t.attempted - t.correct }

func (t tally) share(tier string) float64 {
	if t.correct == 0 {
		return 0
	}
	return float64(t.tiers[tier]) / float64(t.correct)
}

// serving is one serving workload against one running tetrad.
type serving struct {
	w      workload
	d      *daemon
	reqs   stream
	next   atomic.Int64 // next unused stream index; phases never reuse a request
	nproc  int
	native bool // a reply from the native tier was seen

	buildWait time.Duration // threshold crossing → first native reply
}

// serverMetrics is GET /metrics, read field by field so that a counter
// the server stops reporting is merely absent.
type serverMetrics map[string]any

// at returns the value at a path of object keys, nil when any part of
// the path is missing.
func (m serverMetrics) at(path ...string) any {
	var v any = map[string]any(m)
	for _, key := range path {
		obj, _ := v.(map[string]any)
		v = obj[key] // a nil map reads as nil
	}
	return v
}

// num is at for a number; false means the server does not report it.
func (m serverMetrics) num(path ...string) (float64, bool) {
	f, ok := m.at(path...).(float64)
	return f, ok
}

func fetchMetrics(baseURL string) (serverMetrics, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var m serverMetrics
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// Warm-up bounds. The issue's 5 s floor is dropped: set-up should be work
// that scales with the host like the rest, not a timer, and asking
// /metrics whether a promotion is still being built is both shorter and
// safe on a host where `go build` is slow.
const (
	warmStreak = 200
	warmCap    = 60 * time.Second
)

// warmUp runs a closed loop until the replies' isolation value has been
// the same for warmStreak consecutive replies and, on a hot workload
// whose server reports a promoter, until that promoter has finished with
// the program one way or the other. It never assumes a native tier
// exists: a server without one just passes the streak test on "worker".
func (s *serving) warmUp() (tally, error) {
	c := newClient(s.d.url, s.nproc, nil)
	defer c.close()
	var (
		mu          sync.Mutex
		total       tally
		last        string
		streak      int
		thresholdAt time.Time
		done        atomic.Bool
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < s.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				k := int(s.next.Add(1) - 1)
				o := c.do(k, s.reqs(k))
				mu.Lock()
				total.add(o)
				if total.attempted == nativeThreshold {
					thresholdAt = time.Now()
				}
				if o.rep.Isolation == "native" && !s.native {
					s.native = true
					if !thresholdAt.IsZero() {
						s.buildWait = time.Since(thresholdAt)
					}
				}
				if o.correct && o.rep.Isolation == last {
					streak++
				} else {
					last, streak = o.rep.Isolation, 1
				}
				mu.Unlock()
			}
		}()
	}
	var err error
	for !done.Load() {
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		settled, native := streak >= warmStreak, s.native
		mu.Unlock()
		switch elapsed := time.Since(start); {
		case elapsed > warmCap:
			err = fmt.Errorf("%s: replies did not settle on one tier within %s", s.w.name, warmCap)
			done.Store(true)
		case settled && (native || s.promotionSettled()):
			done.Store(true)
		}
	}
	wg.Wait()
	return total, err
}

// promotionSettled reports whether nothing is left to wait for: the
// workload never repeats a source, the server has no promoter, or the
// promoter has built (or given up on) the hot program. Once the build is
// ready the streak test still has to see the tier change and settle.
func (s *serving) promotionSettled() bool {
	if !s.w.hot {
		return true
	}
	m, err := fetchMetrics(s.d.url)
	if enabled, _ := m.at("promote", "enabled").(bool); err != nil || !enabled {
		return true
	}
	buildFailed, _ := m.num("promote", "build_failures")
	compileFailed, _ := m.num("promote", "compile_failures")
	return buildFailed+compileFailed > 0
}

// openLoop sends requests on a fixed schedule for d, whatever the replies
// do, and times each from the moment it was due: a stall delays the
// requests behind it and that wait is counted. It returns the latencies
// and how late the generator itself ran, both in ms.
func (s *serving) openLoop(d time.Duration, rec *recorder) (lat, late []float64, t tally) {
	c := newClient(s.d.url, s.nproc, rec)
	defer c.close()
	n := int(d.Seconds() * float64(s.w.rate))
	gap := time.Second / time.Duration(s.w.rate)
	base := int(s.next.Add(int64(n))) - n
	lats := make([]float64, n)
	lates := make([]float64, n)
	tallies := make([]tally, s.nproc)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for cl := 0; cl < s.nproc; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl; i < n; i += s.nproc {
				due := start.Add(time.Duration(i) * gap)
				sleepUntil(due)
				lates[i] = ms(time.Since(due))
				o := c.do(base+i, s.reqs(base+i))
				lats[i] = ms(time.Since(due))
				tallies[cl].add(o)
				if o.correct && lats[i] > s.w.limitMS {
					tallies[cl].overLimit++
				}
			}
		}(cl)
	}
	wg.Wait()
	for _, u := range tallies {
		t.merge(u)
	}
	return lats, lates, t
}

// loopResult is what a closed-loop phase saw.
type loopResult struct {
	walls   []float64 // client wall time per request, ms
	beyond  []float64 // wall minus the compile and run the reply reported, ms
	elapsed time.Duration
	tally
}

// closedLoop keeps clients callers busy against url for d: each sends its
// next request when the previous reply arrived.
func (s *serving) closedLoop(d time.Duration, clients int, url string, rec *recorder) loopResult {
	c := newClient(url, clients, rec)
	defer c.close()
	per := make([]loopResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for time.Since(start) < d {
				k := int(s.next.Add(1) - 1)
				o := c.do(k, s.reqs(k))
				r.add(o)
				r.walls = append(r.walls, ms(o.wall))
				if o.correct {
					r.beyond = append(r.beyond, ms(o.wall)-float64(o.rep.CompileUS+o.rep.RunUS)/1000)
				}
			}
		}(&per[cl])
	}
	wg.Wait()
	all := loopResult{elapsed: time.Since(start)}
	for _, r := range per {
		all.merge(r.tally)
		all.walls = append(all.walls, r.walls...)
		all.beyond = append(all.beyond, r.beyond...)
	}
	return all
}

// sleepUntil blocks in nanosleep(2) rather than time.Sleep: an idle Go
// process waits for its timers in epoll_wait, whose millisecond
// granularity made the generator up to 1 ms late on every request.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupServe is one full set-up of a serving workload: build the daemons
// from source, generate the request stream, start a fresh tetrad with
// nothing but -addr, and warm it up.
func setupServe(root string, w workload, seed int64, nproc int) (*serving, tally, error) {
	if err := buildDaemons(root); err != nil {
		return nil, tally{}, err
	}
	reqs, err := w.requests(seed)
	if err != nil {
		return nil, tally{}, err
	}
	d, err := startDaemon(root, "tetrad")
	if err != nil {
		return nil, tally{}, err
	}
	s := &serving{w: w, d: d, reqs: reqs, nproc: nproc}
	warm, err := s.warmUp()
	if err == nil && warm.failed() > 0 {
		err = fmt.Errorf("%s: %d of %d warm-up requests failed", w.name, warm.failed(), warm.attempted)
	}
	if err != nil {
		d.stop()
		return nil, warm, err
	}
	return s, warm, nil
}

// segments is how many pieces each phase of the measured part is cut
// into; between two pieces, with the server idle, the host reference
// kernel takes a few slices.
const segments = 5

// measure is the untraced measured part: an open-loop phase at the
// workload's fixed rate for the latencies, then a closed-loop phase with
// nproc clients for throughput, CPU and memory.
func (s *serving) measure(d time.Duration, r *result, ref *hostRef) {
	seg := d / (2 * segments)
	var lat, late []float64
	var open tally
	for i := 0; i < segments; i++ {
		ref.sample(4)
		l, lt, t := s.openLoop(seg, nil)
		lat, late = append(lat, l...), append(late, lt...)
		open.merge(t)
	}
	r.set("op_p50_ms", timing(lat))

	cpu0, _ := treeUsage(s.d.cmd.Process.Pid)
	var closed loopResult
	for i := 0; i < segments; i++ {
		ref.sample(4)
		c := s.closedLoop(seg, s.nproc, s.d.url, nil)
		closed.merge(c.tally)
		closed.elapsed += c.elapsed
	}
	ref.sample(4)
	cpu1, rss := treeUsage(s.d.cmd.Process.Pid)
	r.set("throughput_ops", single(float64(closed.correct)/closed.elapsed.Seconds(), closed.correct))
	r.set("cpu_ms_per_op", single((cpu1-cpu0)*1000/float64(max(closed.correct, 1)), closed.correct))
	r.set("rss_mb", single(rss, 1))

	r.attempted += open.attempted + closed.attempted
	r.failed += open.failed() + closed.failed()
	r.native = s.native || open.tiers["native"]+closed.tiers["native"] > 0
	r.notes = append(r.notes,
		fmt.Sprintf("open loop %d req/s for %s: attempted %d, succeeded %d, failed %d, over %g ms limit %d, generator late p95 %.3f ms",
			s.w.rate, d/2, open.attempted, open.correct, open.failed(), s.w.limitMS, open.overLimit, percentile(late, 95)),
		"tail of the open loop, as measured: "+tailOf(lat),
		fmt.Sprintf("closed loop %d clients for %s: attempted %d, succeeded %d, failed %d",
			s.nproc, d/2, closed.attempted, closed.correct, closed.failed()),
		fmt.Sprintf("tiers: open %v, closed %v", open.tiers, closed.tiers))
}
