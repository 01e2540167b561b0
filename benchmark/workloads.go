package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

type kind int

const (
	kindRun     kind = iota // source→output in-process, VM and interpreter
	kindCompile             // source→optimised bytecode, nothing executed
	kindServe               // requests against a real tetrad on loopback
)

// workload is one named set of inputs. The reasons are repeated in
// BENCHMARK.json and explained at length in README.md.
type workload struct {
	name string
	why  string
	kind kind

	// Serving workloads only.
	rate    int     // open-loop arrival rate, requests per second
	limitMS float64 // a reply later than this is counted as over the limit
	hot     bool    // one repeated source, so warm-up must ride through promotion
}

var workloads = []workload{
	{name: "run_loops", kind: kindRun,
		why: "loop, array and real-arithmetic programs: engine dispatch does the work, calls and threads almost none"},
	{name: "run_calls", kind: kindRun,
		why: "fib, call loop, recursive quicksort, gcd: the same engines spend their time in frames and argument passing"},
	{name: "run_parallel", kind: kindRun,
		why: "the paper's primes and TSP at 1 and nproc workers plus parallel-for, fan-out and a contended lock: sched, spawn/join and lock tables"},
	{name: "compile_cold", kind: kindCompile,
		why: "22 goldens plus seeded 66/198/990-line programs compiled to optimised bytecode, uncached: front end and optimiser only"},
	{name: "serve_hot", kind: kindServe, rate: 250, limitMS: 10, hot: true,
		why: "one 2000-iteration program requested repeatedly: HTTP, JSON, admission, tier choice and process boundary are the whole cost"},
	{name: "serve_fresh", kind: kindServe, rate: 600, limitMS: 10,
		why: "every request a never-seen edit of a small golden, half interp half vm: compile-cache writes, always the worker pool"},
	{name: "serve_heavy", kind: kindServe, rate: 100, limitMS: 50, hot: true,
		why: "one hot 200k-iteration program: the run dominates, the one place the native tier wins today"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Program sizes. The issue's sizes were chosen for a 29 s measured part;
// the contract allows about 10 s, so every size is scaled by the same
// factor of roughly a third and then cut so one VM pass stays under
// 0.1 s, which gives the pass-time quartiles enough samples.
const (
	loopIters    = 300_000
	sieveLimit   = 120_000
	mandelW      = 60
	mandelH      = 30
	mandelIter   = 100
	primesSeqLim = 30_000

	fibN         = 23
	callIters    = 30_000
	quicksortN   = 8_000
	gcdK         = 140
	primesParLim = 40_000
	tspN         = 9
	parforN      = 6_000
	parforInner  = 50
	fanRounds    = 300
	fanWork      = 300
	lockedMaxN   = 12_000

	hotIters   = 2_000
	heavyIters = 200_000
)

// programs generates a batch workload's inputs. Only generated text ever
// reaches the system under test.
func (w workload) programs(seed int64, nproc int) ([]Program, error) {
	switch w.name {
	case "run_loops":
		return []Program{
			seededArith("arith_loop", loopIters, seed),
			sieve(sieveLimit),
			mandelbrot(mandelW, mandelH, mandelIter),
			primesSeq(primesSeqLim),
		}, nil
	case "run_calls":
		return []Program{
			fib(fibN),
			callLoop("call_loop", callIters, newRNG(seed, "callloop").between(1, 999)),
			quicksort(quicksortN, seed),
			gcdSweep(gcdK, seed),
		}, nil
	case "run_parallel":
		ps := []Program{primesParallel(primesParLim, 1), tspParallel(tspN, 1)}
		if nproc > 1 {
			ps = append(ps, primesParallel(primesParLim, nproc), tspParallel(tspN, nproc))
		}
		return append(ps,
			parforTiny(parforN, parforInner),
			fanOut(fanRounds, fanWork),
			lockedMax(lockedMaxN, seed),
		), nil
	case "compile_cold":
		ps, err := goldens()
		if err != nil {
			return nil, err
		}
		return append(ps,
			synthProgram("synth_small", 1, seed),
			synthProgram("synth_medium", 3, seed),
			synthProgram("synth_large", 15, seed),
		), nil
	case "serve_hot":
		return []Program{seededArith("hot_loop", hotIters, seed)}, nil
	case "serve_heavy":
		return []Program{seededArith("heavy_loop", heavyIters, seed)}, nil
	case "serve_fresh":
		return freshGoldens()
	}
	return nil, fmt.Errorf("workload %q has no programs", w.name)
}

// freshGoldens are the goldens a classroom edit loop would send: they
// finish in well under a millisecond and never sleep.
func freshGoldens() ([]Program, error) {
	all, err := goldens()
	if err != nil {
		return nil, err
	}
	var out []Program
	for _, p := range all {
		if !p.sleeps() {
			out = append(out, p)
		}
	}
	return out, nil
}

// sleeps marks the one golden that waits 100 ms on a timer: time that
// passes at the same speed on any host.
func (p Program) sleeps() bool { return p.Name == "background_queue" }

// request is one POST /run body and the stdout its reply must carry.
type request struct {
	body []byte
	want string
}

// stream yields the k-th request of a serving workload. Equal seeds give
// equal streams.
type stream func(k int) request

// requests builds the workload's request stream.
func (w workload) requests(seed int64) (stream, error) {
	ps, err := w.programs(seed, 1)
	if err != nil {
		return nil, err
	}
	if w.hot {
		req := request{body: runBody(ps[0].Source, ps[0].Stdin, "vm"), want: ps[0].Want}
		return func(int) request { return req }, nil
	}
	// Every request is a source tetrad has never seen: a seeded draw from
	// the goldens, made unique by a trailing comment so the hand-written
	// .out file is still the expected output.
	type variant struct{ head, tail []byte }
	variants := make([][2]variant, len(ps))
	for i, p := range ps {
		for j, backend := range []string{"interp", "vm"} {
			body := runBody(p.Source+"\x00", p.Stdin, backend)
			// The NUL marks where the edit comment goes; JSON renders it
			// as a six-byte escape.
			head, tail, _ := bytes.Cut(body, []byte("\\u0000"))
			variants[i][j] = variant{head, tail}
		}
	}
	return func(k int) request {
		r := newRNG(seed, "fresh"+strconv.Itoa(k))
		i, j := r.intn(len(ps)), r.intn(2)
		v := variants[i][j]
		body := make([]byte, 0, len(v.head)+len(v.tail)+24)
		body = append(body, v.head...)
		body = append(body, "# edit "...)
		body = strconv.AppendInt(body, seed, 10)
		body = append(body, '.')
		body = strconv.AppendInt(body, int64(k), 10)
		body = append(body, `\n`...)
		body = append(body, v.tail...)
		return request{body: body, want: ps[i].Want}
	}, nil
}

func runBody(source, stdin, backend string) []byte {
	b, err := json.Marshal(struct {
		Source  string `json:"source"`
		Stdin   string `json:"stdin,omitempty"`
		Backend string `json:"backend"`
	}{source, stdin, backend})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}
