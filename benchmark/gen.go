package main

import (
	"embed"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Program is one generated input: a Tetra source, its stdin and the
// output it must print. Want never comes from the engine being timed: it
// is a hand-written golden file, a native-Go reference below, or (for
// the synthesised compile corpus only) the tree-walking interpreter
// checked against the VM.
type Program struct {
	Name   string
	Source string
	Stdin  string
	Want   string
}

//go:embed programs
var programFS embed.FS

// goldens returns the hand-written programs copied from
// testdata/programs with their .out and optional .in files, by name.
func goldens() ([]Program, error) {
	entries, err := programFS.ReadDir("programs")
	if err != nil {
		return nil, err
	}
	var out []Program
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".ttr")
		if !ok {
			continue
		}
		src, err := programFS.ReadFile("programs/" + e.Name())
		if err != nil {
			return nil, err
		}
		want, err := programFS.ReadFile("programs/" + name + ".out")
		if err != nil {
			return nil, fmt.Errorf("golden %s has no expected output: %w", name, err)
		}
		// A missing .in file means the program reads nothing.
		stdin, _ := programFS.ReadFile("programs/" + name + ".in")
		out = append(out, Program{Name: name, Source: string(src), Stdin: string(stdin), Want: string(want)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// rng is splitmix64: tiny, seedable, and identical on every platform, so
// equal seeds give byte-identical inputs.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567}
	for _, c := range stream {
		r.s = (r.s ^ uint64(c)) * 0xBF58476D1CE4E5B9
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

const arithMod = 1000003

// arithLoop is the dispatch-bound loop every layer of the system is
// timed with: n iterations of integer arithmetic, no calls, no arrays.
// The seeded constants change the answer, never the amount of work.
func arithLoop(name string, n, a, b int) Program {
	src := fmt.Sprintf(`# arithmetic loop: %d iterations, no calls
def main():
    i = 0
    s = 0
    while i < %d:
        s = (s + i * %d + %d) %% %d
        i += 1
    print(s)
`, n, n, a, b, arithMod)
	s := 0
	for i := 0; i < n; i++ {
		s = (s + i*a + b) % arithMod
	}
	return Program{Name: name, Source: src, Want: fmt.Sprintf("%d\n", s)}
}

func seededArith(name string, n int, seed int64) Program {
	r := newRNG(seed, name)
	return arithLoop(name, n, r.between(3, 9), r.between(11, 99))
}

func sieve(limit int) Program {
	src := fmt.Sprintf(`# sieve of Eratosthenes over an int array
def main():
    n = %d
    flags = range(n)
    i = 0
    while i < n:
        flags[i] = 1
        i += 1
    flags[0] = 0
    flags[1] = 0
    p = 2
    while p * p < n:
        if flags[p] == 1:
            m = p * p
            while m < n:
                flags[m] = 0
                m += p
        p += 1
    count = 0
    for f in flags:
        count += f
    print(count)
`, limit)
	return Program{Name: "sieve", Source: src, Want: fmt.Sprintf("%d\n", primesBelow(limit, 1))}
}

func mandelbrot(w, h, maxit int) Program {
	src := fmt.Sprintf(`# sequential Mandelbrot: real arithmetic in a triple loop
def main():
    w = %d
    h = %d
    total = 0
    row = 0
    while row < h:
        cy = -1.0 + 2.0 * row / h
        col = 0
        while col < w:
            cx = -2.0 + 3.0 * col / w
            x = 0.0
            y = 0.0
            it = 0
            while it < %d and x * x + y * y <= 4.0:
                t = x * x - y * y + cx
                y = 2.0 * x * y + cy
                x = t
                it += 1
            total += it
            col += 1
        row += 1
    print(total)
`, w, h, maxit)
	// The explicit float64 conversions forbid fused multiply-add, so the
	// reference rounds exactly like the engines do.
	total := 0
	for row := 0; row < h; row++ {
		cy := -1.0 + float64(2.0*float64(row))/float64(h)
		for col := 0; col < w; col++ {
			cx := -2.0 + float64(3.0*float64(col))/float64(w)
			x, y, it := 0.0, 0.0, 0
			for it < maxit && float64(x*x)+float64(y*y) <= 4.0 {
				t := float64(x*x) - float64(y*y) + cx
				y = float64(float64(2.0*x)*y) + cy
				x = t
				it++
			}
			total += it
		}
	}
	return Program{Name: "mandelbrot", Source: src, Want: fmt.Sprintf("%d\n", total)}
}

// primesSeq is trial division with the test inlined: the same arithmetic
// as the paper's primes program, without a call per candidate.
func primesSeq(limit int) Program {
	src := fmt.Sprintf(`# sequential primes by trial division, no calls
def main():
    count = 0
    n = 2
    while n < %d:
        isp = 1
        if n %% 2 == 0:
            if n != 2:
                isp = 0
        else:
            i = 3
            while i * i <= n:
                if n %% i == 0:
                    isp = 0
                    break
                i += 2
        count += isp
        n += 1
    print(count)
`, limit)
	return Program{Name: "primes_seq", Source: src, Want: fmt.Sprintf("%d\n", primesBelow(limit, 1))}
}

func fib(n int) Program {
	src := fmt.Sprintf(`def fib(n int) int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def main():
    print(fib(%d))
`, n)
	a, b := 0, 1
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return Program{Name: "fib", Source: src, Want: fmt.Sprintf("%d\n", a)}
}

// callLoop makes two user-level calls per iteration through inline-cached
// sites and almost nothing else.
func callLoop(name string, n, start int) Program {
	src := fmt.Sprintf(`def step(x int) int:
    return x + 1

def twice(x int) int:
    return step(step(x))

def main():
    i = 0
    s = %d
    while i < %d:
        s = twice(s) %% %d
        i = i + 1
    print(s)
`, start, n, arithMod)
	s := start
	for i := 0; i < n; i++ {
		s = (s + 2) % arithMod
	}
	return Program{Name: name, Source: src, Want: fmt.Sprintf("%d\n", s)}
}

const (
	lcgMul = 1103515245
	lcgAdd = 12345
	lcgMod = 2147483648
)

// lcgTetra is the Tetra text that fills array a with n pseudo-random
// ints below bound; lcgFill is its Go twin.
func lcgTetra(n, start, bound int) string {
	return fmt.Sprintf(`    n = %d
    a = range(n)
    x = %d
    i = 0
    while i < n:
        x = (x * %d + %d) %% %d
        a[i] = x %% %d
        i += 1
`, n, start, lcgMul, lcgAdd, lcgMod, bound)
}

func lcgFill(n, start, bound int) []int {
	a := make([]int, n)
	x := start
	for i := range a {
		x = (x*lcgMul + lcgAdd) % lcgMod
		a[i] = x % bound
	}
	return a
}

func quicksort(n int, seed int64) Program {
	start := newRNG(seed, "quicksort").between(1, lcgMod-1)
	src := `# recursive quicksort of seeded ints
def qsort(a [int], lo int, hi int):
    if lo >= hi:
        return
    p = a[(lo + hi) / 2]
    i = lo
    j = hi
    while i <= j:
        while a[i] < p:
            i += 1
        while a[j] > p:
            j -= 1
        if i <= j:
            t = a[i]
            a[i] = a[j]
            a[j] = t
            i += 1
            j -= 1
    qsort(a, lo, j)
    qsort(a, i, hi)

def main():
` + lcgTetra(n, start, 1000000) + `    qsort(a, 0, n - 1)
    acc = 0
    i = 0
    while i < n:
        acc = (acc + a[i] * (i % 7 + 1)) % 1000000007
        i += 1
    print(acc)
`
	a := lcgFill(n, start, 1000000)
	sort.Ints(a)
	acc := 0
	for i, v := range a {
		acc = (acc + v*(i%7+1)) % 1000000007
	}
	return Program{Name: "quicksort", Source: src, Want: fmt.Sprintf("%d\n", acc)}
}

func gcdSweep(k int, seed int64) Program {
	off := newRNG(seed, "gcd").between(1000, 9999)
	src := fmt.Sprintf(`# recursive gcd over a k*k grid
def gcd(a int, b int) int:
    if b == 0:
        return a
    return gcd(b, a %% b)

def main():
    total = 0
    a = 1
    while a <= %d:
        b = 1
        while b <= %d:
            total += gcd(a + %d, b)
            b += 1
        a += 1
    print(total)
`, k, k, off)
	total := 0
	for a := 1; a <= k; a++ {
		for b := 1; b <= k; b++ {
			x, y := a+off, b
			for y != 0 {
				x, y = y, x%y
			}
			total += x
		}
	}
	return Program{Name: "gcd_sweep", Source: src, Want: fmt.Sprintf("%d\n", total)}
}

// primesParallel is the paper's first evaluation program: trial-division
// prime counting, the range cut into one chunk per worker.
func primesParallel(limit, workers int) Program {
	src := fmt.Sprintf(`# count primes below a limit with trial division, in parallel
def is_prime(n int) bool:
    if n < 2:
        return false
    if n %% 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n %% i == 0:
            return false
        i += 2
    return true

def count_range(lo int, hi int) int:
    count = 0
    n = lo
    while n < hi:
        if is_prime(n):
            count += 1
        n += 1
    return count

def count_primes(limit int, workers int) int:
    counts = range(workers)
    chunk = limit / workers + 1
    parallel for w in counts:
        counts[w] = count_range(w * chunk, min(limit, (w + 1) * chunk))
    total = 0
    for c in counts:
        total += c
    return total

def main():
    print(count_primes(%d, %d))
`, limit, workers)
	return Program{
		Name:   fmt.Sprintf("primes_w%d", workers),
		Source: src,
		Want:   fmt.Sprintf("%d\n", primesBelow(limit, workers)),
	}
}

// primesBelow is the native-Go reference for every prime-counting
// program: the same trial division over the same chunks.
func primesBelow(limit, workers int) int {
	counts := make([]int, workers)
	chunk := limit/workers + 1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hi := min(limit, (w+1)*chunk)
			for n := w * chunk; n < hi; n++ {
				if isPrime(n) {
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for i := 3; i*i <= n; i += 2 {
		if n%i == 0 {
			return false
		}
	}
	return true
}

// tspCities are fixed, not seeded: branch-and-bound work depends on the
// instance, and a benchmark whose work moves with the seed cannot be
// compared across seeds.
func tspCities(n int) (xs, ys []float64) {
	state := uint64(0x2545F4914F6CDD1D)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64((state>>33)%10000) / 100.0
	}
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = next(), next()
	}
	return xs, ys
}

// tspParallel is the paper's second evaluation program: exact TSP by
// branch-and-bound, first-hop branches dealt round-robin to workers that
// share the best bound under a lock (the paper's Figure III pattern).
func tspParallel(n, workers int) Program {
	xs, ys := tspCities(n)
	list := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprintf("%.2f", v)
		}
		return strings.Join(parts, ", ")
	}
	src := fmt.Sprintf(`# exact TSP by branch-and-bound, parallel over first-hop branches
def dist(xs [real], ys [real], i int, j int) real:
    dx = xs[i] - xs[j]
    dy = ys[i] - ys[j]
    return sqrt(dx * dx + dy * dy)

def search(xs [real], ys [real], visited [int], bound [real], current int, count int, cost real):
    if cost >= bound[0]:
        return
    n = len(xs)
    if count == n:
        total = cost + dist(xs, ys, current, 0)
        if total < bound[0]:
            lock best:
                if total < bound[0]:
                    bound[0] = total
        return
    i = 1
    while i < n:
        if visited[i] == 0:
            visited[i] = 1
            search(xs, ys, visited, bound, i, count + 1, cost + dist(xs, ys, current, i))
            visited[i] = 0
        i += 1

def worker(xs [real], ys [real], bound [real], w int, p int):
    n = len(xs)
    fc = 1 + w
    while fc < n:
        visited = range(n)
        i = 0
        while i < n:
            visited[i] = 0
            i += 1
        visited[0] = 1
        visited[fc] = 1
        search(xs, ys, visited, bound, fc, 2, dist(xs, ys, 0, fc))
        fc += p

def solve(xs [real], ys [real], workers int) real:
    bound = [1e18]
    parallel for w in range(workers):
        worker(xs, ys, bound, w, workers)
    return bound[0]

def main():
    xs = [%s]
    ys = [%s]
    print(floor(solve(xs, ys, %d) + 0.5))
`, list(xs), list(ys), workers)
	return Program{
		Name:   fmt.Sprintf("tsp_w%d", workers),
		Source: src,
		Want:   fmt.Sprintf("%d\n", int64(math.Floor(tspNative(n, workers)+0.5))),
	}
}

// tspNative solves the same instance in Go with the same search order.
func tspNative(n, workers int) float64 {
	xs, ys := tspCities(n)
	dist := func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return math.Sqrt(dx*dx + dy*dy)
	}
	var bound atomic.Uint64
	bound.Store(math.Float64bits(1e18))
	var mu sync.Mutex
	load := func() float64 { return math.Float64frombits(bound.Load()) }
	var search func(visited []bool, current, count int, cost float64)
	search = func(visited []bool, current, count int, cost float64) {
		if cost >= load() {
			return
		}
		if count == n {
			if total := cost + dist(current, 0); total < load() {
				mu.Lock()
				if total < load() {
					bound.Store(math.Float64bits(total))
				}
				mu.Unlock()
			}
			return
		}
		for i := 1; i < n; i++ {
			if !visited[i] {
				visited[i] = true
				search(visited, i, count+1, cost+dist(current, i))
				visited[i] = false
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for fc := 1 + w; fc < n; fc += workers {
				visited := make([]bool, n)
				visited[0], visited[fc] = true, true
				search(visited, fc, 2, dist(0, fc))
			}
		}(w)
	}
	wg.Wait()
	return load()
}

// parforTiny is many logical threads with almost no work each, so chunk
// claiming and per-iteration thread bookkeeping are what is timed.
func parforTiny(n, inner int) Program {
	// The body is a call because only a function's locals are private to
	// a thread; variables assigned inside the loop body would be shared.
	src := fmt.Sprintf(`# parallel for with many tiny iterations, disjoint writes
def cell(i int, inner int) int:
    s = 0
    k = 0
    while k < inner:
        s += (i + k) %% 7
        k += 1
    return s

def main():
    out = range(%d)
    parallel for i in range(%d):
        out[i] = cell(i, %d)
    total = 0
    for v in out:
        total += v
    print(total)
`, n, n, inner)
	total := 0
	for i := 0; i < n; i++ {
		for k := 0; k < inner; k++ {
			total += (i + k) % 7
		}
	}
	return Program{Name: "parfor_tiny", Source: src, Want: fmt.Sprintf("%d\n", total)}
}

// fanOut spawns and joins four threads per round through a `parallel:`
// block.
func fanOut(rounds, work int) Program {
	src := fmt.Sprintf(`# parallel block fan-out: four children per round, joined each time
def burn(out [int], slot int, n int):
    s = 0
    k = 0
    while k < n:
        s += k %% 5
        k += 1
    out[slot] += s

def main():
    out = [0, 0, 0, 0]
    r = 0
    while r < %d:
        parallel:
            burn(out, 0, %d)
            burn(out, 1, %d)
            burn(out, 2, %d)
            burn(out, 3, %d)
        r += 1
    print(out[0] + out[1] + out[2] + out[3])
`, rounds, work, work+1, work+2, work+3)
	total := 0
	for slot := 0; slot < 4; slot++ {
		for k := 0; k < work+slot; k++ {
			total += k % 5
		}
	}
	return Program{Name: "fan_out", Source: src, Want: fmt.Sprintf("%d\n", total*rounds)}
}

// lockedMax is the paper's Figure III: every thread takes the same named
// lock, so the lock table and its wait queue do the work.
func lockedMax(n int, seed int64) Program {
	start := newRNG(seed, "lockedmax").between(1, lcgMod-1)
	src := `# parallel max under one contended lock
def main():
` + lcgTetra(n, start, 1000000) + `    best = [0]
    parallel for v in a:
        lock maxlock:
            if v > best[0]:
                best[0] = v
    print(best[0])
`
	best := 0
	for _, v := range lcgFill(n, start, 1000000) {
		best = max(best, v)
	}
	return Program{Name: "locked_max", Source: src, Want: fmt.Sprintf("%d\n", best)}
}
