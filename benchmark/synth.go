package main

import (
	"fmt"
	"strings"
)

// synthKinds are the function templates the compile corpus is built
// from; each exercises another part of the front end and the bytecode
// compiler. Every instance gets a unique suffix k and seeded constants.
var synthKinds = []func(k int, r *rng) (def, call string){
	func(k int, r *rng) (string, string) { // loops and branches
		return fmt.Sprintf(`def loop_%d(n int) int:
    s = 0
    i = 0
    while i < n:
        if i %% %d == 0:
            s += i * %d
        else:
            s -= 1
        i += 1
    return s
`, k, r.between(2, 7), r.between(2, 99)), fmt.Sprintf("loop_%d(%d)", k, r.between(10, 40))
	},
	func(k int, r *rng) (string, string) { // arrays and builtins
		return fmt.Sprintf(`def arr_%d(n int) int:
    a = range(n)
    for i in range(n):
        a[i] = (i * %d + %d) %% 97
    b = sort(a)
    t = 0
    for v in b:
        t += v
    return t + b[0] + len(a)
`, k, r.between(3, 50), r.between(1, 90)), fmt.Sprintf("arr_%d(%d)", k, r.between(5, 20))
	},
	func(k int, r *rng) (string, string) { // strings
		return fmt.Sprintf(`def str_%d(w string) string:
    s = to_upper(w) + "-" + reverse(w)
    parts = split(s, "-")
    r = join(parts, "+")
    if contains(r, "W") and len(r) > 3:
        r = r + to_string(len(parts))
    return substring(r, 0, min(len(r), %d))
`, k, r.between(4, 12)), fmt.Sprintf("str_%d(\"w%dx\")", k, r.between(10, 99))
	},
	func(k int, r *rng) (string, string) { // recursion
		return fmt.Sprintf(`def rec_%d(n int) int:
    if n < 2:
        return n + %d
    return rec_%d(n - 1) + rec_%d(n - 2) %% %d
`, k, r.between(1, 9), k, k, r.between(11, 99)), fmt.Sprintf("rec_%d(%d)", k, r.between(5, 9))
	},
	func(k int, r *rng) (string, string) { // parallel block
		return fmt.Sprintf(`def par_%d(n int) int:
    out = [0, 0, 0]
    parallel:
        out[0] = n * %d
        out[1] = n + %d
        out[2] = n %% 5
    return out[0] + out[1] + out[2]
`, k, r.between(2, 30), r.between(1, 500)), fmt.Sprintf("par_%d(%d)", k, r.between(1, 99))
	},
	func(k int, r *rng) (string, string) { // parallel for under a named lock
		return fmt.Sprintf(`def lck_%d(n int) int:
    total = [0]
    parallel for i in range(n):
        lock lk_%d:
            total[0] += i * %d
    return total[0]
`, k, k, r.between(2, 9)), fmt.Sprintf("lck_%d(%d)", k, r.between(3, 8))
	},
}

// synthProgram builds a program of rounds*len(synthKinds) functions. The
// number of instances of each kind is fixed, so compile work does not
// move with the seed; the seed picks their order and constants.
func synthProgram(name string, rounds int, seed int64) Program {
	r := newRNG(seed, name)
	n := rounds * len(synthKinds)
	order := make([]int, n)
	for i := range order {
		order[i] = i % len(synthKinds)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	var defs, main strings.Builder
	fmt.Fprintf(&defs, "# synthesised program: %d functions\n", n)
	main.WriteString("def main():\n")
	for k, kind := range order {
		def, call := synthKinds[kind](k, r)
		defs.WriteString(def)
		defs.WriteString("\n")
		fmt.Fprintf(&main, "    print(%s)\n", call)
	}
	return Program{Name: name, Source: defs.String() + main.String()}
}
