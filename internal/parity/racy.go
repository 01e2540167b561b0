package parity

// The racy corpus: programs whose threads race, with no lock, on one array
// element or one shared variable, storing values of different sizes in
// turn. A flat helper reads the racy place into a private variable and
// prints it only when it is none of the values the program stores, so a
// torn read — a string's length from one store and its bytes from another,
// say — prints, and a run that only loses updates prints the fixed last
// line alone. Each case races tens of thousands of times: at one run per
// engine, a tear that happens at all shows.

// racy is the corpus; cells marks the cases that race on shared variables
// only, not on array elements.
var racy = []struct {
	name, src string
	cells     bool
}{
	{name: "string_element", src: `def check(a [string], long string):
    x = a[0]
    if x != "s" and x != long:
        print(len(x), " [", x, "]")

def main():
    a = ["s"]
    long = "a long string of sixty four bytes, padded out to exactly 64 ok!!"
    parallel for i in [1 .. 20000]:
        check(a, long)
        if i % 2 == 0:
            a[0] = "s"
        else:
            a[0] = long
    check(a, long)
    print("done")
`},
	{name: "nested_element", src: `def check(a [[int]]):
    x = a[0]
    n = len(x)
    if n != 1 and n != 8:
        print("length ", n)
    elif x[n - 1] != n:
        print("last ", x[n - 1])

def main():
    a = [[1]]
    short = [1]
    long = [1, 2, 3, 4, 5, 6, 7, 8]
    parallel for i in [1 .. 20000]:
        check(a)
        if i % 2 == 0:
            a[0] = short
        else:
            a[0] = long
    print("done")
`},
	{name: "scalar_elements", src: `def check(a [int], r [real], b [bool]):
    x = a[0]
    if x != 1 and x != -1:
        print("int ", x)
    y = r[0]
    if y != 0.5 and y != -1.0e300:
        print("real ", y)
    z = b[0]
    if z != true and z != false:
        print("bool ", z)

def main():
    a = [1]
    r = [0.5]
    b = [true]
    parallel for i in [1 .. 20000]:
        check(a, r, b)
        if i % 2 == 0:
            a[0] = 1
            r[0] = 0.5
            b[0] = true
        else:
            a[0] = -1
            r[0] = -1.0e300
            b[0] = false
    print("done")
`},
	{name: "shared_string", cells: true, src: `def check(x string, long string):
    if x != "s" and x != long:
        print(len(x), " [", x, "]")

def main():
    s = "s"
    long = "a long string of sixty four bytes, padded out to exactly 64 ok!!"
    parallel for i in [1 .. 20000]:
        check(s, long)
        if i % 2 == 0:
            s = "s"
        else:
            s = long
    check(s, long)
    print("done")
`},
	{name: "shared_scalars", cells: true, src: `def main():
    count = 0
    total = 0.0
    parallel for i in [1 .. 20000]:
        count += 1
        total = total + 0.5
    if count < 1 or count > 20000:
        print("count ", count)
    if total < 0.5 or total > 10000.0:
        print("total ", total)
    print("done")
`},
}

// Racy returns the racy corpus as cases, each wanting "done" alone; with
// cellsOnly, only the cases that race on shared variables, which a native
// build runs too (a compiled program's array elements are not shared
// storage yet).
func Racy(cellsOnly bool) []Case {
	var cases []Case
	for _, r := range racy {
		if cellsOnly && !r.cells {
			continue
		}
		cases = append(cases, Case{Name: "racy_" + r.name, Src: r.src, Want: &Result{Stdout: "done\n"}})
	}
	return cases
}
