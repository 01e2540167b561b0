package interp_test

// Operator kernels at their edges, on every engine of the parity table
// (the interpreter and the VM at every level): int overflow, division
// and modulo by zero in a register and as a literal, negative operands,
// int/real mixing in every operator and every augmented assignment, and
// string operators, with a concatenation that trips the allocation budget
// at its operator. The interpreter dispatches each operator on the kernel
// the checker resolved it to; every expected result below is what the
// interpreter printed, error positions included, when it still asked its
// operands for their kinds at run time. The rows from int overflow before
// widening on were recorded on every engine while the VM still ran mixed
// operands untyped, before the compiler read the checker's kernel.

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/parity"
	"repro/internal/rt"
)

func TestKernelEdgesAgree(t *testing.T) {
	cases := []struct {
		name, src string
		maxAlloc  int64
		want      parity.Result
	}{
		{"int_overflow_wraps", `def main():
    big = 9223372036854775807
    least = -big - 1
    print(big + 1, " ", big * 2, " ", least - 1, " ", -least)
    print(least / -1, " ", least % -1)
    x = big
    x += 1
    print(x)
    x = least
    x -= 1
    x *= 3
    print(x)
`, 0, parity.Result{Stdout: "-9223372036854775808 -2 9223372036854775807 -9223372036854775808\n-9223372036854775808 0\n-9223372036854775808\n9223372036854775805\n", Err: ""}},
		{"div_by_zero_register", `def main():
    z = 0
    print(7 / z)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: division by zero"}},
		{"mod_by_zero_register", `def main():
    z = 0
    print(7 % z)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: modulo by zero"}},
		{"div_by_zero_literal", `def main():
    x = 7
    print(x / 0)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: division by zero"}},
		{"mod_by_zero_literal", `def main():
    x = 7
    print(x % 0)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: modulo by zero"}},
		{"real_div_by_int_zero", `def main():
    z = 0
    print(7.5 / z)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:15: runtime error: division by zero"}},
		{"real_mod_by_zero_literal", `def main():
    r = 7.5
    print(r % 0.0)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: modulo by zero"}},
		{"int_div_by_real_zero", `def main():
    z = 0.0
    print(7 / z)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: division by zero"}},
		{"augmented_div_by_zero", `def main():
    x = 7
    z = 0
    x /= z
    print(x)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:4:7: runtime error: division by zero"}},
		{"augmented_mod_by_zero_literal", `def main():
    x = 7
    x %= 0
    print(x)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:7: runtime error: modulo by zero"}},
		{"augmented_real_div_by_int_zero", `def main():
    r = 7.5
    r /= 0
    print(r)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:7: runtime error: division by zero"}},
		{"augmented_element_mod_by_zero", `def main():
    a = [7, 8]
    z = 0
    a[1] %= z
    print(a)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:4:10: runtime error: modulo by zero"}},
		{"negative_operands", `def main():
    a = -7
    b = 2
    print(a / b, " ", a % b, " ", 7 / -b, " ", 7 % -b, " ", a / -b, " ", a % -b)
    print(-7 / 2, " ", -7 % 2, " ", 7 / -2, " ", 7 % -2)
    r = -7.5
    print(r % 2.0, " ", 7.5 % -2.0, " ", r % -2, " ", 5 % 2.5, " ", r / 2, " ", 9 % -2.5)
`, 0, parity.Result{Stdout: "-3 -1 -3 1 3 -1\n-3 -1 -3 1\n-1.5 1.5 -1.5 0.0 -3.75 1.5\n", Err: ""}},
		{"int_real_mixing", `def main():
    i = 3
    r = 1.5
    print(i + r, " ", r + i, " ", i - r, " ", r - i, " ", i * r, " ", r * i, " ", i / r, " ", r / i, " ", i % r, " ", r % i)
    print(i < r, " ", r < i, " ", i <= r, " ", r <= i, " ", i > r, " ", r > i, " ", i >= r, " ", r >= i, " ", i == r, " ", r != i)
    two = 2
    print(two == 2.0, " ", 2.0 == two, " ", two != 2.0, " ", two <= 2.0, " ", 2.0 >= two, " ", two < 2.0)
    print(1 + 0.5, " ", 0.5 * 4, " ", 7 / 2.0, " ", 7.0 / 2, " ", 2 < 2.5, " ", 3 % 1.25)
`, 0, parity.Result{Stdout: "4.5 4.5 1.5 -1.5 4.5 4.5 2.0 0.5 0.0 1.5\nfalse true false true true false true false false true\ntrue true false true true false\n1.5 2.0 3.5 3.5 true 0.5\n", Err: ""}},
		{"augmented_int_real_mixing", `def main():
    x = 1.5
    x += 2
    print(x)
    x -= 1
    print(x)
    x *= 3
    print(x)
    x /= 2
    print(x)
    x %= 2
    print(x)
    a = [1.5, 2.5]
    a[0] += 2
    a[1] -= 1
    a[0] *= 3
    a[1] /= 2
    a[0] %= 4
    print(a)
    n = 7
    n += 2
    n -= 1
    n *= 3
    n /= 5
    n %= 3
    print(n)
`, 0, parity.Result{Stdout: "3.5\n2.5\n7.5\n3.75\n1.75\n[2.5, 0.75]\n1\n", Err: ""}},
		{"string_operators", `def main():
    s = "ab"
    t = "c"
    print(s + t, " ", s < t, " ", s <= t, " ", s > t, " ", s >= t, " ", s == t, " ", s != t)
    u = s
    u += t
    print(u, " ", u == s + t, " ", "" + "" == "", " ", s < s, " ", s <= s)
    w = ["x", "y"]
    w[0] += "z"
    print(w)
`, 0, parity.Result{Stdout: "abc true true false false false true\nabc true true false true\n[\"xz\", \"y\"]\n", Err: ""}},
		{"int_overflow_before_widening", `def main():
    big = 9223372036854775807
    print((big + 1) * 1.5, " ", big * 2 + 0.5)
    x = 1.5
    x *= big + 1
    print(x)
`, 0, parity.Result{Stdout: "-1.3835058055282164e+19 -1.5\n-1.3835058055282164e+19\n", Err: ""}},
		{"mixed_loop_condition", `def main():
    lim = 3.5
    i = 0
    while i < lim:
        i += 1
    print(i)
    r = 0.5
    n = 0
    while r <= 4:
        r = r * 2
        n += 1
    print(r, " ", n)
`, 0, parity.Result{Stdout: "4\n8.0 4\n", Err: ""}},
		{"real_div_by_zero_int_literal", `def main():
    r = 7.5
    print(r / 0)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: division by zero"}},
		{"real_mod_by_zero_int_literal", `def main():
    r = 7.5
    print(r % 0)
`, 0, parity.Result{Stdout: "", Err: "test.ttr:3:13: runtime error: modulo by zero"}},
		{"concatenation_trips_max_alloc", `def main():
    s = "0123456789"
    while true:
        s = s + s
`, 200, parity.Result{Stdout: "", Err: "test.ttr:4:15: runtime error: exceeded allocation budget (200 cells)"}},
		{"augmented_concatenation_trips_max_alloc", `def main():
    s = "0123456789"
    while true:
        s += s
`, 200, parity.Result{Stdout: "", Err: "test.ttr:4:11: runtime error: exceeded allocation budget (200 cells)"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parity.Agree(t, parity.Case{Name: c.name, File: "test.ttr", Src: c.src,
				Config: rt.Config{Limits: guard.Limits{MaxAllocCells: c.maxAlloc}}, Want: &c.want})
		})
	}
}
