package sem

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// FuzzArithKernels cross-checks the two faces of division and modulo
// against each other on fuzzer-chosen operands: the value-level Arith
// kernel (interpreter and VM) and the scalar kernels
// DivInt/ModInt/DivReal/ModReal (compiled runtime) must agree on both
// results and error identity. This is the property the differential
// harness checks end-to-end through real programs; the fuzz target checks
// it at the kernel boundary where the state space is cheap to explore.
func FuzzArithKernels(f *testing.F) {
	f.Add(uint8(0), int64(7), int64(3), 1.5, 2.5, false)
	f.Add(uint8(3), int64(1), int64(0), 1.0, 0.0, false)
	f.Add(uint8(4), int64(-7), int64(3), -7.5, 2.0, true)
	f.Add(uint8(10), int64(1)<<62, int64(-1), 1e300, -1e-300, true)
	f.Fuzz(func(t *testing.T, opRaw uint8, ai, bi int64, ar, br float64, useReal bool) {
		op := Div + Op(opRaw%2)
		var l, r value.Value
		if useReal {
			l, r = value.NewReal(ar), value.NewReal(br)
		} else {
			l, r = value.NewInt(ai), value.NewInt(bi)
		}

		run, runErr := Arith(op, l, r)

		var kv value.Value
		var kerr error
		if useReal {
			var got float64
			if op == Div {
				got, kerr = DivReal(ar, br)
			} else {
				got, kerr = ModReal(ar, br)
			}
			kv = value.NewReal(got)
		} else {
			var got int64
			if op == Div {
				got, kerr = DivInt(ai, bi)
			} else {
				got, kerr = ModInt(ai, bi)
			}
			kv = value.NewInt(got)
		}
		if (kerr == nil) != (runErr == nil) {
			t.Fatalf("kernel/value error disagreement for %s: kernel=%v value=%v", op, kerr, runErr)
		}
		if kerr != nil {
			if kerr.Error() != runErr.Error() {
				t.Fatalf("error wording disagreement: kernel=%q value=%q", kerr.Error(), runErr.Error())
			}
		} else if kv.B != run.B {
			t.Fatalf("kernel %s = %s, value-level = %s", op, kv, run)
		}
	})
}

// FuzzStringIndex cross-checks rune indexing against the Runes
// materialization and the scalar StrLen rule on fuzzer-chosen strings:
// s[i] must equal Runes(s)[norm(i)] whenever either succeeds, and
// out-of-range errors must report the written index and the rune length.
func FuzzStringIndex(f *testing.F) {
	f.Add("", int64(0))
	f.Add("héllo", int64(-5))
	f.Add("日本語", int64(2))
	f.Add("a\xffb", int64(1)) // invalid UTF-8 byte must not split or crash
	f.Fuzz(func(t *testing.T, s string, i int64) {
		n := int64(RuneLen(s))
		runes := Runes(s)
		if int64(len(runes)) != n {
			t.Fatalf("Runes length %d != RuneLen %d for %q", len(runes), n, s)
		}

		got, err := StringIndex(s, i)
		j := NormIndex(i, n)
		if j >= 0 && j < n {
			if err != nil {
				t.Fatalf("StringIndex(%q, %d) errored %v, in range (len %d)", s, i, err, n)
			}
			if got != runes[j] {
				t.Fatalf("StringIndex(%q, %d) = %q, Runes[%d] = %q", s, i, got, j, runes[j])
			}
		} else {
			if err == nil {
				t.Fatalf("StringIndex(%q, %d) succeeded, out of range (len %d)", s, i, n)
			}
			want := ErrStringIndex(i, int(n)).Error()
			if err.Error() != want {
				t.Fatalf("error %q, want %q", err.Error(), want)
			}
		}

		// Iteration must never split or rewrite a character: rejoining the
		// runes reproduces the original string exactly, even around
		// invalid UTF-8 bytes (each one iterates as its own raw byte).
		if joined := strings.Join(runes, ""); joined != s {
			t.Fatalf("Runes(%q) rejoined = %q", s, joined)
		}
	})
}
