package sem

// Builtin kernels: the pure computational core of the standard library,
// shared by the interpreted backends (internal/stdlib dispatches on
// value.Value) and compiled programs (which call the kernels that cannot
// fail directly, and the others through internal/gort's raising wrappers).
// I/O (read_*/print plumbing) stays in the dispatch layers;
// everything that could drift — parsing, bounds rules, error wording,
// formatting — lives here.

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/value"
)

// ---- arithmetic kernels over raw machine types (compiled programs) ----

// DivInt is Tetra integer division.
func DivInt(a, b int64) (int64, error) {
	if b == 0 {
		return 0, ErrDivisionByZero
	}
	return a / b, nil
}

// ModInt is Tetra integer modulo.
func ModInt(a, b int64) (int64, error) {
	if b == 0 {
		return 0, ErrModuloByZero
	}
	return a % b, nil
}

// DivReal is Tetra real division; it raises on a zero divisor just like
// integer division, so every backend reports the same error instead of
// producing inf.
func DivReal(a, b float64) (float64, error) {
	if b == 0 {
		return 0, ErrDivisionByZero
	}
	return a / b, nil
}

// ModReal is Tetra real modulo.
func ModReal(a, b float64) (float64, error) {
	if b == 0 {
		return 0, ErrModuloByZero
	}
	return math.Mod(a, b), nil
}

// ---- formatting ----

// FormatInt renders an int the way Tetra's print does.
func FormatInt(v int64) string { return strconv.FormatInt(v, 10) }

// FormatReal renders a real the way Tetra's print does: shortest
// representation with ".0" appended to integral values. The single
// implementation lives in the representation layer (value.Value.String
// renders array elements with it); sem re-exports it as the canonical
// entry point.
func FormatReal(f float64) string { return value.FormatReal(f) }

// FormatBool renders a bool the way Tetra's print does.
func FormatBool(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// QuoteString renders a string as an array element (quoted).
func QuoteString(s string) string { return strconv.Quote(s) }

// ---- conversions ----

// ParseInt implements to_int on strings.
func ParseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, Errf("to_int: cannot parse %q", s)
	}
	return v, nil
}

// ParseReal implements to_real on strings.
func ParseReal(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, Errf("to_real: cannot parse %q", s)
	}
	return v, nil
}

// ParseBool is the read_bool acceptance rule. ok is false when s is not a
// recognized spelling.
func ParseBool(s string) (v, ok bool) {
	switch strings.ToLower(s) {
	case "true", "1", "yes":
		return true, true
	case "false", "0", "no":
		return false, true
	}
	return false, false
}

// ErrReadBool is read_bool's canonical rejection error for an
// unrecognized spelling.
func ErrReadBool(s string) *Error { return Errf("read_bool: cannot parse %q", s) }

// realToInt converts whole, the rounding of fn's argument arg, to an int.
// Go leaves the conversion of a real that does not fit implementation-
// defined, so NaN, the infinities and anything outside [-2^63, 2^63) — both
// bounds are exact reals — are a runtime error, worded here once.
func realToInt(fn string, arg, whole float64) (int64, error) {
	if whole >= -1<<63 && whole < 1<<63 {
		return int64(whole), nil
	}
	return 0, Errf("%s: real %s out of int range", fn, FormatReal(arg))
}

// TruncReal implements to_int on reals (truncation toward zero).
func TruncReal(f float64) (int64, error) { return realToInt("to_int", f, f) }

// BoolToInt implements to_int on bools.
func BoolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---- math kernels ----

// Floor implements floor (→ int).
func Floor(v float64) (int64, error) { return realToInt("floor", v, math.Floor(v)) }

// Ceil implements ceil (→ int).
func Ceil(v float64) (int64, error) { return realToInt("ceil", v, math.Ceil(v)) }

// AbsInt implements abs on ints.
func AbsInt(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// AbsReal implements abs on reals.
func AbsReal(v float64) float64 { return math.Abs(v) }

// Real math builtins. Trivial today, but routed through sem so a future
// change (e.g. domain errors on sqrt of a negative) lands on every backend
// at once.
func Sqrt(v float64) float64   { return math.Sqrt(v) }
func Sin(v float64) float64    { return math.Sin(v) }
func Cos(v float64) float64    { return math.Cos(v) }
func Tan(v float64) float64    { return math.Tan(v) }
func Exp(v float64) float64    { return math.Exp(v) }
func Log(v float64) float64    { return math.Log(v) }
func Pow(a, b float64) float64 { return math.Pow(a, b) }

// MinInts/MaxInts/MinReals/MaxReals implement min/max for compiled
// programs, where the checker has already resolved the result kind.
func MinInts(vs ...int64) int64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

func MaxInts(vs ...int64) int64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

func MinReals(vs ...float64) float64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

func MaxReals(vs ...float64) float64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// ---- string kernels ----

// Substring implements substring over byte offsets with the canonical
// bounds error.
func Substring(s string, lo, hi int64) (string, error) {
	if lo < 0 || hi > int64(len(s)) || lo > hi {
		return "", Errf("substring: bounds [%d, %d) out of range for string of length %d", lo, hi, len(s))
	}
	return s[lo:hi], nil
}

// Find implements find (byte index of the first occurrence, -1 if absent).
func Find(s, sub string) int64 { return int64(strings.Index(s, sub)) }

// Split implements split: an empty separator splits on whitespace fields.
func Split(s, sep string) []string {
	if sep == "" {
		return strings.Fields(s)
	}
	return strings.Split(s, sep)
}

// Join implements join.
func Join(parts []string, sep string) string { return strings.Join(parts, sep) }

// Trim implements trim.
func Trim(s string) string { return strings.TrimSpace(s) }

// maxRepeat bounds repeat's count, maxRepeatBytes the string one call
// builds: a count within range times a long string is as large as a count
// out of it.
const (
	maxRepeat      = 1 << 24
	maxRepeatBytes = 1 << 30
)

// RepeatLen validates repeat(s, n) and returns the bytes it builds, so a
// backend can charge them before they exist (as RangeNLen does for range).
// The bound is taken by division: the product itself may not fit.
func RepeatLen(s string, n int64) (int64, error) {
	if n < 0 || n > maxRepeat {
		return 0, Errf("repeat: count %d out of range", n)
	}
	if n > 0 && int64(len(s)) > maxRepeatBytes/n {
		return 0, Errf("repeat: %d copies of a %d-byte string is too large", n, len(s))
	}
	return n * int64(len(s)), nil
}

// Repeat implements repeat with the canonical count and size guards.
func Repeat(s string, n int64) (string, error) {
	if _, err := RepeatLen(s, n); err != nil {
		return "", err
	}
	return strings.Repeat(s, int(n)), nil
}

// Reverse implements reverse (by Unicode characters, not bytes).
func Reverse(s string) string {
	runes := []rune(s)
	for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
		runes[i], runes[j] = runes[j], runes[i]
	}
	return string(runes)
}

func ToUpper(s string) string          { return strings.ToUpper(s) }
func ToLower(s string) string          { return strings.ToLower(s) }
func StartsWith(s, prefix string) bool { return strings.HasPrefix(s, prefix) }
func EndsWith(s, suffix string) bool   { return strings.HasSuffix(s, suffix) }
func Contains(s, sub string) bool      { return strings.Contains(s, sub) }
