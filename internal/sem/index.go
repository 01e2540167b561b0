package sem

// Indexing, length and iteration semantics. Tetra strings are sequences of
// Unicode characters: len, indexing and iteration count code points, not
// bytes (LANGUAGE.md §Strings), so "héllo" has length 5 on every backend.
// Indexing is Python-style: negative indices count from the end (-1 is the
// last element), on strings and arrays alike.

import (
	"unicode/utf8"

	"repro/internal/types"
	"repro/internal/value"
)

// RuneLen returns the number of Unicode code points in s.
func RuneLen(s string) int { return utf8.RuneCountInString(s) }

// RuneAt returns the 1-character string at character index i. Negative i
// counts from the end. ok is false when i is out of range after
// normalization.
func RuneAt(s string, i int64) (string, bool) {
	j := i
	if j < 0 {
		j += int64(RuneLen(s))
		if j < 0 {
			return "", false
		}
	}
	// Walk by decode width rather than utf8.RuneLen(r): an invalid byte
	// decodes to RuneError with width 1, but RuneError itself encodes in 3
	// bytes, so RuneLen would slice past the character (or the string).
	var k int64
	for idx := 0; idx < len(s); {
		_, w := utf8.DecodeRuneInString(s[idx:])
		if k == j {
			return s[idx : idx+w], true
		}
		idx += w
		k++
	}
	return "", false
}

// Runes returns the Unicode characters of s as 1-character strings — the
// element view `for`/`parallel for` iterate over. This raw form is what
// compiled programs use (gort.StrIter).
func Runes(s string) []string {
	out := make([]string, 0, utf8.RuneCountInString(s))
	for idx := 0; idx < len(s); {
		_, w := utf8.DecodeRuneInString(s[idx:])
		out = append(out, s[idx:idx+w])
		idx += w
	}
	return out
}

// RunesArray materializes s as a Tetra array of 1-character strings, for
// the value-level backends.
func RunesArray(s string) *value.Array {
	runes := Runes(s)
	elems := make([]value.Value, len(runes))
	for i, r := range runes {
		elems[i] = value.NewString(r)
	}
	return value.FromSlice(types.StringType, elems)
}

// NormIndex applies Python-style negative indexing against length n: a
// negative i counts from the end. The result may still be out of range
// (below -n or at/after n); callers bounds-check the returned index but
// report the original one.
func NormIndex(i, n int64) int64 {
	if i < 0 {
		return i + n
	}
	return i
}

// StringIndex returns the 1-character string s[i], counting Unicode
// characters with negative-index support, or the canonical out-of-range
// error.
func StringIndex(s string, i int64) (string, error) {
	ch, ok := RuneAt(s, i)
	if !ok {
		return "", ErrStringIndex(i, RuneLen(s))
	}
	return ch, nil
}

// ArrayIndex normalizes and bounds-checks i against a, returning the
// effective element index or the canonical out-of-range error (which
// reports the index the program wrote, not the normalized one).
func ArrayIndex(a *value.Array, i int64) (int, error) {
	j := NormIndex(i, int64(a.Len()))
	if j < 0 || j >= int64(a.Len()) {
		return 0, ErrArrayIndex(i, a.Len())
	}
	return int(j), nil
}

// Index evaluates x[i] for array or string x.
func Index(x value.Value, i int64) (value.Value, error) {
	if x.K == value.Str {
		ch, err := StringIndex(x.Str(), i)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewString(ch), nil
	}
	j, err := ArrayIndex(x.Array(), i)
	if err != nil {
		return value.Value{}, err
	}
	return x.Array().Get(j), nil
}

// SetIndex evaluates x[i] = v. Strings are immutable; assigning to a
// string index is the canonical runtime error.
func SetIndex(x value.Value, i int64, v value.Value) error {
	if x.K == value.Str {
		return ErrImmutableStr
	}
	j, err := ArrayIndex(x.Array(), i)
	if err != nil {
		return err
	}
	x.Array().Set(j, v)
	return nil
}

// Elements returns the sequence a for/parallel-for loop iterates over:
// arrays iterate themselves; strings materialize their Unicode characters
// once up front, so iteration never splits a multi-byte character.
func Elements(seq value.Value) *value.Array {
	if seq.K == value.Str {
		return RunesArray(seq.Str())
	}
	return seq.Array()
}

// Length is the len builtin's rule: arrays count elements, strings count
// Unicode characters.
func Length(v value.Value) int64 {
	if v.K == value.Arr {
		return int64(v.Array().Len())
	}
	return int64(RuneLen(v.Str()))
}

// maxRangeElems bounds range materialization on every backend.
const maxRangeElems = 1 << 28

// span returns hi - lo for lo <= hi. The difference of two int64s needs 65
// bits, so it is taken unsigned: a signed subtraction wraps negative for
// bounds far enough apart, which read as an empty range.
func span(lo, hi int64) uint64 { return uint64(hi) - uint64(lo) }

// RangeLen validates the inclusive range literal [lo .. hi] and returns
// its element count (0 when hi < lo), or the canonical too-large error.
func RangeLen(lo, hi int64) (int64, error) {
	if hi < lo {
		return 0, nil
	}
	d := span(lo, hi) // one less than the count, which may itself not fit
	if d >= maxRangeElems {
		return 0, Errf("range [%d .. %d] too large", lo, hi)
	}
	return int64(d) + 1, nil
}

// RangeNLen validates the range builtin's half-open [lo, hi) and returns
// its element count, or the canonical too-large error (the builtin reports
// element count, the literal reports its bounds — both worded here).
func RangeNLen(lo, hi int64) (int64, error) {
	if hi < lo {
		return 0, nil
	}
	n := span(lo, hi)
	if n > maxRangeElems {
		return 0, Errf("range too large (%d elements)", n)
	}
	return int64(n), nil
}
