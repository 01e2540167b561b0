package interp

import (
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/value"
)

// Regression tests for the memory-safety contract: deliberately racy Tetra
// programs — the ones students write on day one — must never corrupt the
// interpreter or trip Go's race detector when this package's tests run
// under -race. Tetra-level symptoms (lost updates) are allowed; Go-level
// races are not.

func TestRacyScalarVariableIsGoSafe(t *testing.T) {
	// Unlocked read-modify-write on a shared int variable (the classic
	// broken counter). Result is nondeterministic in Tetra terms but the
	// run must complete cleanly and yield an int in [1, 64].
	src := `def main():
    count = 0
    parallel for i in range(64):
        count += 1
    print(count)
`
	for rep := 0; rep < 5; rep++ {
		got := strings.TrimSpace(run(t, src, ""))
		n := int64(0)
		for _, ch := range got {
			n = n*10 + int64(ch-'0')
		}
		if n < 1 || n > 64 {
			t.Fatalf("count = %q out of range", got)
		}
	}
}

func TestRacyScalarArrayElementIsGoSafe(t *testing.T) {
	// All threads hammer the same int element without a lock: the word
	// storage makes this atomic at the Go level, so no torn values — the
	// final element is one of the written values.
	src := `def main():
    cell = [0]
    parallel for i in [1 .. 32]:
        cell[0] = i * 1000
    v = cell[0]
    ok = v >= 1000 and v <= 32000 and v % 1000 == 0
    print(ok)
`
	for rep := 0; rep < 5; rep++ {
		if got := run(t, src, ""); got != "true\n" {
			t.Fatalf("output = %q", got)
		}
	}
}

func TestRacyRealArrayElementIsGoSafe(t *testing.T) {
	// Reals are 8-byte bit patterns in the word storage; concurrent
	// unlocked writes must never produce a value that was not written.
	src := `def main():
    cell = [0.0]
    parallel for i in [1 .. 16]:
        cell[0] = 0.5
    print(cell[0])
`
	for rep := 0; rep < 5; rep++ {
		if got := run(t, src, ""); got != "0.5\n" {
			t.Fatalf("output = %q", got)
		}
	}
}

func TestFigure3UnlockedFirstCheckIsGoSafe(t *testing.T) {
	// The paper's own double-checked pattern reads `largest` without the
	// lock. Under -race this must be clean (a cell is one atomic word).
	src := `def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    print(max(range(200)))
`
	if got := run(t, src, ""); got != "199\n" {
		t.Errorf("output = %q", got)
	}
}

func TestSharedBoundPruningPattern(t *testing.T) {
	// The TSP benchmark's shared-bound idiom in miniature: unlocked reads
	// of bound[0], locked updates. Must be Go-safe and converge to the
	// true minimum.
	src := `def probe(bound [real], v real):
    if v < bound[0]:
        lock b:
            if v < bound[0]:
                bound[0] = v

def main():
    bound = [1e18]
    parallel for i in [1 .. 50]:
        probe(bound, 1000.0 - i)
    print(bound[0])
`
	if got := run(t, src, ""); got != "950.0\n" {
		t.Errorf("output = %q", got)
	}
}

func TestScalarArrayStorageKinds(t *testing.T) {
	// The word storage must reconstruct each scalar kind faithfully.
	ia := value.NewArrayOf(types.IntType, 2)
	ia.Set(0, value.NewInt(-7))
	if v := ia.Get(0); v.K != value.Int || v.Int() != -7 {
		t.Errorf("int storage: %+v", v)
	}
	ra := value.NewArrayOf(types.RealType, 1)
	ra.Set(0, value.NewReal(2.5))
	if v := ra.Get(0); v.K != value.Real || v.Real() != 2.5 {
		t.Errorf("real storage: %+v", v)
	}
	ba := value.NewArrayOf(types.BoolType, 1)
	ba.Set(0, value.NewBool(true))
	if v := ba.Get(0); v.K != value.Bool || !v.Bool() {
		t.Errorf("bool storage: %+v", v)
	}
	// Boxed storage for strings and nested arrays.
	sa := value.NewArrayOf(types.StringType, 1)
	sa.Set(0, value.NewString("x"))
	if v := sa.Get(0); v.K != value.Str || v.Str() != "x" {
		t.Errorf("string storage: %+v", v)
	}
	na := value.NewArrayOf(types.ArrayOf(types.IntType), 1)
	if v := na.Get(0); v.K != value.Arr || v.Array().Len() != 0 {
		t.Errorf("nested zero storage: %+v", v)
	}
}
