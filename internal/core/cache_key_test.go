package core

import (
	"testing"

	"repro/internal/bytecode"
)

// TestCacheKeyIdentity: the exported routing key must separate every axis
// the compile cache separates — file name, source text and optimization
// level — and nothing else: repeated derivation is stable.
func TestCacheKeyIdentity(t *testing.T) {
	base := CacheKey("a.ttr", "def main():\n    print(1)\n", 2)
	if base == "" {
		t.Fatal("empty key")
	}
	if again := CacheKey("a.ttr", "def main():\n    print(1)\n", 2); again != base {
		t.Errorf("key not stable: %q then %q", base, again)
	}
	for name, other := range map[string]string{
		"file":  CacheKey("b.ttr", "def main():\n    print(1)\n", 2),
		"src":   CacheKey("a.ttr", "def main():\n    print(2)\n", 2),
		"level": CacheKey("a.ttr", "def main():\n    print(1)\n", 0),
	} {
		if other == base {
			t.Errorf("key ignores the %s axis", name)
		}
	}
}

// TestCacheKeyCarriesIRVersion pins the derivation to the bytecode IR
// version: the key must be derived from the same triple the cache's
// bytecode table is keyed by, so an IR bump re-shards a router exactly
// like it invalidates cached bytecode. The golden below was recorded under
// cacheKeyGoldenIR; bumping bytecode.IRVersion must move the key, so the
// golden is then stale and this test fails until both constants are
// re-recorded together.
func TestCacheKeyCarriesIRVersion(t *testing.T) {
	got := CacheKey("p.ttr", "def main():\n    print(6 * 7)\n", 2)
	if bytecode.IRVersion != cacheKeyGoldenIR {
		if got == cacheKeyGolden {
			t.Errorf("IRVersion went from %d to %d and the cache key did not move", cacheKeyGoldenIR, bytecode.IRVersion)
		}
		t.Fatalf("golden recorded under IRVersion %d, current %d: record cacheKeyGolden = %q and cacheKeyGoldenIR = %d",
			cacheKeyGoldenIR, bytecode.IRVersion, got, bytecode.IRVersion)
	}
	if got != cacheKeyGolden {
		t.Errorf("CacheKey golden drifted: got %s, want %s (did the key derivation change?)", got, cacheKeyGolden)
	}
}

// cacheKeyGolden is the recorded CacheKey("p.ttr", "def main():\n    print(6 * 7)\n", 2)
// under IRVersion cacheKeyGoldenIR. Under IRVersion 3 it was
// 0e1715a0dd67c3b50b12f2fad04fea73, under 4 e106c9452142ef0cb68e1519715061c5,
// under 5 9261cb5885e43363ce3afe14e8dae7e8, under 6
// c78e3086535aa86e67e7316c480c929b.
const (
	cacheKeyGolden   = "16384a419355408f4f9e06eef9f6d590"
	cacheKeyGoldenIR = 7
)
