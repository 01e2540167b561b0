package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/bytecode"
)

// CompileCache memoizes the front half of the pipeline so repeated runs of
// the same source — a student re-running a benchmark, a grader executing
// the same submission on several inputs, an embedder calling the same
// program in a loop — skip parse, check and bytecode compilation entirely.
//
// Entries are keyed by a content hash of the file name and source text
// together: positions (and therefore error messages) embed the file name,
// so the same text under two names must compile to two distinct programs.
// Bytecode entries are additionally keyed by optimization level, because
// the optimizer rewrites a Program in place — a -O0 and a -O2 caller must
// never share one.
//
// Checked ASTs and compiled bytecode are immutable during execution, so a
// cached program may be run many times and from multiple goroutines; the
// cache itself is safe for concurrent use.
type CompileCache struct {
	mu     sync.Mutex
	max    int
	asts   map[[sha256.Size]byte]*ast.Program
	bcs    map[bcKey]*bytecode.Program
	hits   uint64
	misses uint64
}

// bcKey keys the bytecode table. Alongside the source hash and
// optimization level it carries the bytecode IR version: a long-running
// process that persists across an IR change (or an embedder that seeds the
// cache from elsewhere) must never replay bytecode compiled under an older
// instruction encoding on a newer VM. An entry written under a different
// IRVersion simply misses and the source is recompiled.
type bcKey struct {
	hash  [sha256.Size]byte
	level int
	ir    int
}

// newBCKey builds the lookup/store key for (file, src) at one level under
// the current IR version.
func newBCKey(file, src string, level int) bcKey {
	return bcKey{hash: sourceKey(file, src), level: level, ir: bytecode.IRVersion}
}

// CacheKey returns the stable hex content-hash key for (file, src) at one
// optimization level — the same derivation the bytecode table keys entries
// by (source content hash, level, IRVersion), rendered as a string for use
// outside this package. A front router that consistent-hashes this key
// across replicas sends every request for one program to the replica whose
// compile cache is already warm on it, and an IR bump re-shards exactly
// like it re-keys the cache.
func CacheKey(file, src string, level int) string {
	k := newBCKey(file, src, level)
	h := sha256.New()
	h.Write(k.hash[:])
	fmt.Fprintf(h, ":%d:%d", k.level, k.ir)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// DefaultCacheEntries bounds a cache built with NewCompileCache(0).
const DefaultCacheEntries = 128

// NewCompileCache returns an empty cache holding at most maxEntries
// programs per table (checked ASTs and compiled bytecode count
// separately); maxEntries <= 0 selects DefaultCacheEntries. When full, an
// arbitrary entry is evicted — the cache is a memo table, not an LRU.
func NewCompileCache(maxEntries int) *CompileCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &CompileCache{
		max:  maxEntries,
		asts: make(map[[sha256.Size]byte]*ast.Program),
		bcs:  make(map[bcKey]*bytecode.Program),
	}
}

// CacheStats reports cache effectiveness. A lookup that misses the
// bytecode table but hits the AST table counts one hit and one miss.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Stats returns the hit/miss counters accumulated so far.
func (c *CompileCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

// PeekAST reports whether the checked AST for (file, src) is already
// cached, without compiling or touching the hit/miss counters. The answer
// is advisory under concurrency — an entry may be evicted or inserted
// between Peek and Compile — which is fine for its use (per-request
// cache-hit reporting in the execution service).
func (c *CompileCache) PeekAST(file, src string) bool {
	key := sourceKey(file, src)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.asts[key]
	return ok
}

// PeekBytecode is PeekAST for the bytecode table at one optimization level.
func (c *CompileCache) PeekBytecode(file, src string, level int) bool {
	key := newBCKey(file, src, level)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.bcs[key]
	return ok
}

func sourceKey(file, src string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(file))
	h.Write([]byte{0}) // unambiguous boundary between name and text
	h.Write([]byte(src))
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// Compile is core.Compile through the cache: parse+check run only on the
// first sight of a (file, src) pair. Compile errors are not cached.
func (c *CompileCache) Compile(file, src string) (*ast.Program, error) {
	key := sourceKey(file, src)
	c.mu.Lock()
	if p, ok := c.asts[key]; ok {
		c.hits++
		c.mu.Unlock()
		return p, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := Compile(file, src)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.evictASTLocked()
	c.asts[key] = p
	c.mu.Unlock()
	return p, nil
}

// CompileBytecode compiles (file, src) to bytecode at the given
// optimization level through the cache, memoizing both the checked AST and
// the optimized bytecode.
func (c *CompileCache) CompileBytecode(file, src string, level int) (*bytecode.Program, error) {
	key := newBCKey(file, src, level)
	c.mu.Lock()
	if bc, ok := c.bcs[key]; ok {
		c.hits++
		c.mu.Unlock()
		return bc, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := c.Compile(file, src)
	if err != nil {
		return nil, err
	}
	bc, err := CompileBytecodeOpt(p, level)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.evictBCLocked()
	c.bcs[key] = bc
	c.mu.Unlock()
	return bc, nil
}

func (c *CompileCache) evictASTLocked() {
	for len(c.asts) >= c.max {
		for k := range c.asts {
			delete(c.asts, k)
			break
		}
	}
}

func (c *CompileCache) evictBCLocked() {
	for len(c.bcs) >= c.max {
		for k := range c.bcs {
			delete(c.bcs, k)
			break
		}
	}
}
