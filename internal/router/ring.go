// Package router is tetrarouter, the cache-affinity HTTP front router
// for a fleet of tetrad replicas. One tetrad answers a few hundred to a
// thousand warm requests a second (the benchmark's throughput_ops on
// serve_hot and serve_heavy); scaling past that means replicas — and
// replicas are only fast while their compile caches are warm. The router
// keeps them warm by consistent-hashing each request's program
// content-hash (the same (source, opt level, IRVersion) derivation the
// compile cache keys entries by — core.CacheKey) onto the ring of
// healthy replicas: every program's traffic lands on one node, so each
// node serves a warm shard instead of every node serving a cold union.
//
// Membership is health-driven: a prober per backend polls
// /healthz/ready, and a replica that announces a drain (readiness flips
// 503 before its admissions close) leaves the ring while it is still
// accepting — no request is lost to a node that said it was leaving.
// Per-backend in-flight bounds spill overloaded keys to the next ring
// node, and connection failures retry on the next node (bounded), so a
// SIGKILLed replica costs retries, not errors.
package router

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the number of virtual nodes per unit of member weight.
// 128 vnodes keeps the worst member within ~±20% of its weight-fair share
// on realistic fleets (TestRingDistributionBounds pins the bound).
const DefaultVNodes = 128

// Ring is a weighted consistent-hash ring. A member with weight w owns
// w×vnodes points placed by hashing "id#i"; a key is assigned to the
// first point clockwise from its own hash. Placement is a pure function
// of member IDs and weights — no seed, no process state — so every
// router instance over the same membership computes the same assignment
// (TestRingDeterministicGolden pins it), and adding or removing one
// member moves only the keys that land on its points (~1/N of the
// keyspace; TestRingChurnMinimalDisruption pins that too).
//
// Safe for concurrent use; membership changes rebuild the point list
// under the write lock (rare and small: 16 nodes × 128 vnodes is 2048
// points).
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	members map[string]int // id → weight
	points  []ringPoint    // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing returns an empty ring with the given virtual-node multiplier
// (<= 0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]int)}
}

// Add inserts (or re-weights) a member. Weight < 1 is clamped to 1.
func (r *Ring) Add(id string, weight int) {
	if weight < 1 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.members[id]; ok && w == weight {
		return
	}
	r.members[id] = weight
	r.rebuildLocked()
}

// Remove deletes a member; unknown IDs are a no-op.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; !ok {
		return
	}
	delete(r.members, id)
	r.rebuildLocked()
}

// Members returns a snapshot of the current membership (id → weight).
func (r *Ring) Members() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.members))
	for id, w := range r.members {
		out[id] = w
	}
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Lookup returns up to n distinct members in preference order for key:
// the key's owner first, then each successor around the ring. n <= 0
// (or n larger than the membership) returns every member. The order is
// the spillover/retry order — consecutive entries are the nodes that
// would own the key if their predecessors left.
func (r *Ring) Lookup(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	// First point with hash >= h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for range r.points {
		p := r.points[i%len(r.points)]
		i++
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// Owner returns the single member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	ids := r.Lookup(key, 1)
	if len(ids) == 0 {
		return ""
	}
	return ids[0]
}

func (r *Ring) rebuildLocked() {
	total := 0
	for _, w := range r.members {
		total += w
	}
	points := make([]ringPoint, 0, total*r.vnodes)
	for id, w := range r.members {
		for i := 0; i < w*r.vnodes; i++ {
			points = append(points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", id, i)), id: id})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash ties (astronomically rare) break by ID so placement stays a
		// pure function of membership.
		return points[i].id < points[j].id
	})
	r.points = points
}

// hash64 maps a string onto the ring's keyspace. SHA-256-based so vnode
// placement has no exploitable structure; only the first 8 bytes are
// kept.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
