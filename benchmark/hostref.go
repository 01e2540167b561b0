package main

import (
	"sort"
	"strconv"
	"time"
)

// hostRef times a fixed native-Go kernel in short slices spread through a
// run. The kernel never changes and touches no product code, so how long
// it takes says how fast the host was while the run was measured.
//
// The reference host is a 2-vCPU virtual machine whose neighbours slow
// branchy, allocating code by 30 to 45 % for minutes at a time, and whose
// hypervisor now and then takes the CPUs away altogether. Ten runs of
// unchanged code then differ by 20 to 40 % between their quartiles, more
// than any regression bound the contract allows. Every time-like
// end-to-end value is therefore divided by the slow-down measured in the
// same run (a rate is multiplied), which brought the same ten-run spreads
// to 3–17 %. The raw values are printed beside the scaled ones.
type hostRef struct {
	slices []float64 // ms
	spent  time.Duration
}

// refNominalMS is one slice on the reference host with nothing else
// contending. A value divided by slowdown reads as milliseconds on that
// quiet host.
const refNominalMS = 3.0

var (
	refTable [1 << 14]uint32 // 64 KiB: in the second-level cache, not the first
	refSink  uint64
)

func init() {
	x := uint32(12345)
	for i := range refTable {
		x = x*1664525 + 1013904223
		refTable[i] = x
	}
}

// refDispatch is shaped like an interpreter's inner loop: a load from a
// cache-resident table, a data-dependent switch, a few register updates.
func refDispatch(n int) {
	var acc [8]uint64
	pc := uint32(0)
	for i := 0; i < n; i++ {
		in := refTable[pc&(1<<14-1)]
		switch in & 7 {
		case 0:
			acc[in>>3&7] += uint64(in)
		case 1:
			acc[in>>3&7] ^= acc[in>>6&7]
		case 2:
			acc[in>>3&7] -= uint64(in >> 9)
		case 3:
			if acc[in>>3&7]&1 == 0 {
				pc += in >> 12
			}
		case 4:
			acc[in>>3&7] = acc[in>>6&7] * 3
		case 5:
			acc[in>>3&7] >>= 1
		case 6:
			acc[in>>3&7] += acc[in>>6&7]
		default:
			pc += in >> 20
		}
		pc++
	}
	refSink += acc[0] + acc[3]
}

type refNode struct {
	key         string
	left, right *refNode
}

// refAllocate is ordinary allocating Go, which is what the front end, the
// tree-walker and the server are: a tree of small nodes with string keys,
// a map and a sort.
func refAllocate(n int) {
	var root *refNode
	x := uint32(2463534242)
	m := make(map[string]int)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		key := strconv.Itoa(int(x % 100000))
		m[key] += i
		p := &root
		for *p != nil {
			if key < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &refNode{key: key}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refSink += uint64(len(keys[0]) + m[keys[len(keys)/2]])
}

// sample times n slices, each about half dispatch and half allocation. Of
// the kernels and statistics tried (pure arithmetic, either half alone,
// both on two threads; median, trimmed mean), the mean of this mix
// tracked the seven workloads best.
func (h *hostRef) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		refDispatch(1_000_000)
		refAllocate(3_000)
		d := time.Since(t0)
		h.slices = append(h.slices, ms(d))
		h.spent += d
	}
}

// slowdown is how much longer than nominal the slices took on average:
// the mean, not the median, because the time the hypervisor withholds
// arrives in a few long slices and the workload pays for it too.
func (h *hostRef) slowdown() float64 {
	if len(h.slices) == 0 {
		return 1
	}
	return mean(h.slices) / refNominalMS
}
