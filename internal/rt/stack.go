package rt

// minStack is the least size, in entries, of a stack segment after a
// thread's first: room for a dozen typical windows, small enough that a
// spawned thread's first call costs one modest allocation.
const minStack = 64

// Stack is one thread's stack of T, from which the activations and calls
// in progress on that thread claim windows in LIFO order: the VM's
// registers, the interpreter's cells, argument values and frame records.
// The zero Stack is empty; it allocates on its first claim.
//
// When a window does not fit, a segment at least twice as large replaces
// the current one, which the windows still in it keep alive: a live window
// never moves, so a pointer into one stays valid until it is released. The
// tops those windows recorded are offsets into the old segment; restoring
// one into the newer segment only skips free entries, because every window
// claimed from the newer segment has been released by then. At most
// MaxCallDepth activations are live, and segments double, so a thread's
// stack stays within a small multiple of its deepest recursion.
//
// A thread's first segment is its first window and no more. Most spawned
// threads run one short body and claim one small window or none, and a
// minStack segment each was 1.5 KB of registers zeroed per thread: the VM's
// BenchmarkSpawn reads 2.9 MB and 22 ms a run this way, 17 MB and 35 ms
// with minStack from the start, the allocation count the same.
type Stack[T any] struct {
	seg []T // entries from sp up are free and zero
	sp  int
}

// Claim takes the next n entries as a window, all zero like a fresh make,
// and returns it with the top to restore on release.
func (s *Stack[T]) Claim(n int) ([]T, int) {
	if s.sp+n > len(s.seg) {
		size := n
		if s.seg != nil {
			size = max(minStack, 2*len(s.seg), 2*n)
		}
		s.seg = make([]T, size)
		s.sp = 0
	}
	sp := s.sp
	s.sp += n
	return s.seg[sp:s.sp:s.sp], sp
}

// Release returns window w, claimed with top sp, zeroed so that the next
// claim finds it clean and what it held does not outlive its owner.
//
// It zeroes with clear. A loop of stores won a Go benchmark of the
// run_calls programs by 4 to 8 %, but on the benchmark's run_calls
// workload itself it was no faster (throughput_ops 157 to 163 against 161
// to 163, four alternating runs each, 2-core x86-64 host).
func (s *Stack[T]) Release(w []T, sp int) {
	clear(w)
	s.sp = sp
}

// Top is the offset of the current segment's first free entry: 0 when no
// window is claimed.
func (s *Stack[T]) Top() int { return s.sp }

// Segment returns the current segment. Its entries from Top up are free and
// must be zero.
func (s *Stack[T]) Segment() []T { return s.seg }
