package rt

import "testing"

// A stack hands out windows in LIFO order: the first segment is the first
// window, a window that does not fit starts a larger segment without moving
// the live ones, and a released window comes back zero with the top it was
// claimed at.
func TestStackWindows(t *testing.T) {
	var s Stack[int]
	a, spA := s.Claim(3)
	if len(a) != 3 || cap(a) != 3 || spA != 0 || len(s.Segment()) != 3 {
		t.Fatalf("first window: len %d cap %d top %d segment %d", len(a), cap(a), spA, len(s.Segment()))
	}
	a[0], a[1], a[2] = 1, 2, 3
	pa := &a[1]

	// Each claim that does not fit grows the stack: to minStack, then by
	// doubling. The windows claimed before stay where they are.
	var live [][]int
	var tops []int
	for i := 0; i < 3*minStack; i++ {
		w, sp := s.Claim(2)
		w[0], w[1] = i, -i
		live = append(live, w)
		tops = append(tops, sp)
	}
	if got := len(s.Segment()); got < 4*minStack {
		t.Errorf("segment of %d after %d entries claimed, want at least %d", got, 3+6*minStack, 4*minStack)
	}
	if pa != &a[1] || *pa != 2 {
		t.Fatal("a live window moved or changed when the stack grew")
	}
	for i := len(live) - 1; i >= 0; i-- {
		if w := live[i]; w[0] != i || w[1] != -i {
			t.Fatalf("window %d holds %v", i, w)
		}
		s.Release(live[i], tops[i])
		if s.Top() != tops[i] {
			t.Fatalf("top after releasing window %d is %d, want %d", i, s.Top(), tops[i])
		}
	}
	s.Release(a, spA)
	if s.Top() != 0 || a[0] != 0 || a[1] != 0 || a[2] != 0 {
		t.Fatalf("after the last release: top %d, first window %v", s.Top(), a)
	}
	for i, v := range s.Segment() {
		if v != 0 {
			t.Fatalf("entry %d of the released segment holds %d", i, v)
		}
	}
}
