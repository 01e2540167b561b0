package metrics

import (
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(300 * time.Microsecond) // bucket le 0.5ms
	h.Observe(30 * time.Millisecond)  // bucket le 50ms
	h.Observe(2 * time.Minute)        // +Inf bucket
	s := h.Snapshot()
	if s.Count != 3 || len(s.Buckets) != 3 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Buckets[0].LEms != 0.5 || s.Buckets[1].LEms != 50 || s.Buckets[2].LEms != -1 {
		t.Errorf("bucket bounds wrong: %+v", s.Buckets)
	}
}
