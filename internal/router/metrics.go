package router

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// rmetrics is the router's counter set. Per-backend entries are created
// on first use and never deleted: a backend that leaves the ring (drain,
// crash) keeps its request counts and latency history, so membership
// churn never zeroes a dashboard mid-incident
// (TestMetricsSurviveMembershipChurn pins this).
type rmetrics struct {
	requests    atomic.Int64 // requests accepted for proxying (any endpoint)
	proxied     atomic.Int64 // requests that received a backend response
	retries     atomic.Int64 // connection-failure retries onto the next ring node
	spillovers  atomic.Int64 // in-flight-bound overflows onto the next ring node
	noBackend   atomic.Int64 // 503s: no ready backend could take the request
	rejected503 atomic.Int64 // 503s while the router itself drains
	badRequests atomic.Int64 // bodies too large / unroutable session paths
	membership  atomic.Int64 // ring membership changes observed by probes

	mu       sync.Mutex
	backends map[string]*backendMetrics
}

type backendMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64 // connection-level failures against this backend
	lat      metrics.Histogram
}

func (m *rmetrics) backend(id string) *backendMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.backends == nil {
		m.backends = make(map[string]*backendMetrics)
	}
	b, ok := m.backends[id]
	if !ok {
		b = &backendMetrics{}
		m.backends[id] = b
	}
	return b
}

func (m *rmetrics) observe(id string, d time.Duration) {
	b := m.backend(id)
	b.requests.Add(1)
	b.lat.Observe(d)
}

// BackendMetrics is the exported per-backend slice of the router's
// /metrics body.
type BackendMetrics struct {
	Ready    bool                      `json:"ready"`
	Weight   int                       `json:"weight"`
	InFlight int64                     `json:"in_flight"`
	Requests int64                     `json:"requests"`
	Errors   int64                     `json:"errors"`
	Latency  metrics.HistogramSnapshot `json:"latency"`
}

// MetricsSnapshot is the JSON body of the router's GET /metrics.
type MetricsSnapshot struct {
	Draining      bool                      `json:"draining"`
	Ready         bool                      `json:"ready"`
	Policy        string                    `json:"policy"`
	RingMembers   int                       `json:"ring_members"`
	Requests      int64                     `json:"requests"`
	Proxied       int64                     `json:"proxied"`
	Retries       int64                     `json:"retries"`
	Spillovers    int64                     `json:"spillovers"`
	NoBackend     int64                     `json:"no_backend"`
	Rejected503   int64                     `json:"rejected_503"`
	BadRequests   int64                     `json:"bad_requests"`
	Membership    int64                     `json:"membership_changes"`
	SessionRoutes int                       `json:"session_routes"`
	Backends      map[string]BackendMetrics `json:"backends"`
}
