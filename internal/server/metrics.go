package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/promote"
	"repro/internal/session"
	"repro/internal/worker"
)

// crashRingSize bounds the crash-forensics ring: the last N worker
// crashes, each tagged with the request ID that triggered it.
const crashRingSize = 16

// CrashRecord is one worker-crash forensics entry: which request, which
// program, which worker process, and why it died.
type CrashRecord struct {
	UnixMS    int64  `json:"unix_ms"`
	RequestID string `json:"request_id"`
	Hash      string `json:"program_hash"`
	PID       int    `json:"worker_pid"`
	Attempt   int    `json:"attempt"`
	Reason    string `json:"reason"`
	// StderrTail is the last of what the dead process wrote to stderr (at
	// most 2 KiB): a panic's message and stack, when it got to print one.
	StderrTail string `json:"stderr_tail,omitempty"`
}

// counters is the server's counter set. All fields are atomics; the
// /metrics endpoint serves a consistent-enough snapshot without a lock.
// The crash ring is the one mutexed structure (rare writes, tiny).
type counters struct {
	requests      atomic.Int64
	okRuns        atomic.Int64
	compileErrors atomic.Int64
	runtimeErrors atomic.Int64
	rejected422   atomic.Int64
	rejected429   atomic.Int64
	rejected503   atomic.Int64
	badRequests   atomic.Int64
	panics        atomic.Int64
	fallbacks     atomic.Int64
	inFlight      atomic.Int64
	queueDepth    atomic.Int64

	nativeRuns      atomic.Int64 // requests served by the native tier
	nativeDemotions atomic.Int64 // artifact crashes that demoted a program

	latInterp    metrics.Histogram
	latVM        metrics.Histogram
	latNative    metrics.Histogram // native-artifact runs (wall clock of the process)
	latOverhead  metrics.Histogram // supervised round-trip minus worker-reported work
	latStreamLag metrics.Histogram // session SSE delivery lag: publish → socket write

	crashMu sync.Mutex
	crashes []CrashRecord // ring, newest last, at most crashRingSize
}

func (m *counters) recordCrash(rec CrashRecord) {
	m.crashMu.Lock()
	defer m.crashMu.Unlock()
	m.crashes = append(m.crashes, rec)
	if len(m.crashes) > crashRingSize {
		m.crashes = m.crashes[len(m.crashes)-crashRingSize:]
	}
}

func (m *counters) crashRecords() []CrashRecord {
	m.crashMu.Lock()
	defer m.crashMu.Unlock()
	out := make([]CrashRecord, len(m.crashes))
	copy(out, m.crashes)
	return out
}

func (m *counters) latency(backend string) *metrics.Histogram {
	if backend == BackendVM {
		return &m.latVM
	}
	return &m.latInterp
}

// CacheMetrics reports compile-cache effectiveness.
type CacheMetrics struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// MetricsSnapshot is the JSON body of GET /metrics.
type MetricsSnapshot struct {
	Draining      bool                                 `json:"draining"`
	Ready         bool                                 `json:"ready"`
	Isolation     string                               `json:"isolation"`
	InFlight      int64                                `json:"in_flight"`
	QueueDepth    int64                                `json:"queue_depth"`
	Requests      int64                                `json:"requests"`
	OKRuns        int64                                `json:"ok_runs"`
	CompileErrors int64                                `json:"compile_errors"`
	RuntimeErrors int64                                `json:"runtime_errors"`
	Rejected422   int64                                `json:"rejected_422"`
	Rejected429   int64                                `json:"rejected_429"`
	Rejected503   int64                                `json:"rejected_503"`
	BadRequests   int64                                `json:"bad_requests"`
	Panics        int64                                `json:"panics"`
	Fallbacks     int64                                `json:"fallbacks"`
	Cache         CacheMetrics                         `json:"cache"`
	Latency       map[string]metrics.HistogramSnapshot `json:"latency"`
	// Native-tier counters (all zero when the tier is off).
	Promotions      int64 `json:"promotions,omitempty"`
	NativeRuns      int64 `json:"native_runs,omitempty"`
	NativeDemotions int64 `json:"native_demotions,omitempty"`
	// Native reports the artifact runner's process accounting (nil when
	// the native tier is off).
	Native *worker.ProcStats `json:"native,omitempty"`
	// Promote reports the promotion state machine (nil when the native
	// tier is off).
	Promote *promote.Stats `json:"promote,omitempty"`
	// Sessions reports the streaming-session registry: active gauge,
	// created/evicted/rejected counters (the "stream_lag" latency entry
	// is the SSE delivery-lag histogram).
	Sessions *session.Stats `json:"sessions,omitempty"`
	// Worker reports the supervisor counters (nil with isolation off).
	Worker *worker.Stats `json:"worker,omitempty"`
	// WorkerCrashes is the forensics ring: the most recent worker
	// crashes with their request IDs.
	WorkerCrashes []CrashRecord `json:"worker_crashes,omitempty"`
}
