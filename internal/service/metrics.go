package service

import (
	"math/bits"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"mlpart"
)

// histBuckets is the number of power-of-two latency buckets; bucket i
// counts requests with latency < 2^i microseconds. Observations past the
// last finite bound (~2^23 us ≈ 8.4s) land in a separate overflow (+Inf)
// counter rather than being folded into the last finite bucket, which
// would silently misreport an 8s request and a stuck 10-minute one as the
// same latency class.
const histBuckets = 24

// histogram is a fixed-bucket latency histogram maintained with plain
// atomics — no locks on the request path.
type histogram struct {
	buckets  [histBuckets]atomic.Int64
	overflow atomic.Int64
	count    atomic.Int64
	sumNS    atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	idx := bits.Len64(us) // 0 for 0us, grows with log2
	if idx >= histBuckets {
		h.overflow.Add(1)
	} else {
		h.buckets[idx].Add(1)
	}
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// histogramVarz is the wire form of a histogram: cumulative counts per
// upper bound, in microseconds, plus the explicit +Inf bucket. The
// invariant Count == Overflow + last cumulative entry (when any finite
// observation exists) makes the overflow mass visible instead of folded
// into the top finite bound.
type histogramVarz struct {
	Count  int64   `json:"count"`
	SumNS  int64   `json:"sum_ns"`
	MeanNS int64   `json:"mean_ns"`
	Bucket []int64 `json:"buckets_le_pow2_us"`
	// Overflow is the +Inf bucket: observations past the last finite
	// power-of-two bound.
	Overflow int64 `json:"overflow"`
}

func (h *histogram) varz() histogramVarz {
	v := histogramVarz{
		Count:    h.count.Load(),
		SumNS:    h.sumNS.Load(),
		Overflow: h.overflow.Load(),
	}
	if v.Count > 0 {
		v.MeanNS = v.SumNS / v.Count
	}
	cum := int64(0)
	last := -1
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() != 0 {
			last = i
			break
		}
	}
	for i := 0; i <= last; i++ {
		cum += h.buckets[i].Load()
		v.Bucket = append(v.Bucket, cum)
	}
	return v
}

// endpointMetrics aggregates per-endpoint traffic.
type endpointMetrics struct {
	requests  atomic.Int64
	completed atomic.Int64
	latency   histogram
}

// metrics is the server's whole observable state, all plain atomics so
// that /varz never contends with the request path.
type metrics struct {
	admitted atomic.Int64 // passed admission control
	rejected atomic.Int64 // shed with 429 at admission
	queued   atomic.Int64 // currently admitted but not yet computing
	inFlight atomic.Int64 // currently computing
	started  atomic.Int64 // computations actually begun (entered the pool)
	timedOut atomic.Int64 // deadline exceeded (queued or mid-compute)
	canceled atomic.Int64 // client went away mid-request
	badReqs  atomic.Int64 // malformed or invalid requests (4xx)
	errors   atomic.Int64 // internal failures (5xx)

	unsupportedMedia atomic.Int64 // requests refused with 415 (unknown Content-Type)

	panicsRecovered atomic.Int64 // worker panics converted to 500s
	degraded        atomic.Int64 // results produced via a degradation fallback

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Per-preset request counters (fast/eco/strong, plus "custom" for an
	// explicit non-preset cycle count); bumped once per accepted partition
	// request, after validation.
	presetFast   atomic.Int64
	presetEco    atomic.Int64
	presetStrong atomic.Int64
	presetCustom atomic.Int64

	// Asynchronous job counters. Per-state occupancy lives in the job
	// store's gauges; these are the cumulative flows.
	jobsSubmitted     atomic.Int64 // accepted submissions (fresh jobs created)
	jobsCoalesced     atomic.Int64 // submissions absorbed by an identical active job
	jobsShed          atomic.Int64 // submissions refused with 429 (store full)
	jobsBatchOversize atomic.Int64 // batch submissions refused with 413 (too many entries)

	// jobQueueLatency is submit→start (time spent queued for a worker);
	// jobRunLatency is start→finish (compute time in the worker slot).
	jobQueueLatency histogram
	jobRunLatency   histogram

	endpoints map[string]*endpointMetrics
}

// countPreset bumps the counter for one accepted request's quality preset.
func (m *metrics) countPreset(p string) {
	switch p {
	case mlpart.PresetEco:
		m.presetEco.Add(1)
	case mlpart.PresetStrong:
		m.presetStrong.Add(1)
	case "custom":
		m.presetCustom.Add(1)
	default:
		m.presetFast.Add(1)
	}
}

func newMetrics(endpoints ...string) *metrics {
	m := &metrics{endpoints: make(map[string]*endpointMetrics, len(endpoints))}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{}
	}
	return m
}

// endpointVarz is the wire form of one endpoint's counters.
type endpointVarz struct {
	Requests  int64         `json:"requests"`
	Completed int64         `json:"completed"`
	Latency   histogramVarz `json:"latency"`
}

// varz is the wire form of GET /varz.
type varz struct {
	// SchemaVersion is the wire schema version the daemon speaks
	// (mlpart.SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// BuildVersion is the daemon binary's module version as stamped by
	// the Go build ("(devel)" for a plain source build).
	BuildVersion string `json:"build_version"`
	// UptimeSeconds is the time since the Server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`

	Workers       int   `json:"workers"`
	QueueCapacity int   `json:"queue_capacity"`
	QueueDepth    int64 `json:"queue_depth"`
	InFlight      int64 `json:"in_flight"`

	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Started  int64 `json:"started"`
	TimedOut int64 `json:"timed_out"`
	Canceled int64 `json:"canceled"`
	BadReqs  int64 `json:"bad_requests"`
	Errors   int64 `json:"internal_errors"`

	PanicsRecovered  int64 `json:"panics_recovered"`
	DegradedResults  int64 `json:"degraded_results"`
	UnsupportedMedia int64 `json:"unsupported_media_type"`
	Draining         bool  `json:"draining"`

	Cache struct {
		Size     int   `json:"size"`
		Capacity int   `json:"capacity"`
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
	} `json:"cache"`

	// Presets counts accepted partition requests by quality preset
	// ("custom" is an explicit cycle count that matches no preset).
	Presets struct {
		Fast   int64 `json:"fast"`
		Eco    int64 `json:"eco"`
		Strong int64 `json:"strong"`
		Custom int64 `json:"custom"`
	} `json:"presets"`

	// Jobs is the asynchronous job subsystem: store occupancy by state,
	// cumulative submission flows, and the two lifecycle latency
	// histograms (queued-for-worker and in-worker compute time).
	Jobs struct {
		Capacity int   `json:"capacity"`
		TTLMS    int64 `json:"ttl_ms"`
		// MaxBatchJobs is the per-batch entry cap; 0 means unlimited.
		MaxBatchJobs int   `json:"max_batch_jobs"`
		Submitted    int64 `json:"submitted"`
		Coalesced    int64 `json:"coalesced"`
		Shed         int64 `json:"shed"`
		// BatchOversize counts batch submissions refused with 413 for
		// exceeding MaxBatchJobs.
		BatchOversize int64 `json:"batch_oversize"`
		Expired       int64 `json:"expired"`

		Queued   int `json:"queued"`
		Running  int `json:"running"`
		Done     int `json:"done"`
		Failed   int `json:"failed"`
		Canceled int `json:"canceled"`

		QueueLatency histogramVarz `json:"queue_latency"`
		RunLatency   histogramVarz `json:"run_latency"`
	} `json:"jobs"`

	// Sessions is the resident graph session subsystem: occupancy against
	// its budgets, delta/repair flows by ladder tier, shedding, eviction
	// and crash-recovery counters. Disabled (all zero, enabled=false)
	// when the session API is off.
	Sessions struct {
		Enabled          bool  `json:"enabled"`
		Count            int   `json:"count"`
		MaxSessions      int   `json:"max_sessions"`
		ResidentBytes    int64 `json:"resident_bytes"`
		MaxResidentBytes int64 `json:"max_resident_bytes"`

		Created           int64 `json:"created"`
		Recovered         int64 `json:"recovered"`
		RecoveredDegraded int64 `json:"recovered_degraded"`
		RecoverFailures   int64 `json:"recover_failures"`
		EvictedIdle       int64 `json:"evicted_idle"`
		Deleted           int64 `json:"deleted"`

		DeltasApplied int64 `json:"deltas_applied"`
		OpsApplied    int64 `json:"ops_applied"`
		ShedBatch     int64 `json:"shed_batch"`
		ShedMemory    int64 `json:"shed_memory"`
		ApplyFailures int64 `json:"apply_failures"`

		Repairs struct {
			Boundary int64 `json:"boundary"`
			Full     int64 `json:"full"`
			VCycle   int64 `json:"vcycle"`
			Failed   int64 `json:"failed"`
		} `json:"repairs"`

		WALErrors      int64 `json:"wal_errors"`
		WALTruncations int64 `json:"wal_truncations"`
	} `json:"sessions"`

	// Memory is the process heap. Bytes allocated per request are
	// Δtotal_alloc_bytes / Δcompleted between two reads.
	Memory memoryVarz `json:"memory"`

	Endpoints map[string]endpointVarz `json:"endpoints"`
}

// memoryVarz is the wire form of the heap figures in /varz.
type memoryVarz struct {
	// HeapLiveBytes is the heap the last garbage collection found live
	// (0 until the first collection).
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// TotalAllocBytes is the cumulative bytes allocated on the heap.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// GCCycles is the number of completed garbage collections.
	GCCycles uint64 `json:"gc_cycles"`
}

// readMemory reads the heap figures from runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world.
func readMemory() memoryVarz {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	var v [3]uint64
	for i, x := range s {
		if x.Value.Kind() == rtmetrics.KindUint64 {
			v[i] = x.Value.Uint64()
		}
	}
	return memoryVarz{HeapLiveBytes: v[0], TotalAllocBytes: v[1], GCCycles: v[2]}
}
