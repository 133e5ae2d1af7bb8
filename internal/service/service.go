// Package service implements partitioning-as-a-service: a stdlib-only
// HTTP JSON API over the multilevel engine, designed to run as a
// long-lived daemon (cmd/mlserved) in front of the same deterministic
// pipeline the CLI tools drive.
//
// Endpoints:
//
//	POST /v1/partition    k-way / weighted / direct k-way partition
//	POST /v1/order        multilevel nested-dissection ordering
//	POST /v1/repartition  adaptive repartitioning (minimal migration)
//	GET  /healthz         liveness probe (200 for the process lifetime)
//	GET  /readyz          readiness probe (503 once draining begins)
//	GET  /varz            queue depth, in-flight, cache and latency stats
//
// Request and response bodies are the wire schema of the root package
// (mlpart.PartitionRequest and friends) — the same objects `mlpart -json`
// emits — so clients can switch between the CLI and the daemon without
// remapping fields. See docs/SERVICE.md for the full API reference.
//
// Three properties make the engine serviceable and the server leans on
// each:
//
//   - Cancellation: every V-cycle checks its context at level boundaries
//     (PartitionCtx, NestedDissectionCtx), so per-request deadlines and
//     client disconnects abort computations mid-flight instead of
//     burning a worker.
//   - Determinism: a fixed seed fixes the result bit-for-bit, so results
//     are cacheable; the LRU result cache is keyed by
//     Graph.Fingerprint() plus the canonicalized options and replays
//     byte-identical bodies.
//   - Observability: the internal/trace event layer can be attached per
//     request (?trace=1) to return the engine's per-level events
//     alongside the result.
//
// Load discipline: at most Config.Workers computations run concurrently
// and at most Config.QueueSize more may wait; everything beyond that is
// shed immediately with 429 and a Retry-After hint, so the daemon
// degrades by refusing work, never by queueing without bound.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlpart"
	"mlpart/internal/faults"
	"mlpart/internal/jobs"
	"mlpart/internal/sessions"
)

// Config sizes the daemon. The zero value is production-safe: GOMAXPROCS
// workers, a 4x admission queue, a 256-entry result cache and a 60s
// compute ceiling.
type Config struct {
	// Workers is the number of concurrent computations (0 means
	// GOMAXPROCS).
	Workers int
	// QueueSize is how many admitted requests may wait for a worker
	// beyond the running ones (0 means 4*Workers, negative means no
	// queue: shed unless a worker is free).
	QueueSize int
	// CacheSize is the result cache capacity in entries (0 means 256,
	// negative disables caching).
	CacheSize int
	// Timeout is the per-request compute ceiling; requests may lower it
	// with timeout_ms but never raise it (0 means 60s).
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies (0 means 64 MiB).
	MaxBodyBytes int64
	// JobCapacity bounds the asynchronous job store: every record — queued,
	// running or retained finished — takes one slot, and submissions beyond
	// it are shed with 429 (0 means 1024, negative disables the job API:
	// every submission sheds).
	JobCapacity int
	// JobTTL is how long a finished job's result is retained for polling
	// before eviction (0 means 10 minutes).
	JobTTL time.Duration
	// MaxBatchJobs caps the entries of one POST /v1/jobs/batch submission
	// (0 means 256, negative means unlimited). Oversized batches are
	// refused with 413 before any entry is decoded, so an unbounded batch
	// can no longer exhaust memory ahead of admission control.
	MaxBatchJobs int

	// StateDir, when non-empty, makes graph sessions durable: each
	// session keeps an append-only delta log plus periodic snapshots
	// under this directory and is recovered on startup. Empty means
	// sessions are memory-only.
	StateDir string
	// MaxSessions bounds resident graph sessions (0 means 64; negative
	// disables the session API entirely — /v1/graphs replies 404).
	MaxSessions int
	// MaxSessionBytes bounds one session's estimated resident bytes
	// (0 means 256 MiB); oversized graphs and batches get 413.
	MaxSessionBytes int64
	// MaxResidentBytes bounds the total across sessions (0 means 1 GiB);
	// exceeding it after idle eviction gets 429.
	MaxResidentBytes int64
	// MaxDeltaOps bounds the ops of one session delta batch (0 means
	// 4096); larger batches get 413.
	MaxDeltaOps int
	// SessionTTL is the idle window after which a session may be evicted
	// to disk (0 means 30m; only durable sessions are evicted).
	SessionTTL time.Duration
	// SnapshotEvery compacts a session's delta log into a snapshot after
	// this many records (0 means 64).
	SnapshotEvery int
	// FaultInjector, when non-nil, is threaded into every computation and
	// consulted at the engine's named sites plus the service worker path.
	// It is server-level (one injector, shared hit counters) so plans like
	// "panic on the 3rd computation" span requests; it is never taken from
	// request bodies — fault injection is an operator capability.
	FaultInjector *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueSize == 0:
		c.QueueSize = 4 * c.Workers
	case c.QueueSize < 0:
		c.QueueSize = 0
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 256
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatchJobs == 0 {
		c.MaxBatchJobs = 256
	}
	return c
}

// Server is the partitioning daemon's HTTP handler set. Create one with
// New and mount it on an http.Server (it implements http.Handler).
type Server struct {
	cfg    Config
	pool   *pool
	cache  *resultCache
	met    *metrics
	mux    *http.ServeMux
	inj    *faults.Injector
	bootID string

	jobs  *jobs.Store
	jobWG sync.WaitGroup // runner goroutines of spawned jobs

	// sessions is the resident graph session registry; nil when the
	// session API is disabled (MaxSessions < 0).
	sessions *sessions.Manager

	start        time.Time
	buildVersion string

	draining    atomic.Bool
	incidentSeq atomic.Int64

	// hookCompute, when non-nil, runs inside the worker slot right
	// before the computation starts, with the request's compute context.
	// Tests use it to hold slots open deterministically.
	hookCompute func(ctx context.Context)
}

// New returns a Server with cfg (zero value for defaults). It fails
// only on session-state problems: invalid session options or an
// unusable StateDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		pool:         newPool(cfg.Workers, cfg.QueueSize),
		cache:        newResultCache(cfg.CacheSize),
		met:          newMetrics(epPartition, epOrder, epRepartition, epSessions),
		inj:          cfg.FaultInjector,
		bootID:       fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff),
		start:        time.Now(),
		buildVersion: buildVersion(),
	}
	s.jobs = jobs.New(jobs.Config{
		Capacity: cfg.JobCapacity,
		TTL:      cfg.JobTTL,
		Prefix:   s.bootID + "-",
	})
	if cfg.MaxSessions >= 0 {
		mgr, err := sessions.NewManager(sessions.Options{
			StateDir:         cfg.StateDir,
			MaxSessions:      cfg.MaxSessions,
			MaxSessionBytes:  cfg.MaxSessionBytes,
			MaxResidentBytes: cfg.MaxResidentBytes,
			MaxDeltaOps:      cfg.MaxDeltaOps,
			IdleTTL:          cfg.SessionTTL,
			SnapshotEvery:    cfg.SnapshotEvery,
			Injector:         cfg.FaultInjector,
		})
		if err != nil {
			return nil, err
		}
		s.sessions = mgr
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/jobs", s.serveJobSubmit)
	s.mux.HandleFunc("/v1/jobs/batch", s.serveJobBatch)
	s.mux.HandleFunc("/v1/jobs/", s.serveJobByID)
	s.mux.HandleFunc("/v1/graphs", s.serveSessions)
	s.mux.HandleFunc("/v1/graphs/", s.serveSessionByID)
	for _, typ := range jobTypes {
		s.mux.HandleFunc("/v1/"+typ, func(w http.ResponseWriter, r *http.Request) { s.serveCompute(w, r, typ) })
	}
	s.mux.HandleFunc("/v1/capabilities", s.serveCapabilities)
	s.mux.HandleFunc("/healthz", s.serveHealthz)
	s.mux.HandleFunc("/readyz", s.serveReadyz)
	s.mux.HandleFunc("/varz", s.serveVarz)
	return s, nil
}

// SweepSessions evicts idle graph sessions (durable mode); cmd/mlserved
// calls it on a timer. Returns the number evicted.
func (s *Server) SweepSessions() int {
	if s.sessions == nil {
		return 0
	}
	return s.sessions.Sweep()
}

// CloseSessions flushes every dirty session's snapshot and closes the
// delta logs — the final step of drain choreography, after WaitJobs.
func (s *Server) CloseSessions() error {
	if s.sessions == nil {
		return nil
	}
	return s.sessions.Close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// serveCapabilities answers GET /v1/capabilities with the server's
// supported algorithm names (coarsening schemes with family metadata,
// initial partitioners, refinements, presets, orderings, workloads), built
// from the same registries the engine resolves names against. SDK clients
// discover valid option values here instead of hardcoding strings; the
// document is static for a given build, so clients may cache it per
// connection.
func (s *Server) serveCapabilities(w http.ResponseWriter, r *http.Request) {
	if allow(w, r, http.MethodGet) {
		writeJSON(w, http.StatusOK, mlpart.NewCapabilitiesResponse())
	}
}

// serveHealthz is the liveness probe: 200 for the whole process lifetime,
// including the drain window — a draining daemon is alive, just not
// accepting new traffic. Restart-on-liveness-failure orchestrators must
// never kill a cleanly draining process.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// serveReadyz is the readiness probe: 503 once BeginDrain has been called,
// so load balancers stop routing new requests while in-flight ones finish.
func (s *Server) serveReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// BeginDrain flips the readiness probe to 503. Call it on SIGTERM, before
// http.Server.Shutdown, and give load balancers a grace window to observe
// the flip; /healthz and in-flight requests are unaffected. Draining also
// refuses new job submissions (503) — accepted jobs keep running; wait for
// them with WaitJobs after Shutdown returns.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// WaitJobs blocks until every spawned job runner has returned, or ctx
// fires. Asynchronous jobs outlive their submission request, so
// http.Server.Shutdown alone does not cover them: drain choreography is
// BeginDrain (refuse new submissions) → Shutdown (in-flight HTTP) →
// WaitJobs (running jobs). It returns ctx.Err() when the wait was cut
// short, nil when all runners finished.
func (s *Server) WaitJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// buildVersion reports the main module's version as stamped by the build
// ("(devel)" for plain `go build`, a pseudo-version for module builds).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// nextIncident returns a process-unique incident id for a 500 reply; the
// same id goes to the client (X-Incident-Id) and the server log, so one
// grep connects a user report to the recovered stack.
func (s *Server) nextIncident() string {
	return fmt.Sprintf("%s-%06d", s.bootID, s.incidentSeq.Add(1))
}

func (s *Server) serveVarz(w http.ResponseWriter, r *http.Request) {
	m := s.met
	v := varz{
		SchemaVersion:    mlpart.SchemaVersion,
		BuildVersion:     s.buildVersion,
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Workers:          s.pool.workers(),
		QueueCapacity:    s.pool.queueCapacity(),
		QueueDepth:       m.queued.Load(),
		InFlight:         m.inFlight.Load(),
		Admitted:         m.admitted.Load(),
		Rejected:         m.rejected.Load(),
		Started:          m.started.Load(),
		TimedOut:         m.timedOut.Load(),
		Canceled:         m.canceled.Load(),
		BadReqs:          m.badReqs.Load(),
		Errors:           m.errors.Load(),
		PanicsRecovered:  m.panicsRecovered.Load(),
		DegradedResults:  m.degraded.Load(),
		UnsupportedMedia: m.unsupportedMedia.Load(),
		Draining:         s.draining.Load(),
		Memory:           readMemory(),
		Endpoints:        make(map[string]endpointVarz, len(m.endpoints)),
	}
	v.Cache.Size = s.cache.len()
	v.Cache.Capacity = s.cfg.CacheSize
	v.Cache.Hits = m.cacheHits.Load()
	v.Cache.Misses = m.cacheMisses.Load()
	v.Presets.Fast = m.presetFast.Load()
	v.Presets.Eco = m.presetEco.Load()
	v.Presets.Strong = m.presetStrong.Load()
	v.Presets.Custom = m.presetCustom.Load()
	jg := s.jobs.Gauges()
	v.Jobs.Capacity = s.jobs.Capacity()
	v.Jobs.TTLMS = s.jobs.TTL().Milliseconds()
	if s.cfg.MaxBatchJobs > 0 {
		v.Jobs.MaxBatchJobs = s.cfg.MaxBatchJobs
	}
	v.Jobs.Submitted = m.jobsSubmitted.Load()
	v.Jobs.Coalesced = m.jobsCoalesced.Load()
	v.Jobs.Shed = m.jobsShed.Load()
	v.Jobs.BatchOversize = m.jobsBatchOversize.Load()
	v.Jobs.Expired = jg.Expired
	v.Jobs.Queued = jg.Queued
	v.Jobs.Running = jg.Running
	v.Jobs.Done = jg.Done
	v.Jobs.Failed = jg.Failed
	v.Jobs.Canceled = jg.Canceled
	v.Jobs.QueueLatency = m.jobQueueLatency.varz()
	v.Jobs.RunLatency = m.jobRunLatency.varz()
	if s.sessions != nil {
		sg := s.sessions.Stats()
		v.Sessions.Enabled = true
		v.Sessions.Count = sg.Sessions
		v.Sessions.MaxSessions = sg.MaxSessions
		v.Sessions.ResidentBytes = sg.ResidentBytes
		v.Sessions.MaxResidentBytes = sg.MaxResidentBytes
		v.Sessions.Created = sg.Created
		v.Sessions.Recovered = sg.Recovered
		v.Sessions.RecoveredDegraded = sg.RecoveredDegraded
		v.Sessions.RecoverFailures = sg.RecoverFailures
		v.Sessions.EvictedIdle = sg.EvictedIdle
		v.Sessions.Deleted = sg.Deleted
		v.Sessions.DeltasApplied = sg.DeltasApplied
		v.Sessions.OpsApplied = sg.OpsApplied
		v.Sessions.ShedBatch = sg.ShedBatch
		v.Sessions.ShedMemory = sg.ShedMemory
		v.Sessions.ApplyFailures = sg.ApplyFailures
		v.Sessions.Repairs.Boundary = sg.RepairsBoundary
		v.Sessions.Repairs.Full = sg.RepairsFull
		v.Sessions.Repairs.VCycle = sg.RepairsVCycle
		v.Sessions.Repairs.Failed = sg.RepairFailures
		v.Sessions.WALErrors = sg.WALErrors
		v.Sessions.WALTruncations = sg.WALTruncations
	}
	for name, ep := range m.endpoints {
		v.Endpoints[name] = endpointVarz{
			Requests:  ep.requests.Load(),
			Completed: ep.completed.Load(),
			Latency:   ep.latency.varz(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody encodes the wire schema's error object, newline-terminated —
// the exact bytes writeError puts on the wire, so stored job outcomes
// replay identically to synchronous error replies.
func errorBody(format string, args ...any) []byte {
	b, err := json.Marshal(mlpart.ErrorResponse{
		Kind:          mlpart.WireKindError,
		SchemaVersion: mlpart.SchemaVersion,
		Error:         fmt.Sprintf(format, args...),
	})
	if err != nil {
		// The error object contains nothing unmarshalable; unreachable.
		panic(err)
	}
	return append(b, '\n')
}

// writeBody writes an already encoded JSON reply with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError emits the wire schema's error object.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeBody(w, status, errorBody(format, args...))
}

// writeJSON encodes resp as a newline-terminated JSON reply.
func writeJSON(w http.ResponseWriter, status int, resp any) {
	b, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// allow reports whether r's method is one of methods; otherwise it
// answers 405 with an Allow header.
func allow(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	if slices.Contains(methods, r.Method) {
		return true
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	writeError(w, http.StatusMethodNotAllowed, "%s requires %s", r.URL.Path, strings.Join(methods, " or "))
	return false
}

// refuseDraining answers 503 with a Retry-After hint once draining has
// begun, naming the work refused, and reports whether it did.
func (s *Server) refuseDraining(w http.ResponseWriter, what string) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "draining: not accepting %s", what)
	return true
}
