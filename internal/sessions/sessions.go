// Package sessions turns the daemon from a stateless partition function
// into a graph-session service: a fingerprint-addressed registry of
// resident graphs, each carrying an incumbent partition that streaming
// delta batches (edge adds/removes, vertex reweights) mutate in place.
//
// Every batch applies atomically under the session's lock and triggers
// incremental repair through a three-tier degradation ladder — boundary
// -local BKWAY refinement while drift is small, a full migration-aware
// repartition (rebalance + refine) when cut drift or imbalance crosses
// the configured thresholds, and a fresh multilevel V-cycle when drift
// is severe. This is the repartitioning regime "Recent Advances in
// Graph Partitioning" surveys: the incumbent partition is almost right,
// so repair cost should scale with the change, not the graph.
//
// Robustness is the design center:
//
//   - Memory-budget admission: per-session and global resident-byte
//     budgets shed oversized graphs and batches before they allocate,
//     and idle sessions are evicted to disk (durable mode) to make room.
//   - Panic boundaries + fault sites (session/apply, session/repair): a
//     poisoned delta rolls its whole batch back and poisons nothing; a
//     failed repair leaves the incumbent partition untouched with the
//     drift still pending.
//   - Crash safety: an append-only checksummed delta log plus periodic
//     atomic csrb snapshots per session under the state dir. Replay
//     re-applies logged batches and re-runs each repair at its recorded
//     tier with the session's seed — repairs are deterministic, so a
//     SIGKILL'd daemon comes back with byte-identical partitions; the
//     logged cut cross-checks every step and any mismatch degrades to a
//     fresh V-cycle rather than serving silently wrong state.
package sessions

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlpart/internal/enum"
	"mlpart/internal/errlist"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/metrics"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// Delta op names.
const (
	// OpAdd inserts the undirected edge (U,V) with weight W, or updates
	// its weight if it already exists.
	OpAdd = "add"
	// OpRemove deletes the undirected edge (U,V); it must exist.
	OpRemove = "remove"
	// OpVwgt sets vertex U's weight to W — the adaptive-workload case
	// where per-vertex cost changes and imbalance, not cut, drifts.
	OpVwgt = "vwgt"
)

// Op is one graph mutation inside a delta batch.
type Op struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v,omitempty"`
	W  int    `json:"w,omitempty"`
}

// Tier identifies a rung of the repair ladder.
type Tier int

const (
	// TierNone means no repair ran.
	TierNone Tier = -1
	// TierBoundary is incremental boundary-local BKWAY refinement.
	TierBoundary Tier = 0
	// TierFull is a full migration-aware repartition (rebalance, then
	// boundary refinement): refine.RepartitionKWay, as mlpart.Repartition.
	TierFull Tier = 1
	// TierVCycle is a fresh multilevel V-cycle from scratch.
	TierVCycle Tier = 2
)

// tierNames is the repair tiers' name table, as they appear on the wire
// and in traces and as explicit repair modes.
var tierNames = enum.Names[Tier]{TierBoundary: "boundary", TierFull: "full", TierVCycle: "vcycle"}

// modeAuto is the repair mode that lets the drift ladder pick the tier.
const modeAuto = "auto"

// String names the tier as it appears on the wire and in traces.
func (t Tier) String() string {
	if !tierNames.Valid(t) {
		return "none"
	}
	return tierNames[t]
}

// parseMode resolves an explicit repair mode: "auto" (or empty) is
// TierNone, the ladder's choice; a tier name (any case) forces that tier.
func parseMode(mode string) (Tier, error) {
	if m := strings.TrimSpace(mode); m == "" || strings.EqualFold(m, modeAuto) {
		return TierNone, nil
	}
	if t, ok := tierNames.Parse(mode); ok {
		return t, nil
	}
	return TierNone, &OpError{Index: -1, Reason: fmt.Sprintf("unknown repair mode %q (want %s or a tier: %v)", mode, modeAuto, tierNames)}
}

// Typed failures the service maps to HTTP statuses.
var (
	// ErrExists rejects creating a session whose graph fingerprint is
	// already resident (409).
	ErrExists = errors.New("session already exists for this graph")
	// ErrNotFound reports an unknown session id (404).
	ErrNotFound = errors.New("no such session")
	// ErrTooManySessions rejects a create when the session count budget
	// is exhausted and nothing idle can be evicted (429).
	ErrTooManySessions = errors.New("session limit reached")
	// ErrSessionBytes rejects a graph or batch that would push one
	// session past its per-session memory budget (413).
	ErrSessionBytes = errors.New("session memory budget exceeded")
	// ErrResidentBytes rejects work that would push the manager past the
	// global resident-byte budget after idle eviction (429).
	ErrResidentBytes = errors.New("resident memory budget exhausted")
	// ErrBatchTooLarge rejects a delta batch with more ops than
	// Options.MaxDeltaOps (413).
	ErrBatchTooLarge = errors.New("delta batch exceeds op limit")
)

// OpError is a client-caused rejection of a session request. Index >= 0
// names the op of a delta batch that failed (the whole batch was rolled
// back); Index < 0 marks a request rejected before any op ran (a bad
// config or k on create, an empty batch, an unknown repair mode), whose
// text carries no op prefix. The service maps it to a 400.
type OpError struct {
	Index  int
	Reason string
}

func (e *OpError) Error() string {
	if e.Index < 0 {
		return e.Reason
	}
	return fmt.Sprintf("op %d: %s", e.Index, e.Reason)
}

// Config is the per-session partitioning configuration, fixed at create
// time (and by recovery, from the snapshot meta).
type Config struct {
	// K is the number of parts.
	K int
	// Seed drives every repair deterministically — the property log
	// replay relies on.
	Seed int64
	// Ubfactor is the balance target; metrics.Ubfactor resolves the
	// default.
	Ubfactor float64
}

// Validate rejects configs the repair ladder cannot honor, naming every
// bad field in field order, joined with "; ".
func (c Config) Validate() error {
	var errs []error
	if c.K < 2 {
		errs = append(errs, fmt.Errorf("k must be >= 2, got %d", c.K))
	}
	if err := metrics.ValidateUbfactor(c.Ubfactor); err != nil {
		errs = append(errs, fmt.Errorf("ubfactor = %v, %w", c.Ubfactor, err))
	}
	if err := errlist.Join(errs...); err != nil {
		return fmt.Errorf("sessions: %w", err)
	}
	return nil
}

// Options configures a Manager. The zero value is usable: withDefaults
// fills every field.
type Options struct {
	// StateDir, when non-empty, makes sessions durable: one directory
	// per session holding an append-only delta log and periodic
	// snapshots, replayed by NewManager. Empty means memory-only (no
	// recovery, and idle eviction is disabled because evicting would
	// destroy state).
	StateDir string
	// MaxSessions bounds the number of resident sessions (0 means 64).
	MaxSessions int
	// MaxSessionBytes bounds one session's estimated resident bytes
	// (0 means 256 MiB). Oversized creates and batches get 413.
	MaxSessionBytes int64
	// MaxResidentBytes bounds the sum across sessions (0 means 1 GiB).
	// Exceeding it after idle eviction gets 429.
	MaxResidentBytes int64
	// MaxDeltaOps bounds the ops in one delta batch (0 means 4096).
	MaxDeltaOps int
	// IdleTTL is how long a session may go unused before it becomes an
	// eviction candidate (0 means 30m).
	IdleTTL time.Duration
	// SnapshotEvery compacts the delta log into a fresh snapshot after
	// this many records (0 means 64). Ladder tiers >= full also snapshot
	// immediately, because replaying a full repartition costs as much as
	// the snapshot saves.
	SnapshotEvery int

	// CutDriftRatio escalates boundary repair to a full repartition when
	// cut/baseline crosses it (0 means 1.10).
	CutDriftRatio float64
	// VCycleDriftRatio escalates to a fresh V-cycle (0 means 1.5).
	VCycleDriftRatio float64
	// MaxImbalance escalates to a full repartition when k*max(pwgt)/total
	// crosses it regardless of cut drift (0 means 1.15).
	MaxImbalance float64

	// Injector is the fault injector consulted at session/apply and
	// session/repair (nil = faults.Default()).
	Injector *faults.Injector
	// Tracer, when non-nil, receives KindSession events, plus the KindPass
	// events of the boundary and full repair tiers' refinement.
	Tracer trace.Tracer
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxSessions == 0 {
		o.MaxSessions = 64
	}
	if o.MaxSessionBytes == 0 {
		o.MaxSessionBytes = 256 << 20
	}
	if o.MaxResidentBytes == 0 {
		o.MaxResidentBytes = 1 << 30
	}
	if o.MaxDeltaOps == 0 {
		o.MaxDeltaOps = 4096
	}
	if o.IdleTTL == 0 {
		o.IdleTTL = 30 * time.Minute
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 64
	}
	if o.CutDriftRatio == 0 {
		o.CutDriftRatio = 1.10
	}
	if o.VCycleDriftRatio == 0 {
		o.VCycleDriftRatio = 1.5
	}
	if o.MaxImbalance == 0 {
		o.MaxImbalance = 1.15
	}
	if o.Injector == nil {
		o.Injector = faults.Default()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Validate rejects option values the ladder cannot act on coherently:
// non-finite or sub-1 thresholds, an escalation order that would skip
// rungs, and non-positive budgets. Every problem is reported, in field
// order, joined with "; ".
func (o Options) Validate() error {
	var errs []error
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"cut_drift_ratio", o.CutDriftRatio},
		{"vcycle_drift_ratio", o.VCycleDriftRatio},
		{"max_imbalance", o.MaxImbalance},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			errs = append(errs, fmt.Errorf("%s must be finite", f.name))
		} else if f.v != 0 && f.v <= 1 {
			errs = append(errs, fmt.Errorf("%s must be > 1 (or 0 for default), got %v", f.name, f.v))
		}
	}
	cd, vd := o.CutDriftRatio, o.VCycleDriftRatio
	if cd == 0 {
		cd = 1.10
	}
	if vd == 0 {
		vd = 1.5
	}
	if vd < cd {
		errs = append(errs, fmt.Errorf("vcycle_drift_ratio (%v) must be >= cut_drift_ratio (%v)", vd, cd))
	}
	if o.MaxSessions < 0 {
		errs = append(errs, errors.New("max_sessions must be >= 0"))
	}
	if o.MaxSessionBytes < 0 || o.MaxResidentBytes < 0 {
		errs = append(errs, errors.New("memory budgets must be >= 0"))
	}
	if o.MaxSessionBytes != 0 && o.MaxResidentBytes != 0 && o.MaxResidentBytes < o.MaxSessionBytes {
		errs = append(errs, errors.New("max_resident_bytes must be >= max_session_bytes"))
	}
	if o.MaxDeltaOps < 0 {
		errs = append(errs, errors.New("max_delta_ops must be >= 0"))
	}
	if o.IdleTTL < 0 {
		errs = append(errs, errors.New("idle_ttl must be >= 0"))
	}
	if o.SnapshotEvery < 0 {
		errs = append(errs, errors.New("snapshot_every must be >= 0"))
	}
	if err := errlist.Join(errs...); err != nil {
		return fmt.Errorf("sessions: %w", err)
	}
	return nil
}

// State is a point-in-time snapshot of one session, safe to use after
// the manager moves on.
type State struct {
	ID          string
	Vertices    int
	Edges       int
	K           int
	Cut         int
	BaselineCut int
	Balance     float64
	PartWeights []int
	// Where is the partition vector; nil unless the caller asked for it.
	Where []int
	// Seq is the delta-log sequence number (batches + explicit repairs).
	Seq uint64
	// Deltas is the number of delta batches applied this residency.
	Deltas int64
	// ResidentBytes is the session's estimated heap footprint.
	ResidentBytes int64
	// LastRepair names the tier of the most recent successful repair.
	LastRepair string
	// RepairFailed reports that the most recent repair attempt failed
	// (fault or panic) and its drift is still pending.
	RepairFailed bool
	// Recovered reports the session was rebuilt from disk this process.
	Recovered bool
	// Degraded reports recovery could not verify the logged cuts and
	// fell back to a fresh V-cycle.
	Degraded bool
}

// Stats is the manager-level counter snapshot behind the varz block.
type Stats struct {
	Sessions         int
	ResidentBytes    int64
	MaxSessions      int
	MaxResidentBytes int64

	Created           int64
	Recovered         int64
	RecoveredDegraded int64
	RecoverFailures   int64
	EvictedIdle       int64
	Deleted           int64

	DeltasApplied int64
	OpsApplied    int64
	ShedBatch     int64
	ShedMemory    int64
	ApplyFailures int64

	RepairsBoundary int64
	RepairsFull     int64
	RepairsVCycle   int64
	RepairFailures  int64

	WALErrors      int64
	WALTruncations int64
}

// Manager owns the session registry, budgets and durability.
type Manager struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*session
	resident atomic.Int64

	created           atomic.Int64
	recovered         atomic.Int64
	recoveredDegraded atomic.Int64
	recoverFailures   atomic.Int64
	evictedIdle       atomic.Int64
	deleted           atomic.Int64
	deltasApplied     atomic.Int64
	opsApplied        atomic.Int64
	shedBatch         atomic.Int64
	shedMemory        atomic.Int64
	applyFailures     atomic.Int64
	repairsBoundary   atomic.Int64
	repairsFull       atomic.Int64
	repairsVCycle     atomic.Int64
	repairFailures    atomic.Int64
	walErrors         atomic.Int64
	walTruncations    atomic.Int64
}

type session struct {
	mu sync.Mutex

	id       string
	dir      string // "" in memory-only mode
	k        int
	seed     int64
	ubfactor float64

	dg    *dynGraph
	where []int
	pwgt  []int
	cut   int
	// ws is the arena the boundary and full repair tiers refine in. It
	// keeps their arrays, and the where vector a repair replaces, for the
	// next repair, and is counted in bytes. A failed repair replaces it.
	ws *workspace.Workspace

	baselineCut int
	seq         uint64
	deltas      int64
	bytes       int64

	created  time.Time
	lastUsed time.Time

	wal           *os.File
	recsSinceSnap int
	dirty         bool

	lastTier     Tier
	repairFailed bool
	recovered    bool
	degraded     bool
	closed       bool
}

// NewManager validates opts, creates the state dir if configured, and
// eagerly recovers every session found on disk.
func NewManager(opts Options) (*Manager, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	m := &Manager{opts: opts, sessions: make(map[string]*session)}
	if opts.StateDir != "" {
		if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("sessions: state dir: %w", err)
		}
		m.recoverAll()
	}
	return m, nil
}

// IDFor returns the session id of a graph: its content fingerprint.
func IDFor(g *graph.Graph) string {
	return fmt.Sprintf("g%016x", g.Fingerprint())
}

func (m *Manager) now() time.Time { return m.opts.Now() }

func (m *Manager) emit(e trace.Event) {
	if m.opts.Tracer != nil {
		e.Kind = trace.KindSession
		m.opts.Tracer.Event(e)
	}
}

// estimateCreateBytes predicts the resident footprint of a graph before
// building the dynamic form, so admission can reject it allocation-free.
func estimateCreateBytes(g *graph.Graph) int64 {
	return estimateBytes(int64(g.NumVertices()), int64(len(g.Adjncy)))
}

// entryBytes is the estimated footprint of one directed entry: its map
// entry, its Adjncy and Adjwgt words in the CSR snapshot, and one pair
// (two words) in the repair arena's pair pools.
const entryBytes = bytesPerDirEntry + 4*8

// estimateBytes predicts the footprint of a session over n vertices and
// dir directed entries once it has repaired: the dynamic form, the CSR
// snapshot, where, and the repair arena. The arena holds the boundary
// refinement's eight vertex arrays, the copy of where a repair refines and
// a byte per vertex, plus pair pools that start at no more than one pair
// per directed entry (entryBytes).
func estimateBytes(n, dir int64) int64 {
	csr := (2*n + 1) * 8
	arena := n * (9*8 + 1)
	return n*bytesPerVertex + dir*entryBytes + csr + n*8 + arena
}

// Create admits a new resident graph, computes its initial k-way
// partition with a full multilevel V-cycle, persists the first snapshot
// and returns its state.
//
// g must be a valid graph (g.Validate() == nil); Create does not check it
// again. The service's JSON and csrb decoders validate every graph they
// return, and a second O(n + m) pass would cost a large create tens of
// milliseconds and a transpose of scratch.
func (m *Manager) Create(g *graph.Graph, cfg Config) (*State, error) {
	return m.CreateCtx(context.Background(), g, cfg)
}

// CreateCtx is Create under ctx: the initial V-cycle checks it at every
// level boundary, and a create it ends returns the wrapped ctx.Err() and
// leaves no session behind.
func (m *Manager) CreateCtx(ctx context.Context, g *graph.Graph, cfg Config) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &OpError{Index: -1, Reason: err.Error()}
	}
	if g.NumVertices() < cfg.K {
		return nil, &OpError{Index: -1, Reason: fmt.Sprintf("k=%d exceeds vertex count %d", cfg.K, g.NumVertices())}
	}
	est := estimateCreateBytes(g)
	if est > m.opts.MaxSessionBytes {
		m.shedMemory.Add(1)
		return nil, fmt.Errorf("%w: graph needs ~%d bytes, budget %d", ErrSessionBytes, est, m.opts.MaxSessionBytes)
	}
	id := IDFor(g)
	now := m.now()

	m.mu.Lock()
	if _, ok := m.sessions[id]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	if len(m.sessions) >= m.opts.MaxSessions {
		m.mu.Unlock()
		m.evictIdle(now, 0, nil)
		m.mu.Lock()
		if _, ok := m.sessions[id]; ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrExists, id)
		}
		if len(m.sessions) >= m.opts.MaxSessions {
			m.mu.Unlock()
			return nil, ErrTooManySessions
		}
	}
	if m.resident.Load()+est > m.opts.MaxResidentBytes {
		m.mu.Unlock()
		m.evictIdle(now, est, nil)
		m.mu.Lock()
		if _, ok := m.sessions[id]; ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrExists, id)
		}
		if m.resident.Load()+est > m.opts.MaxResidentBytes {
			m.mu.Unlock()
			m.shedMemory.Add(1)
			return nil, ErrResidentBytes
		}
	}
	s := &session{
		id:       id,
		k:        cfg.K,
		seed:     cfg.Seed,
		ubfactor: cfg.Ubfactor,
		created:  now,
		lastUsed: now,
		lastTier: TierNone,
		ws:       new(workspace.Workspace),
	}
	s.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	defer s.mu.Unlock()

	fail := func(err error) (*State, error) {
		m.mu.Lock()
		delete(m.sessions, id)
		m.mu.Unlock()
		s.closed = true
		return nil, err
	}

	start := time.Now()
	res, err := multilevel.PartitionKWay(g, cfg.K, multilevel.Options{
		Seed:     cfg.Seed,
		Ubfactor: cfg.Ubfactor,
		Context:  ctx,
		Injector: m.opts.Injector,
	})
	if err != nil {
		return fail(err)
	}
	s.dg = newDynGraph(g)
	s.where = res.Where
	s.pwgt = res.PartWeights
	s.cut = res.EdgeCut
	s.baselineCut = s.cut

	if m.opts.StateDir != "" {
		s.dir = filepath.Join(m.opts.StateDir, id)
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return fail(fmt.Errorf("sessions: session dir: %w", err))
		}
		if err := s.writeSnapshot(m); err != nil {
			os.RemoveAll(s.dir)
			return fail(fmt.Errorf("sessions: initial snapshot: %w", err))
		}
		if err := s.openWAL(); err != nil {
			os.RemoveAll(s.dir)
			return fail(fmt.Errorf("sessions: delta log: %w", err))
		}
	}
	s.refreshBytes(m)
	m.created.Add(1)
	m.emit(trace.Event{Session: id, Phase: "created", Cut: s.cut, Vertices: g.NumVertices(), Edges: g.NumEdges(), ElapsedNS: time.Since(start).Nanoseconds()})
	return s.state(false), nil
}

// acquire resolves id to a locked session, lazily reloading an evicted
// one from disk. The caller must unlock it.
func (m *Manager) acquire(id string) (*session, error) {
	for {
		m.mu.Lock()
		s, ok := m.sessions[id]
		m.mu.Unlock()
		if ok {
			s.mu.Lock()
			if s.closed {
				// Lost a race with eviction or deletion; retry.
				s.mu.Unlock()
				continue
			}
			return s, nil
		}
		if m.opts.StateDir == "" {
			return nil, ErrNotFound
		}
		dir := filepath.Join(m.opts.StateDir, id)
		if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
			return nil, ErrNotFound
		}
		loaded, err := m.loadFromDisk(id)
		if err != nil {
			m.recoverFailures.Add(1)
			return nil, fmt.Errorf("sessions: reload %s: %w", id, err)
		}
		m.mu.Lock()
		if _, ok := m.sessions[id]; ok {
			// Someone else reloaded it first; discard ours and retry.
			m.mu.Unlock()
			loaded.discard(m)
			continue
		}
		m.sessions[id] = loaded
		m.mu.Unlock()
		m.recovered.Add(1)
		m.emit(trace.Event{Session: id, Phase: "recovered", Cut: loaded.cut})
	}
}

// Get returns a session's state; withWhere includes the partition vector.
func (m *Manager) Get(id string, withWhere bool) (*State, error) {
	s, err := m.acquire(id)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	s.lastUsed = m.now()
	return s.state(withWhere), nil
}

// List returns the states of all resident sessions, sorted by id.
func (m *Manager) List() []*State {
	m.mu.Lock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	states := make([]*State, 0, len(all))
	for _, s := range all {
		s.mu.Lock()
		if !s.closed {
			states = append(states, s.state(false))
		}
		s.mu.Unlock()
	}
	sort.Slice(states, func(i, j int) bool { return states[i].ID < states[j].ID })
	return states
}

// estimateGrowth bounds the resident-byte growth of a batch (only adds
// grow the graph; reweights and removes do not).
func estimateGrowth(ops []Op) int64 {
	var g int64
	for _, op := range ops {
		if op.Op == OpAdd {
			g += 2 * entryBytes
		}
	}
	return g
}

// Apply applies one delta batch atomically, then repairs the partition
// at the tier the drift guards choose. A validation error or injected
// fault mid-batch rolls the applied prefix back — the session is
// exactly as if the batch never arrived. A failed repair keeps the
// applied batch (it is durable and consistent) and reports
// RepairFailed; the drift stays pending for the next batch.
func (m *Manager) Apply(id string, ops []Op) (*State, error) {
	if len(ops) == 0 {
		return nil, &OpError{Index: -1, Reason: "empty delta batch"}
	}
	if len(ops) > m.opts.MaxDeltaOps {
		m.shedBatch.Add(1)
		return nil, fmt.Errorf("%w: %d ops > limit %d", ErrBatchTooLarge, len(ops), m.opts.MaxDeltaOps)
	}
	s, err := m.acquire(id)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	now := m.now()
	s.lastUsed = now

	growth := estimateGrowth(ops)
	if s.bytes+growth > m.opts.MaxSessionBytes {
		m.shedMemory.Add(1)
		return nil, fmt.Errorf("%w: batch would grow session past %d bytes", ErrSessionBytes, m.opts.MaxSessionBytes)
	}
	if m.resident.Load()+growth > m.opts.MaxResidentBytes {
		m.evictIdle(now, growth, s)
		if m.resident.Load()+growth > m.opts.MaxResidentBytes {
			m.shedMemory.Add(1)
			return nil, ErrResidentBytes
		}
	}

	start := time.Now()
	undo := make([]Op, 0, len(ops))
	ferr := faults.Boundary(faults.SiteSessionApply, func() error {
		if ierr := m.opts.Injector.Fire(faults.SiteSessionApply); ierr != nil {
			return ierr
		}
		for i := range ops {
			inv, aerr := s.applyOp(ops[i])
			if aerr != nil {
				return &OpError{Index: i, Reason: aerr.Error()}
			}
			undo = append(undo, inv)
		}
		return nil
	})
	if ferr != nil {
		// Roll the applied prefix back, newest first. Inverse ops are
		// valid by construction, so rollback cannot fail.
		for i := len(undo) - 1; i >= 0; i-- {
			if _, rerr := s.applyOp(undo[i]); rerr != nil {
				panic(fmt.Sprintf("sessions: rollback failed: %v", rerr))
			}
		}
		var oe *OpError
		if errors.As(ferr, &oe) {
			return nil, oe
		}
		m.applyFailures.Add(1)
		return nil, ferr
	}

	s.seq++
	s.deltas++
	m.deltasApplied.Add(1)
	m.opsApplied.Add(int64(len(ops)))

	tier := s.autoTier(m.opts)
	recorded := tier
	if rerr := s.repair(m, tier, false); rerr != nil {
		recorded = TierNone
		s.repairFailed = true
	} else {
		s.repairFailed = false
		s.lastTier = tier
	}
	s.appendWAL(m, walRecord{Ops: ops, Tier: recorded, Cut: s.cut})
	s.maybeSnapshot(m, recorded >= TierFull)
	s.refreshBytes(m)
	m.emit(trace.Event{Session: id, Phase: "delta", Algorithm: recorded.String(), Cut: s.cut, Moves: len(ops), ElapsedNS: time.Since(start).Nanoseconds()})
	return s.state(false), nil
}

// Repair runs an explicit repartition of a session. Mode is "auto" (or
// empty) for the ladder's choice, or "boundary", "full", "vcycle" (any
// case) to force a tier.
func (m *Manager) Repair(id, mode string) (*State, error) {
	tier, err := parseMode(mode)
	if err != nil {
		return nil, err
	}
	s, err := m.acquire(id)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	s.lastUsed = m.now()
	if tier == TierNone {
		tier = s.autoTier(m.opts)
	}
	start := time.Now()
	if rerr := s.repair(m, tier, false); rerr != nil {
		s.repairFailed = true
		s.refreshBytes(m)
		return nil, rerr
	}
	s.repairFailed = false
	s.lastTier = tier
	s.seq++
	s.appendWAL(m, walRecord{Tier: tier, Cut: s.cut})
	s.maybeSnapshot(m, tier >= TierFull)
	s.refreshBytes(m)
	m.emit(trace.Event{Session: id, Phase: "repair", Algorithm: tier.String(), Cut: s.cut, ElapsedNS: time.Since(start).Nanoseconds()})
	return s.state(true), nil
}

// Delete removes a session from memory and disk.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if s != nil {
		s.mu.Lock()
		s.closed = true
		s.closeWAL()
		m.resident.Add(-s.bytes)
		s.bytes = 0
		s.mu.Unlock()
	}
	removed := ok
	if m.opts.StateDir != "" {
		dir := filepath.Join(m.opts.StateDir, id)
		if _, err := os.Stat(dir); err == nil {
			os.RemoveAll(dir)
			removed = true
		}
	}
	if !removed {
		return ErrNotFound
	}
	m.deleted.Add(1)
	m.emit(trace.Event{Session: id, Phase: "deleted"})
	return nil
}

// Sweep evicts every idle session (durable mode); cmd/mlserved calls it
// periodically. Returns the number evicted.
func (m *Manager) Sweep() int {
	return m.evictIdle(m.now(), math.MaxInt64, nil)
}

// evictIdle flushes idle sessions to disk and drops them from memory
// until `need` bytes are free (0 = just enforce MaxSessions headroom,
// MaxInt64 = evict all idle). Memory-only managers never evict: there
// is no disk to flush to, so eviction would destroy state.
func (m *Manager) evictIdle(now time.Time, need int64, exclude *session) int {
	if m.opts.StateDir == "" {
		return 0
	}
	m.mu.Lock()
	candidates := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != exclude {
			candidates = append(candidates, s)
		}
	}
	m.mu.Unlock()

	evicted := 0
	var freed int64
	for _, s := range candidates {
		if need != math.MaxInt64 && freed >= need && evicted > 0 {
			break
		}
		if !s.mu.TryLock() {
			continue // busy session: by definition not idle
		}
		if s.closed || now.Sub(s.lastUsed) < m.opts.IdleTTL {
			s.mu.Unlock()
			continue
		}
		if s.dirty {
			if err := s.writeSnapshot(m); err != nil {
				m.walErrors.Add(1)
				s.mu.Unlock()
				continue // keep it resident rather than lose state
			}
		}
		s.closed = true
		s.closeWAL()
		m.mu.Lock()
		delete(m.sessions, s.id)
		m.mu.Unlock()
		m.resident.Add(-s.bytes)
		freed += s.bytes
		s.bytes = 0
		s.mu.Unlock()
		evicted++
		m.evictedIdle.Add(1)
		m.emit(trace.Event{Session: s.id, Phase: "evicted"})
	}
	return evicted
}

// Close flushes every dirty session's snapshot and closes the delta
// logs. Part of daemon drain.
func (m *Manager) Close() error {
	m.mu.Lock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	var first error
	for _, s := range all {
		s.mu.Lock()
		if !s.closed && s.dirty && s.dir != "" {
			if err := s.writeSnapshot(m); err != nil && first == nil {
				first = err
			}
		}
		s.closeWAL()
		s.mu.Unlock()
	}
	return first
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	count := len(m.sessions)
	m.mu.Unlock()
	return Stats{
		Sessions:          count,
		ResidentBytes:     m.resident.Load(),
		MaxSessions:       m.opts.MaxSessions,
		MaxResidentBytes:  m.opts.MaxResidentBytes,
		Created:           m.created.Load(),
		Recovered:         m.recovered.Load(),
		RecoveredDegraded: m.recoveredDegraded.Load(),
		RecoverFailures:   m.recoverFailures.Load(),
		EvictedIdle:       m.evictedIdle.Load(),
		Deleted:           m.deleted.Load(),
		DeltasApplied:     m.deltasApplied.Load(),
		OpsApplied:        m.opsApplied.Load(),
		ShedBatch:         m.shedBatch.Load(),
		ShedMemory:        m.shedMemory.Load(),
		ApplyFailures:     m.applyFailures.Load(),
		RepairsBoundary:   m.repairsBoundary.Load(),
		RepairsFull:       m.repairsFull.Load(),
		RepairsVCycle:     m.repairsVCycle.Load(),
		RepairFailures:    m.repairFailures.Load(),
		WALErrors:         m.walErrors.Load(),
		WALTruncations:    m.walTruncations.Load(),
	}
}

// ---- session internals (caller holds s.mu) ----

// applyOp applies one op and returns its inverse for rollback.
func (s *session) applyOp(op Op) (Op, error) {
	n := s.dg.numVertices()
	if op.U < 0 || op.U >= n {
		return Op{}, fmt.Errorf("vertex u=%d out of range [0,%d)", op.U, n)
	}
	switch op.Op {
	case OpAdd:
		if op.V < 0 || op.V >= n {
			return Op{}, fmt.Errorf("vertex v=%d out of range [0,%d)", op.V, n)
		}
		if op.U == op.V {
			return Op{}, fmt.Errorf("self loop on vertex %d", op.U)
		}
		if op.W <= 0 {
			return Op{}, fmt.Errorf("edge weight must be > 0, got %d", op.W)
		}
		old, had := s.dg.edgeWeight(op.U, op.V)
		s.dg.setEdge(op.U, op.V, op.W)
		if s.where[op.U] != s.where[op.V] {
			s.cut += op.W - old
		}
		if had {
			return Op{Op: OpAdd, U: op.U, V: op.V, W: old}, nil
		}
		return Op{Op: OpRemove, U: op.U, V: op.V}, nil
	case OpRemove:
		if op.V < 0 || op.V >= n {
			return Op{}, fmt.Errorf("vertex v=%d out of range [0,%d)", op.V, n)
		}
		old, had := s.dg.edgeWeight(op.U, op.V)
		if !had {
			return Op{}, fmt.Errorf("edge (%d,%d) does not exist", op.U, op.V)
		}
		s.dg.delEdge(op.U, op.V)
		if s.where[op.U] != s.where[op.V] {
			s.cut -= old
		}
		return Op{Op: OpAdd, U: op.U, V: op.V, W: old}, nil
	case OpVwgt:
		if op.W <= 0 {
			return Op{}, fmt.Errorf("vertex weight must be > 0, got %d", op.W)
		}
		old := s.dg.vwgt[op.U]
		s.dg.setVwgt(op.U, op.W)
		s.pwgt[s.where[op.U]] += op.W - old
		return Op{Op: OpVwgt, U: op.U, W: old}, nil
	default:
		return Op{}, fmt.Errorf("unknown op %q", op.Op)
	}
}

// balance returns k*max(pwgt)/total.
func (s *session) balance() float64 { return metrics.Balance(s.pwgt) }

// autoTier picks the ladder rung from the drift guards.
func (s *session) autoTier(opts Options) Tier {
	base := s.baselineCut
	if base < 1 {
		base = 1
	}
	drift := float64(s.cut) / float64(base)
	switch {
	case drift >= opts.VCycleDriftRatio:
		return TierVCycle
	case drift >= opts.CutDriftRatio || s.balance() > opts.MaxImbalance:
		return TierFull
	default:
		return TierBoundary
	}
}

// repair runs one ladder tier against the current graph. In replay
// mode the fault injector is bypassed: recovery must reproduce the
// logged run, not re-roll its dice.
func (s *session) repair(m *Manager, tier Tier, replay bool) error {
	if tier == TierNone {
		return nil
	}
	var inj *faults.Injector
	if !replay {
		inj = m.opts.Injector
	}
	err := faults.Boundary(faults.SiteSessionRepair, func() error {
		if ierr := inj.Fire(faults.SiteSessionRepair); ierr != nil {
			return ierr
		}
		g := s.dg.snapshot()
		switch tier {
		case TierBoundary:
			p := s.partition(g)
			refine.RefineKWay(p, refine.KWayOptions{Ubfactor: s.ubfactor, Seed: s.seed, Workers: 1, Workspace: s.ws, Tracer: m.opts.Tracer, Injector: inj})
			s.adopt(p, false)
		case TierFull:
			p := s.partition(g)
			refine.RepartitionKWay(p, s.where, kway.RebalanceOptions{Ubfactor: s.ubfactor, Seed: s.seed}, m.opts.Tracer, s.ws)
			s.adopt(p, true)
		case TierVCycle:
			res, verr := multilevel.PartitionKWay(g, s.k, multilevel.Options{
				Seed:     s.seed,
				Ubfactor: s.ubfactor,
				Injector: inj,
			})
			if verr != nil {
				return verr
			}
			// The cycle's where is copied into an arena piece, so that the
			// session only ever holds vectors its arena lent.
			p := s.partition(g)
			copy(p.Where, res.Where)
			p.Pwgt, p.Cut = res.PartWeights, res.EdgeCut
			s.adopt(p, true)
		default:
			return fmt.Errorf("sessions: unknown repair tier %d", tier)
		}
		return nil
	})
	if err != nil {
		m.repairFailures.Add(1)
		// The failed tier abandoned what it had drawn from the arena, and
		// an abandoned piece stays pinned in its block, uncounted: the next
		// repair starts on a new arena. where may lie in the old one, so
		// it moves out too, or it would keep that arena's block alive.
		s.ws = new(workspace.Workspace)
		s.where = slices.Clone(s.where)
		return err
	}
	switch tier {
	case TierBoundary:
		m.repairsBoundary.Add(1)
	case TierFull:
		m.repairsFull.Add(1)
	case TierVCycle:
		m.repairsVCycle.Add(1)
	}
	return nil
}

// partition returns the session's partition of g, its current graph, as
// refinement state for a repair: a copy of where, drawn from the session's
// arena, with the part weights and cut that every op keeps current
// (applyOp) rather than a recount. The copies leave the session untouched
// until adopt, whatever the repair does.
func (s *session) partition(g *graph.Graph) *kway.Partition {
	where := s.ws.Int(len(s.where))
	copy(where, s.where)
	return &kway.Partition{G: g, K: s.k, Where: where, Pwgt: slices.Clone(s.pwgt), Cut: s.cut}
}

// adopt commits a repaired partition, returning the where vector it
// replaces to the session's arena for the next repair's copy; tiers that
// rebuild globally reset the drift baseline.
func (s *session) adopt(p *kway.Partition, resetBaseline bool) {
	s.ws.PutInt(s.where)
	s.where = p.Where
	s.pwgt = p.Pwgt
	s.cut = p.Cut
	if resetBaseline {
		s.baselineCut = s.cut
	}
	s.dirty = true
}

// state snapshots the session for callers outside the lock.
func (s *session) state(withWhere bool) *State {
	st := &State{
		ID:            s.id,
		Vertices:      s.dg.numVertices(),
		Edges:         s.dg.dir / 2,
		K:             s.k,
		Cut:           s.cut,
		BaselineCut:   s.baselineCut,
		Balance:       s.balance(),
		PartWeights:   append([]int(nil), s.pwgt...),
		Seq:           s.seq,
		Deltas:        s.deltas,
		ResidentBytes: s.bytes,
		LastRepair:    s.lastTier.String(),
		RepairFailed:  s.repairFailed,
		Recovered:     s.recovered,
		Degraded:      s.degraded,
	}
	if withWhere {
		st.Where = append([]int(nil), s.where...)
	}
	return st
}

// refreshBytes re-derives the session's footprint, its repair arena
// included, and settles the difference into the manager's resident total.
func (s *session) refreshBytes(m *Manager) {
	nb := s.dg.bytes() + int64(len(s.where)+len(s.pwgt))*8 + s.ws.Bytes()
	m.resident.Add(nb - s.bytes)
	s.bytes = nb
}

// ---- durability (caller holds s.mu) ----

func (s *session) openWAL() error {
	f, err := os.OpenFile(filepath.Join(s.dir, deltaLogFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	return nil
}

func (s *session) closeWAL() {
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
}

// appendWAL logs one record. Append failures shed durability, not
// service: the in-memory state stays authoritative, the failure is
// counted, and the next successful snapshot re-establishes a clean
// recovery point.
func (s *session) appendWAL(m *Manager, rec walRecord) {
	s.dirty = true
	if s.wal == nil {
		return
	}
	buf, err := encodeRecord(s.seq, rec)
	if err == nil {
		_, err = s.wal.Write(buf)
	}
	if err != nil {
		m.walErrors.Add(1)
		return
	}
	s.recsSinceSnap++
}

// writeSnapshot persists the full session state atomically.
func (s *session) writeSnapshot(m *Manager) error {
	if s.dir == "" {
		return nil
	}
	meta := snapshotMeta{
		Seq:         s.seq,
		K:           s.k,
		Seed:        s.seed,
		Ubfactor:    s.ubfactor,
		BaselineCut: s.baselineCut,
		CreatedUnix: s.created.Unix(),
	}
	data, err := encodeSnapshot(meta, s.dg.snapshot(), s.where)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, snapshotFile), data); err != nil {
		return err
	}
	// The snapshot supersedes the log: truncate it only after the
	// rename published the new snapshot. A crash between the two just
	// replays records the snapshot already covers (skipped by seq).
	if s.wal != nil {
		if err := s.wal.Truncate(0); err != nil {
			m.walErrors.Add(1)
		} else if _, err := s.wal.Seek(0, 0); err != nil {
			m.walErrors.Add(1)
		}
	}
	s.recsSinceSnap = 0
	s.dirty = false
	return nil
}

func (s *session) maybeSnapshot(m *Manager, force bool) {
	if s.dir == "" {
		return
	}
	if force || s.recsSinceSnap >= m.opts.SnapshotEvery {
		if err := s.writeSnapshot(m); err != nil {
			m.walErrors.Add(1)
		}
	}
}

// discard releases a session that lost an insertion race (never
// published, nothing to persist).
func (s *session) discard(m *Manager) {
	s.mu.Lock()
	s.closed = true
	s.closeWAL()
	s.mu.Unlock()
}

// ---- recovery ----

// recoverAll loads every session directory under the state dir. A
// directory that cannot be recovered is skipped (counted), never fatal:
// one corrupt session must not take the daemon down.
func (m *Manager) recoverAll() {
	entries, err := os.ReadDir(m.opts.StateDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		s, lerr := m.loadFromDisk(id)
		if lerr != nil {
			m.recoverFailures.Add(1)
			continue
		}
		m.mu.Lock()
		m.sessions[id] = s
		m.mu.Unlock()
		m.recovered.Add(1)
		m.emit(trace.Event{Session: id, Phase: "recovered", Cut: s.cut})
	}
}

// loadFromDisk rebuilds a session from its snapshot plus delta-log
// tail. Replay re-runs each record's repair at its recorded tier with
// the session seed and verifies the logged cut; any divergence (or a
// torn op) degrades to a fresh V-cycle instead of trusting drifted
// state. The returned session is not yet registered.
func (m *Manager) loadFromDisk(id string) (*session, error) {
	dir := filepath.Join(m.opts.StateDir, id)
	snapData, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	meta, g, where, err := decodeSnapshot(snapData)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sessions: snapshot graph invalid: %w", err)
	}
	if meta.K < 2 || len(where) != g.NumVertices() {
		return nil, errors.New("sessions: snapshot meta inconsistent")
	}
	now := m.now()
	s := &session{
		id:          id,
		dir:         dir,
		k:           meta.K,
		seed:        meta.Seed,
		ubfactor:    meta.Ubfactor,
		dg:          newDynGraph(g),
		created:     time.Unix(meta.CreatedUnix, 0),
		lastUsed:    now,
		baselineCut: meta.BaselineCut,
		seq:         meta.Seq,
		lastTier:    TierNone,
		recovered:   true,
		ws:          new(workspace.Workspace),
	}
	wcopy := append([]int(nil), where...)
	p := kway.NewPartition(g, meta.K, wcopy)
	s.where = wcopy
	s.pwgt = p.Pwgt
	s.cut = p.Cut

	logPath := filepath.Join(dir, deltaLogFile)
	logData, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	recs, good := decodeRecords(logData)
	if good < len(logData) {
		m.walTruncations.Add(1)
		if terr := os.Truncate(logPath, int64(good)); terr != nil {
			m.walErrors.Add(1)
		}
	}
	replayed := 0
	degraded := false
	for _, r := range recs {
		if r.Seq <= meta.Seq {
			continue
		}
		for _, op := range r.Rec.Ops {
			if _, aerr := s.applyOp(op); aerr != nil {
				// The graph diverged from the log; keep applying what
				// fits so the structure is as complete as possible,
				// then repartition from scratch below.
				degraded = true
			}
		}
		s.seq = r.Seq
		replayed++
		if degraded {
			continue
		}
		if r.Rec.Tier != TierNone {
			if rerr := s.repair(m, r.Rec.Tier, true); rerr != nil {
				degraded = true
				continue
			}
		}
		if s.cut != r.Rec.Cut {
			degraded = true
		}
	}
	if degraded {
		if rerr := s.repair(m, TierVCycle, true); rerr != nil {
			return nil, fmt.Errorf("sessions: degraded recovery repartition: %w", rerr)
		}
		s.degraded = true
		m.recoveredDegraded.Add(1)
	}
	if replayed > 0 || good < len(logData) || degraded {
		// Compact what we just proved out into a fresh recovery point.
		if serr := s.writeSnapshot(m); serr != nil {
			m.walErrors.Add(1)
		}
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.refreshBytes(m)
	return s, nil
}
