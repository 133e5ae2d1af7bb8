package mlpart

// This file is the single source of truth for the JSON wire schema shared
// by the `mlpart -json` CLI mode and the mlserved HTTP daemon
// (internal/service, cmd/mlserved): a client that can parse one can parse
// the other without remapping fields. Options and RepartitionOptions
// complete the schema; see their declarations for the option tags.

import (
	"mlpart/internal/graph"
	"mlpart/internal/initpart"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
)

// SchemaVersion is the version of the /v1 wire schema. Every response
// object — results and errors, from the daemon and from `mlpart -json`
// alike — carries it in its "schema_version" field so clients can detect
// incompatible changes mechanically instead of by breakage. The version
// only increments on breaking changes (a removed or re-typed field);
// additive fields ship under the same version. docs/SERVICE.md states the
// full versioning and deprecation policy.
const SchemaVersion = 1

// Request body encodings accepted by the daemon's compute endpoints. A
// request with any other Content-Type is rejected with 415 Unsupported
// Media Type. Responses are always JSON.
const (
	// ContentTypeJSON is the default encoding: a JSON request object
	// (PartitionRequest, OrderRequest or RepartitionRequest). An absent
	// Content-Type means JSON.
	ContentTypeJSON = "application/json"
	// ContentTypeBinaryCSR is the zero-copy encoding: the body is a binary
	// CSR payload (WriteBinaryGraph / WriteBinaryGraphPart; layout in
	// docs/WIRE.md) and the non-graph request fields travel as URL query
	// parameters instead (see docs/SERVICE.md).
	ContentTypeBinaryCSR = "application/x-mlpart-csr"
)

// Wire kind discriminators: every response object carries one in its
// "kind" field, and the CLI -trace stream uses the trace event kinds
// alongside them.
const (
	// WireKindResult tags a PartitionResponse.
	WireKindResult = "result"
	// WireKindOrder tags an OrderResponse.
	WireKindOrder = "order_result"
	// WireKindRepartition tags a RepartitionResponse.
	WireKindRepartition = "repartition_result"
	// WireKindError tags an ErrorResponse.
	WireKindError = "error"
	// WireKindJob tags a JobResponse.
	WireKindJob = "job"
	// WireKindBatch tags a BatchResponse.
	WireKindBatch = "batch"
	// WireKindSession tags a SessionResponse.
	WireKindSession = "session"
	// WireKindSessionList tags a SessionListResponse.
	WireKindSessionList = "session_list"
	// WireKindCapabilities tags a CapabilitiesResponse.
	WireKindCapabilities = "capabilities"
)

// Job lifecycle states as they appear in JobResponse.State. A job is
// active while "queued" or "running"; "done", "failed" and "canceled"
// are terminal. See docs/SERVICE.md for the polling contract.
const (
	JobStateQueued   = "queued"
	JobStateRunning  = "running"
	JobStateDone     = "done"
	JobStateFailed   = "failed"
	JobStateCanceled = "canceled"
)

// Job types accepted by POST /v1/jobs?type= and BatchJob.Type.
const (
	JobTypePartition   = "partition"
	JobTypeOrder       = "order"
	JobTypeRepartition = "repartition"
)

// Partition methods accepted by PartitionRequest.Method.
const (
	// MethodRecursive is multilevel recursive bisection (the default).
	MethodRecursive = "recursive"
	// MethodKWay is the direct multilevel k-way scheme.
	MethodKWay = "kway"
)

// WireGraph is a graph in CSR form as it crosses the wire: the same four
// arrays NewGraphFromCSR accepts. Adjwgt and Vwgt may be omitted for unit
// weights.
type WireGraph struct {
	Xadj   []int `json:"xadj"`
	Adjncy []int `json:"adjncy"`
	Adjwgt []int `json:"adjwgt,omitempty"`
	Vwgt   []int `json:"vwgt,omitempty"`
}

// NewWireGraph copies g into its wire form.
func NewWireGraph(g *Graph) *WireGraph {
	return &WireGraph{
		Xadj:   append([]int(nil), g.Xadj...),
		Adjncy: append([]int(nil), g.Adjncy...),
		Adjwgt: append([]int(nil), g.Adjwgt...),
		Vwgt:   append([]int(nil), g.Vwgt...),
	}
}

// ToGraph validates the CSR arrays and returns the in-memory Graph.
func (w *WireGraph) ToGraph() (*Graph, error) {
	return NewGraphFromCSR(w.Xadj, w.Adjncy, w.Adjwgt, w.Vwgt)
}

// PartitionRequest asks for a k-way partition of Graph. Exactly one of K
// (with Method "" / MethodRecursive / MethodKWay) or Fractions (weighted
// parts, implies recursive bisection) selects the scheme.
type PartitionRequest struct {
	Graph WireGraph `json:"graph"`
	// K is the number of parts (ignored when Fractions is set).
	K int `json:"k,omitempty"`
	// Fractions are per-part target weight fractions for heterogeneous
	// parts; when non-empty the partition is len(Fractions)-way.
	Fractions []float64 `json:"fractions,omitempty"`
	// Method selects the scheme: "" or MethodRecursive for recursive
	// bisection, MethodKWay for direct k-way. Incompatible with Fractions.
	Method  string   `json:"method,omitempty"`
	Options *Options `json:"options,omitempty"`
	// TimeoutMS bounds the computation; the server clamps it to its own
	// per-request ceiling. 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// OrderRequest asks for a fill-reducing nested-dissection ordering.
type OrderRequest struct {
	Graph   WireGraph `json:"graph"`
	Options *Options  `json:"options,omitempty"`
	// Analyze additionally runs the symbolic Cholesky analysis of the
	// ordering (fill, opcount, tree height) and returns it in the
	// response.
	Analyze   bool  `json:"analyze,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RepartitionRequest asks to adapt an existing partition Where to the
// graph's current vertex weights, minimizing migration.
type RepartitionRequest struct {
	Graph WireGraph `json:"graph"`
	K     int       `json:"k"`
	// Where is the incumbent partition vector, length n, parts in [0, K).
	Where     []int               `json:"where"`
	Options   *RepartitionOptions `json:"options,omitempty"`
	TimeoutMS int64               `json:"timeout_ms,omitempty"`
}

// PartitionResponse is the result object of a partition, emitted
// identically by `mlpart -json` and POST /v1/partition. The CLI omits
// Where (it goes to -o) and the daemon omits Graph and ElapsedNS (timing
// travels in the X-Compute-Ns header so that cached replies stay
// byte-identical to cold ones).
type PartitionResponse struct {
	Kind string `json:"kind"`
	// SchemaVersion is always SchemaVersion (1); see the constant.
	SchemaVersion int     `json:"schema_version"`
	Graph         string  `json:"graph,omitempty"`
	Vertices      int     `json:"vertices"`
	Edges         int     `json:"edges"`
	K             int     `json:"k"`
	EdgeCut       int     `json:"edge_cut"`
	Balance       float64 `json:"balance"`
	PartWeights   []int   `json:"part_weights"`
	Where         []int   `json:"where,omitempty"`
	// Cycles is the number of multilevel cycles that completed (1 under
	// the default fast preset; see Options.Preset). Additive field, same
	// schema version.
	Cycles int `json:"cycles,omitempty"`
	// Degradations lists the graceful-degradation fallbacks the run took;
	// empty (and omitted) on a clean run. A degraded result is valid and
	// balanced but may have a worse cut than a clean run would produce.
	Degradations []Degradation `json:"degradations,omitempty"`
	ElapsedNS    int64         `json:"elapsed_ns,omitempty"`
}

// OrderResponse is the result object of a nested-dissection ordering.
type OrderResponse struct {
	Kind          string `json:"kind"`
	SchemaVersion int    `json:"schema_version"`
	Vertices      int    `json:"vertices"`
	Edges         int    `json:"edges"`
	// Perm[i] is the vertex eliminated i-th; Iperm is its inverse.
	Perm      []int          `json:"perm"`
	Iperm     []int          `json:"iperm"`
	Analysis  *OrderingStats `json:"analysis,omitempty"`
	ElapsedNS int64          `json:"elapsed_ns,omitempty"`
}

// RepartitionResponse is the result object of an adaptive repartition.
type RepartitionResponse struct {
	Kind           string `json:"kind"`
	SchemaVersion  int    `json:"schema_version"`
	Vertices       int    `json:"vertices"`
	Edges          int    `json:"edges"`
	K              int    `json:"k"`
	EdgeCut        int    `json:"edge_cut"`
	PartWeights    []int  `json:"part_weights"`
	Where          []int  `json:"where"`
	MigratedWeight int    `json:"migrated_weight"`
	ElapsedNS      int64  `json:"elapsed_ns,omitempty"`
}

// ErrorResponse is the body of every non-2xx daemon reply.
type ErrorResponse struct {
	Kind          string `json:"kind"`
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
}

// JobResponse describes an asynchronous job's state. POST /v1/jobs
// returns it with 202 Accepted; GET /v1/jobs/{id} returns it while the
// job is active or canceled. Once the job is terminal with a result,
// GET replays the stored wire body (a PartitionResponse, OrderResponse,
// RepartitionResponse or ErrorResponse — byte-identical to what the
// synchronous endpoint would have sent) instead, tagged with an
// X-Job-State header. Additive type, same schema version.
type JobResponse struct {
	Kind          string `json:"kind"` // WireKindJob
	SchemaVersion int    `json:"schema_version"`
	// ID is the job's identifier, unique within one daemon boot.
	ID string `json:"id"`
	// Type is the computation kind: JobTypePartition, JobTypeOrder or
	// JobTypeRepartition.
	Type string `json:"type"`
	// State is one of the JobState constants.
	State string `json:"state"`
	// Coalesced is true when this submission matched an already-active
	// identical job and shares its execution (and id).
	Coalesced bool `json:"coalesced,omitempty"`
	// RetryAfterMS is the server's polling hint: wait at least this long
	// before the next GET. Present only while the job is active.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Error is the short failure text of a failed or canceled job.
	Error string `json:"error,omitempty"`
}

// BatchJob is one entry of a BatchRequest. Type selects the computation
// and exactly one of the matching request fields must be set.
type BatchJob struct {
	// Type is JobTypePartition (default when empty), JobTypeOrder or
	// JobTypeRepartition.
	Type        string              `json:"type,omitempty"`
	Partition   *PartitionRequest   `json:"partition,omitempty"`
	Order       *OrderRequest       `json:"order,omitempty"`
	Repartition *RepartitionRequest `json:"repartition,omitempty"`
}

// BatchRequest submits many jobs in one POST /v1/jobs/batch call,
// amortizing per-request ingest and admission overhead. Jobs are
// admitted independently: a full store sheds individual entries (their
// BatchResponse slot carries the error) without failing the batch.
type BatchRequest struct {
	Jobs []BatchJob `json:"jobs"`
}

// BatchResponse is the reply to a batch submission: one entry per
// submitted job, in request order.
type BatchResponse struct {
	Kind          string `json:"kind"` // WireKindBatch
	SchemaVersion int    `json:"schema_version"`
	// Jobs[i] describes the i-th submission. A shed or invalid entry has
	// an empty ID and a non-empty Error.
	Jobs []JobResponse `json:"jobs"`
}

// Delta op names for SessionDeltaRequest entries.
const (
	// DeltaOpAdd inserts the undirected edge (U,V) with weight W, or
	// reweights it if present.
	DeltaOpAdd = "add"
	// DeltaOpRemove deletes the undirected edge (U,V); it must exist.
	DeltaOpRemove = "remove"
	// DeltaOpVwgt sets vertex U's weight to W.
	DeltaOpVwgt = "vwgt"
)

// DeltaOp is one graph mutation inside a session delta batch.
type DeltaOp struct {
	// Op is DeltaOpAdd, DeltaOpRemove or DeltaOpVwgt.
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v,omitempty"`
	W  int    `json:"w,omitempty"`
}

// SessionCreateRequest registers a resident graph session via
// POST /v1/graphs (JSON form; the csrb form ships the graph as the body
// with k/seed/ubfactor in the query string). The session id is the
// graph's content fingerprint, so identical graphs collide (409) rather
// than duplicate.
type SessionCreateRequest struct {
	Graph WireGraph `json:"graph"`
	K     int       `json:"k"`
	// Seed fixes every repair of this session deterministically (crash
	// recovery replays repairs with it).
	Seed int64 `json:"seed,omitempty"`
	// Ubfactor is the balance target (0 means 1.05).
	Ubfactor float64 `json:"ubfactor,omitempty"`
}

// SessionDeltaRequest applies one atomic batch of graph mutations via
// POST /v1/graphs/{id}/edges. The server bounds len(Ops); oversized
// batches get 413.
type SessionDeltaRequest struct {
	Ops []DeltaOp `json:"ops"`
}

// SessionRepairRequest asks for an explicit repartition of a session
// via POST /v1/graphs/{id}/repartition. Mode is "auto" (or empty) for
// the drift ladder's choice, or "boundary", "full", "vcycle" to force a
// tier; like every algorithm name, modes are case-insensitive.
type SessionRepairRequest struct {
	Mode string `json:"mode,omitempty"`
}

// SessionResponse describes a resident graph session. Where is present
// on GET ?where=true and on repartition replies.
type SessionResponse struct {
	Kind          string `json:"kind"` // WireKindSession
	SchemaVersion int    `json:"schema_version"`
	// ID is the session id ("g" + 16 hex digits of the fingerprint).
	ID          string  `json:"id"`
	Vertices    int     `json:"vertices"`
	Edges       int     `json:"edges"`
	K           int     `json:"k"`
	EdgeCut     int     `json:"edge_cut"`
	BaselineCut int     `json:"baseline_cut"`
	Balance     float64 `json:"balance"`
	PartWeights []int   `json:"part_weights,omitempty"`
	Where       []int   `json:"where,omitempty"`
	// Seq is the session's durable sequence number (delta batches plus
	// explicit repairs).
	Seq uint64 `json:"seq"`
	// Deltas is the number of delta batches applied this residency.
	Deltas int64 `json:"deltas"`
	// ResidentBytes is the session's estimated memory footprint.
	ResidentBytes int64 `json:"resident_bytes"`
	// LastRepair names the tier of the most recent successful repair:
	// "none", "boundary", "full" or "vcycle".
	LastRepair string `json:"last_repair"`
	// RepairFailed reports the most recent repair attempt failed and its
	// drift is still pending.
	RepairFailed bool `json:"repair_failed,omitempty"`
	// Recovered reports this session was rebuilt from the state dir.
	Recovered bool `json:"recovered,omitempty"`
	// Degraded reports recovery could not verify the delta log and fell
	// back to a fresh V-cycle.
	Degraded bool `json:"degraded,omitempty"`
}

// SessionListResponse is the reply to GET /v1/graphs.
type SessionListResponse struct {
	Kind          string            `json:"kind"` // WireKindSessionList
	SchemaVersion int               `json:"schema_version"`
	Sessions      []SessionResponse `json:"sessions"`
}

// SchemeCapability describes one coarsening scheme in a
// CapabilitiesResponse: the canonical name clients should send, a one-line
// description, and the scheme family (FamilyMatching or FamilyAggregation).
type SchemeCapability struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Family      string `json:"family"`
}

// CapabilitiesResponse is the reply to GET /v1/capabilities: the server's
// supported algorithm names, so SDK clients discover valid option values
// instead of hardcoding strings. Additive type, same schema version.
type CapabilitiesResponse struct {
	Kind          string `json:"kind"` // WireKindCapabilities
	SchemaVersion int    `json:"schema_version"`
	// CoarseningSchemes lists the values CoarseningOptions.Scheme (and the
	// deprecated Options.Matching alias) accepts, with family metadata.
	CoarseningSchemes []SchemeCapability `json:"coarsening_schemes"`
	// InitMethods lists the Options.InitPart values.
	InitMethods []string `json:"init_methods"`
	// Refinements lists the Options.Refinement values.
	Refinements []string `json:"refinements"`
	// Presets lists the Options.Preset values.
	Presets []string `json:"presets"`
	// Orderings lists the Options.Ordering values ("" also means
	// OrderingNone).
	Orderings []string `json:"orderings"`
	// Workloads lists the names GenerateWorkload accepts.
	Workloads []string `json:"workloads"`
	// FaultSites lists the named fault-injection sites (operator surface;
	// fault plans never cross the wire, but ops tooling introspects them).
	FaultSites []string `json:"fault_sites"`
}

// NewCapabilitiesResponse builds the capabilities document from the name
// tables the engine itself parses names against, so the endpoint lists
// exactly what the server accepts.
func NewCapabilitiesResponse() *CapabilitiesResponse {
	infos := CoarseningSchemes()
	schemes := make([]SchemeCapability, len(infos))
	for i, info := range infos {
		schemes[i] = SchemeCapability{
			Name:        info.Name,
			Description: info.Description,
			Family:      info.Family,
		}
	}
	return &CapabilitiesResponse{
		Kind:              WireKindCapabilities,
		SchemaVersion:     SchemaVersion,
		CoarseningSchemes: schemes,
		InitMethods:       initpart.MethodNames(),
		Refinements:       refine.PolicyNames(),
		Presets:           multilevel.PresetNames(),
		Orderings:         graph.OrderingNames(),
		Workloads:         WorkloadNames(),
		FaultSites:        FaultSites(),
	}
}
