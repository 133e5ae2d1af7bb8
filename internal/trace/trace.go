// Package trace defines the observability layer of the multilevel engine:
// typed per-level events emitted during coarsening, initial partitioning,
// refinement and projection, the Tracer contract that receives them, and
// the Counters that aggregate event totals into multilevel.Stats.
//
// The paper's §4 analysis (Figures 2–5, Tables 2–4) reasons about
// per-level behavior — the matching rate of each coarsening step, the cut
// after each projection, the moves of each refinement pass — and this
// package is the channel through which the engine exposes exactly those
// quantities. A nil Tracer costs nothing: every emission site is guarded,
// and results are bit-identical with or without one.
package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// Kind discriminates the event types of the engine's V-cycle.
type Kind string

const (
	// KindLevel reports a hierarchy level: the finest graph (level 0) at
	// the start of coarsening, then one event per contraction with the
	// vertex/edge counts of the new level and the matching rate that
	// produced it.
	KindLevel Kind = "level"
	// KindInitial reports the coarsest-graph partition: the cut, the
	// algorithm and the number of trials.
	KindInitial Kind = "initial"
	// KindPass reports one refinement pass (2-way FM or boundary k-way):
	// moves made, moves with positive gain, and the resulting cut.
	KindPass Kind = "refine_pass"
	// KindProject reports a projection to a finer level and the cut the
	// finer level starts from (unchanged by projection, by the contraction
	// invariant).
	KindProject Kind = "project"
	// KindPhase reports the total wall time of one phase ("coarsen",
	// "initial", "refine", "project") at the end of a V-cycle.
	KindPhase Kind = "phase"
	// KindCycle reports one completed multilevel cycle of an iterated
	// (eco/strong preset) run: the cycle index, the edge-cut it achieved
	// and its wall time. Single-cycle (fast) runs emit no cycle events.
	KindCycle Kind = "cycle"
	// KindDegraded reports a graceful-degradation fallback: a phase
	// algorithm failed (or was failed by the fault injector) and a
	// cheaper substitute produced the result instead — SBP falling back
	// to GGGP, HCM matching retried as HEM, a refinement failure keeping
	// the projected partition. The event carries the same fields as the
	// Degradation record surfaced in Stats.Degradations.
	KindDegraded Kind = "degraded"
	// KindJob reports an asynchronous job lifecycle transition in the
	// service daemon: Phase carries the transition ("submitted",
	// "started", "done", "failed", "canceled"), Job the job id, and
	// ElapsedNS the time spent in the preceding state. Engine-internal
	// events from the job's computation interleave with the job events
	// when the submission requested tracing.
	KindJob Kind = "job"
	// KindSession reports a resident graph session transition in the
	// service daemon: Phase carries the transition ("created",
	// "recovered", "delta", "repair", "evicted", "deleted"), Session the
	// session id, Algorithm the repair tier that ran ("boundary", "full",
	// "vcycle") when one did, Cut the session's edge-cut after the
	// transition and ElapsedNS the wall time of the step.
	KindSession Kind = "session"
)

// Degradation records one graceful fallback taken during a run: which
// phase degraded, what it fell back from and to, at which hierarchy
// level, and why. The engine surfaces these in Stats.Degradations (and
// the wire schema forwards them) so callers can tell a degraded answer
// from a clean one.
type Degradation struct {
	// Phase is the V-cycle phase that degraded: "coarsen", "initpart",
	// "refine" or "kway".
	Phase string `json:"phase"`
	// From is the algorithm that failed ("SBP", "HCM", "BKLGR", ...).
	From string `json:"from"`
	// To is the substitute that produced the result ("GGGP", "HEM",
	// "projected", ...).
	To string `json:"to"`
	// Level is the hierarchy level at which the fallback happened.
	Level int `json:"level"`
	// Reason is the failure that forced the fallback.
	Reason string `json:"reason,omitempty"`
}

// Event is one observation from the engine. Which fields are meaningful
// depends on Kind (see docs/OBSERVABILITY.md for the schema); zero-valued
// optional fields are omitted from the JSON encoding.
type Event struct {
	Kind Kind `json:"kind"`
	// Level is the hierarchy level the event concerns; 0 is the finest
	// (original) graph, higher levels are coarser.
	Level int `json:"level"`
	// Seed identifies the bisection that emitted the event: recursive
	// k-way partitioning runs one V-cycle per bisection, each with its own
	// derived seed, and events from concurrent branches interleave.
	Seed int64 `json:"seed,omitempty"`

	Vertices int `json:"vertices,omitempty"`
	Edges    int `json:"edges,omitempty"`
	// MatchRate is the fraction of the finer level's vertices absorbed
	// into matched pairs by the contraction that built this level.
	MatchRate float64 `json:"match_rate,omitempty"`

	// Cut is the edge-cut after the event (initial partition, refinement
	// pass, or projection).
	Cut int `json:"cut,omitempty"`
	// Pass numbers the refinement passes at one level, starting at 0.
	Pass int `json:"pass,omitempty"`
	// Moves is the number of vertex moves made during a refinement pass
	// (before the losing suffix is undone).
	Moves int `json:"moves,omitempty"`
	// PositiveGainMoves counts the moves whose gain was positive when made.
	PositiveGainMoves int `json:"positive_gain_moves,omitempty"`
	// Boundary is the size of the boundary vertex set at the start of a
	// boundary-restricted refinement pass (BKWAY); 0 for passes that do
	// not track it.
	Boundary int `json:"boundary,omitempty"`

	// Algorithm names the algorithm behind the event ("GGGP", "BKLGR",
	// "BKWAY", ...).
	Algorithm string `json:"algorithm,omitempty"`
	// Trials is the number of trials behind an initial partition.
	Trials int `json:"trials,omitempty"`
	// Cycle is the index (0-based) of the multilevel cycle a KindCycle
	// event reports; cycle 0 is the initial full V-cycle.
	Cycle int `json:"cycle,omitempty"`

	// Phase names the phase of a KindPhase event: "coarsen", "initial",
	// "refine" or "project". KindDegraded events reuse it for the
	// degraded phase.
	Phase string `json:"phase,omitempty"`
	// FallbackTo names the substitute algorithm of a KindDegraded event.
	FallbackTo string `json:"fallback_to,omitempty"`
	// Reason is the failure behind a KindDegraded event.
	Reason string `json:"reason,omitempty"`
	// Job is the job id of a KindJob event.
	Job string `json:"job,omitempty"`
	// Session is the session id of a KindSession event.
	Session string `json:"session,omitempty"`
	// ElapsedNS is the wall time of the step in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
}

// Tracer receives engine events. Implementations must be safe for
// concurrent use: parallel recursion branches and NCuts trials emit
// concurrently.
type Tracer interface {
	Event(Event)
}

// Counters aggregates the event totals that multilevel.Stats reports even
// when no Tracer is installed. The refinement packages increment it
// directly (it is cheaper than emitting events), and Stats embeds it so
// counts sum across recursion branches exactly like the timers.
type Counters struct {
	// RefinePasses is the number of refinement passes run (2-way FM and
	// boundary k-way passes).
	RefinePasses int
	// RefineMoves is the total number of vertex moves made across passes,
	// counting moves later undone by the best-prefix rollback.
	RefineMoves int
	// PositiveGainMoves counts moves whose gain was positive when made.
	PositiveGainMoves int
	// Projections is the number of level-to-level projections performed.
	Projections int
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.RefinePasses += o.RefinePasses
	c.RefineMoves += o.RefineMoves
	c.PositiveGainMoves += o.PositiveGainMoves
	c.Projections += o.Projections
}

// Collector is a Tracer that stores events in memory, in arrival order.
// It is safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Event implements Tracer.
func (c *Collector) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Reset discards the collected events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// JSONTracer is a Tracer that writes one JSON object per line (JSONL) to
// an io.Writer. Writes are serialized with a mutex, so a single JSONTracer
// may back a parallel run.
type JSONTracer struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONTracer returns a JSONTracer writing to w.
func NewJSONTracer(w io.Writer) *JSONTracer {
	return &JSONTracer{enc: json.NewEncoder(w)}
}

// Event implements Tracer.
func (t *JSONTracer) Event(e Event) {
	t.mu.Lock()
	// Encoding errors are unreportable from this interface; observability
	// must never abort the partition itself.
	_ = t.enc.Encode(e)
	t.mu.Unlock()
}

// Multi returns a Tracer forwarding every event to each of the given
// tracers (nils are skipped). A nil result means no non-nil tracer was
// given.
func Multi(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}

// WithSeed returns a Tracer that stamps Seed on every event before
// forwarding to t, identifying which bisection of a recursive run the
// event belongs to. A nil t yields nil.
func WithSeed(t Tracer, seed int64) Tracer {
	if t == nil {
		return nil
	}
	return seedTracer{t: t, seed: seed}
}

type seedTracer struct {
	t    Tracer
	seed int64
}

func (s seedTracer) Event(e Event) {
	e.Seed = s.seed
	s.t.Event(e)
}
