package refine

import (
	"fmt"
	"time"

	"mlpart/internal/enum"
	"mlpart/internal/metrics"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// Policy selects the refinement algorithm run after each projection step
// of the uncoarsening phase.
type Policy int

const (
	// NoRefine disables refinement (used by the paper's Table 3, where the
	// initial partition is projected unchanged).
	NoRefine Policy = iota
	// GR — greedy refinement — is a single Kernighan-Lin pass.
	GR
	// KLR — Kernighan-Lin refinement — iterates passes until no
	// improvement is found.
	KLR
	// BGR — boundary greedy refinement — is a single pass whose priority
	// structure holds only boundary vertices.
	BGR
	// BKLR — boundary Kernighan-Lin refinement — iterates boundary passes
	// until convergence.
	BKLR
	// BKLGR combines BKLR and BGR: BKLR while the boundary of the current
	// graph is small (< 2% of the original vertex count), BGR afterwards.
	BKLGR
	// BKWAY names boundary k-way refinement, the engine of kwayfm.go:
	// greedy moves restricted to an explicitly maintained boundary set,
	// with optionally parallel propose phases. Every k-way refinement runs
	// that engine whatever the policy, and on the 2-way bisection path
	// BKWAY behaves exactly like BKLGR, so the two policies give identical
	// results everywhere; BKWAY stays a valid name for compatibility.
	BKWAY
)

// policyNames is the policies' name table: their abbreviations as used
// in the paper.
var policyNames = enum.Names[Policy]{
	NoRefine: "NONE", GR: "GR", KLR: "KLR", BGR: "BGR", BKLR: "BKLR", BKLGR: "BKLGR", BKWAY: "BKWAY",
}

// String returns the policy's abbreviation as used in the paper.
func (p Policy) String() string { return policyNames.Name(p) }

// Valid reports whether p is one of the defined policies; Refine panics
// on anything else, so user-reachable entry points must gate on this.
func (p Policy) Valid() bool { return policyNames.Valid(p) }

// ParsePolicy converts an abbreviation (any case) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	if p, ok := policyNames.Parse(s); ok {
		return p, nil
	}
	return 0, fmt.Errorf("refine: unknown refinement policy %q (want %v)", s, policyNames)
}

// PolicyNames lists the policies' names in Policy order.
func PolicyNames() []string { return policyNames.List() }

// Options configures refinement.
type Options struct {
	// StopWindow is the paper's x: a pass ends after this many consecutive
	// moves that fail to improve the edge-cut, and those moves are undone.
	// The paper reports x = 50 works well; 0 means 50.
	StopWindow int
	// MaxPasses bounds the iterated policies (KLR, BKLR); 0 means 8.
	MaxPasses int
	// Ubfactor is the allowed imbalance: each part may weigh up to
	// Ubfactor times its target (metrics.PartBounds); metrics.Ubfactor
	// resolves the default.
	Ubfactor float64
	// TargetPwgt gives the desired weight of each part. Zero means an
	// even split of the total.
	TargetPwgt [2]int
	// OrigNvtxs is the vertex count of the original (finest) graph, used
	// by BKLGR's 2% switch rule. 0 means "use the current graph's size".
	OrigNvtxs int
	// Workspace, when non-nil, supplies pooled scratch buffers (gain
	// buckets, lock flags, the move journal) so refinement passes run
	// allocation-free. Results are identical either way.
	Workspace *workspace.Workspace
	// Level is the hierarchy level reported in trace events (engine-set;
	// purely observational).
	Level int
	// Tracer, when non-nil, receives one KindPass event per FM pass.
	// Results are bit-identical with or without a tracer.
	Tracer trace.Tracer
	// Counters, when non-nil, accumulates pass and move totals across
	// calls (the cheap aggregation path used even when Tracer is nil).
	Counters *trace.Counters
}

func (o Options) withDefaults(b *Bisection) Options {
	if o.StopWindow <= 0 {
		o.StopWindow = 50
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 8
	}
	o.Ubfactor = metrics.Ubfactor(o.Ubfactor)
	if o.TargetPwgt[0] == 0 && o.TargetPwgt[1] == 0 {
		tot := b.Pwgt[0] + b.Pwgt[1]
		o.TargetPwgt[0] = tot / 2
		o.TargetPwgt[1] = tot - tot/2
	}
	if o.OrigNvtxs <= 0 {
		o.OrigNvtxs = b.G.NumVertices()
	}
	return o
}

// maxAllowed returns the heaviest each part may become: the imbalance
// tolerance, slackened by the largest vertex weight so that coarse graphs
// (whose multinodes are heavy) are never deadlocked.
func maxAllowed(b *Bisection, o Options) [2]int {
	slack := b.G.MaxVertexWeight()
	return [2]int{
		metrics.PartBounds(o.TargetPwgt[0], o.Ubfactor, slack).Hi,
		metrics.PartBounds(o.TargetPwgt[1], o.Ubfactor, slack).Hi,
	}
}

// Refine runs the given policy on b in place and returns the final cut.
func Refine(b *Bisection, policy Policy, opts Options) int {
	opts = opts.withDefaults(b)
	switch policy {
	case NoRefine:
	case GR:
		fmPass(b, opts, false, 0)
	case KLR:
		iterate(b, opts, false)
	case BGR:
		fmPass(b, opts, true, 0)
	case BKLR:
		iterate(b, opts, true)
	case BKLGR, BKWAY:
		// The hybrid rule from §3.3: precise multi-pass boundary refinement
		// while the boundary is small relative to the original graph,
		// single-pass boundary refinement once it is large. BKWAY names the
		// boundary k-way engine (kwayfm.go), which every k-way refinement
		// runs whatever the policy; on a 2-way bisection it means BKLGR.
		if len(b.Boundary())*50 < opts.OrigNvtxs { // boundary < 2% of original n
			iterate(b, opts, true)
		} else {
			fmPass(b, opts, true, 0)
		}
	default:
		panic(fmt.Sprintf("refine: invalid policy %d", policy))
	}
	return b.Cut
}

// iterate runs passes until one fails to improve the cut, or MaxPasses.
func iterate(b *Bisection, opts Options, boundaryOnly bool) {
	for pass := 0; pass < opts.MaxPasses; pass++ {
		if !fmPass(b, opts, boundaryOnly, pass) {
			break
		}
	}
}

// fmPass runs one Kernighan-Lin / Fiduccia-Mattheyses pass: vertices are
// moved one at a time by maximum gain from the side farther above its
// target weight, the best prefix of the move sequence is kept, and the
// pass ends after StopWindow consecutive non-improving moves (which are
// undone). pass is the 0-based pass number reported in trace events.
// Reports whether the cut improved.
func fmPass(b *Bisection, opts Options, boundaryOnly bool, pass int) bool {
	var t0 time.Time
	if opts.Tracer != nil {
		t0 = time.Now()
	}
	ws := opts.Workspace
	n := b.G.NumVertices()
	var bk0, bk1 GainBuckets
	bk0.Init(n, b.maxDeg, ws)
	bk1.Init(n, b.maxDeg, ws)
	buckets := [2]*GainBuckets{&bk0, &bk1}
	locked := ws.Bool(n)
	limit := maxAllowed(b, opts)

	if boundaryOnly {
		for _, v := range b.Boundary() {
			buckets[b.Where[v]].Insert(v, b.Gain(v))
		}
	} else {
		for v := 0; v < n; v++ {
			buckets[b.Where[v]].Insert(v, b.Gain(v))
		}
	}

	startCut := b.Cut
	bestCut := b.Cut
	bestDiff := balanceDiff(b, opts)
	bestIdx := 0
	// Each vertex is locked after its move, so at most n moves per pass:
	// a pooled length-n buffer never reallocates.
	moved := ws.Int(n)[:0]
	badMoves := 0
	posGain := 0

	onGainChange := func(u int) {
		if locked[u] {
			return
		}
		side := b.Where[u]
		inB := buckets[side].Contains(u)
		if boundaryOnly {
			switch {
			case inB && !b.IsBoundary(u):
				// Left the boundary; no longer a candidate.
				buckets[side].Remove(u)
			case inB:
				buckets[side].Update(u, b.Gain(u))
			case b.IsBoundary(u) && b.Gain(u) > 0:
				// Became a boundary vertex with positive gain (§3.3).
				buckets[side].Insert(u, b.Gain(u))
			}
		} else if inB {
			buckets[side].Update(u, b.Gain(u))
		}
	}

	for {
		// Move from the side farther above its target; fall back to the
		// other side when that bucket is exhausted.
		from := 0
		if b.Pwgt[1]-opts.TargetPwgt[1] > b.Pwgt[0]-opts.TargetPwgt[0] {
			from = 1
		}
		if buckets[from].Empty() {
			from = 1 - from
		}
		v, ok := buckets[from].PopMax()
		if !ok {
			break
		}
		to := 1 - from
		if b.Pwgt[to]+b.G.Vwgt[v] > limit[to] {
			// Too heavy to move; lock it out of this pass.
			locked[v] = true
			continue
		}
		locked[v] = true
		if b.Gain(v) > 0 {
			posGain++
		}
		b.Move(v, onGainChange)
		moved = append(moved, v)

		diff := balanceDiff(b, opts)
		if b.Cut < bestCut || (b.Cut == bestCut && diff < bestDiff) {
			bestCut = b.Cut
			bestDiff = diff
			bestIdx = len(moved)
			badMoves = 0
		} else {
			badMoves++
			if badMoves >= opts.StopWindow {
				break
			}
		}
	}

	nMoves := len(moved)
	// Undo the moves past the best prefix.
	for i := len(moved) - 1; i >= bestIdx; i-- {
		b.Move(moved[i], nil)
	}
	bk0.Free(ws)
	bk1.Free(ws)
	ws.PutBool(locked)
	ws.PutInt(moved)
	if opts.Counters != nil {
		opts.Counters.RefinePasses++
		opts.Counters.RefineMoves += nMoves
		opts.Counters.PositiveGainMoves += posGain
	}
	if opts.Tracer != nil {
		opts.Tracer.Event(trace.Event{
			Kind:              trace.KindPass,
			Level:             opts.Level,
			Pass:              pass,
			Moves:             nMoves,
			PositiveGainMoves: posGain,
			Cut:               b.Cut,
			Algorithm:         "FM",
			ElapsedNS:         time.Since(t0).Nanoseconds(),
		})
	}
	return bestCut < startCut
}

// balanceDiff measures deviation from the target weights.
func balanceDiff(b *Bisection, opts Options) int {
	d := b.Pwgt[0] - opts.TargetPwgt[0]
	if d < 0 {
		d = -d
	}
	return d
}

// ForceBalance moves boundary vertices (best gain first) from the heavy
// side until both parts are within the allowed maximum, ignoring cut
// degradation. It is the safety valve for initial partitions that violate
// the tolerance; refinement proper never unbalances a balanced partition.
func ForceBalance(b *Bisection, opts Options) {
	opts = opts.withDefaults(b)
	limit := maxAllowed(b, opts)
	if b.Pwgt[0] <= limit[0] && b.Pwgt[1] <= limit[1] {
		return
	}
	from := 0
	if b.Pwgt[1] > limit[1] {
		from = 1
	}
	n := b.G.NumVertices()
	var bk GainBuckets
	bk.Init(n, b.maxDeg, opts.Workspace)
	defer bk.Free(opts.Workspace)
	for _, v := range b.Boundary() {
		if b.Where[v] == from {
			bk.Insert(v, b.Gain(v))
		}
	}
	onGainChange := func(u int) {
		if b.Where[u] != from {
			if bk.Contains(u) {
				bk.Remove(u)
			}
			return
		}
		if bk.Contains(u) {
			if b.IsBoundary(u) {
				bk.Update(u, b.Gain(u))
			} else {
				bk.Remove(u)
			}
		} else if b.IsBoundary(u) {
			bk.Insert(u, b.Gain(u))
		}
	}
	for b.Pwgt[from] > limit[from] {
		v, ok := bk.PopMax()
		if !ok {
			// No boundary vertex left on the heavy side (e.g. one part is
			// empty of boundary); move any heavy-side vertex.
			v = -1
			for u := 0; u < n; u++ {
				if b.Where[u] == from {
					v = u
					break
				}
			}
			if v < 0 {
				return
			}
		}
		b.Move(v, onGainChange)
	}
}
