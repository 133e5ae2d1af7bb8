package multilevel

import (
	"fmt"
	"math/rand"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// PartitionKWay computes a k-way partition with the *direct multilevel
// k-way* scheme: the graph is coarsened once, the coarsest graph is split
// into k parts by recursive bisection, and the k-way partition is then
// projected and refined (boundary k-way refinement) at every uncoarsening
// level. Compared with plain recursive bisection — which rebuilds a
// hierarchy for each of the k-1 bisections — this coarsens once, so it is
// substantially faster for large k at comparable quality. This is the
// follow-up direction the paper's authors took after ICPP'95 (k-way
// METIS); it is provided as an extension.
func PartitionKWay(g *graph.Graph, k int, opts Options) (*Result, error) {
	if err := validate(g, k, opts); err != nil {
		return nil, err
	}
	e := newEngine(opts)
	return e.runKWay(g, k)
}

// runKWay is the direct k-way parameterization of the V-cycle, composed
// from the re-enterable phases of cycle.go: one hierarchy (phaseCoarsen),
// a recursive-bisection initial partition on the coarsest graph
// (phaseInitial), and per-level k-way refinement on the shared
// uncoarsening walk (phaseUncoarsenKWay), followed by the extra cycles of
// the eco/strong presets.
func (e *engine) runKWay(g *graph.Graph, k int) (res *Result, err error) {
	// Same outermost panic boundary as run: a poisoned k-way cycle returns
	// an error instead of crashing the caller.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("multilevel: %w", faults.AsPanic("engine/run", r))
		}
	}()
	opts := e.opts
	res = &Result{
		Where:       make([]int, g.NumVertices()),
		PartWeights: make([]int, k),
	}
	if k == 1 || g.NumVertices() == 0 {
		res.EdgeCut = 0
		res.PartWeights[0] = g.TotalVertexWeight()
		res.Stats.Cycles = 1
		return res, nil
	}

	tr := trace.WithSeed(e.tracer, opts.Seed)
	rng := rand.New(rand.NewSource(opts.Seed))
	// The call's arena, shared by the first cycle and the extra cycles and
	// dropped when runKWay returns.
	ws := new(workspace.Workspace)
	h := e.phaseCoarsen(g, e.kwayCoarsenTo(k), nil, rng, ws, tr, &res.Stats)
	emitDegraded(tr, res.Stats.Degradations, 0)
	if e.Stop() {
		h.Release(ws)
		return nil, fmt.Errorf("multilevel: %w", e.Err())
	}

	where, err := e.phaseInitial(h, k, tr, &res.Stats)
	if err != nil {
		h.Release(ws)
		return nil, err
	}

	// Uncoarsen: project the k-way partition and refine at every level.
	// Intermediate where-vectors are pooled; only the finest one is copied
	// into the escaping result.
	where, cut, ok := e.phaseUncoarsenKWay(h, k, where, opts.Seed, ws, &res.Stats, tr)
	if !ok {
		h.Release(ws)
		return nil, fmt.Errorf("multilevel: %w", e.Err())
	}

	copy(res.Where, where)
	ws.PutInt(where)
	h.Release(ws)
	e.iterate(g, k, res, cut, ws)
	for v, part := range res.Where {
		res.PartWeights[part] += g.Vwgt[v]
	}
	res.EdgeCut = refine.ComputeCut(g, res.Where)
	emitPhases(tr, &res.Stats)
	return res, nil
}
