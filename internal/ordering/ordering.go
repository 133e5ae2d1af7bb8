// Package ordering implements the fill-reducing orderings the paper
// evaluates in §4.3: MLND (multilevel nested dissection, the paper's
// contribution applied to ordering) and SND (spectral nested dissection,
// the Pothen-Simon-Wang baseline). Both recursively bisect the graph on
// the multilevel engine's recursion (multilevel.Recursion), derive a
// minimum vertex separator from the edge separator via minimum vertex
// cover, number the separator last, and switch to multiple minimum degree
// on small subgraphs.
package ordering

import (
	"fmt"
	"math/rand"

	"mlpart/internal/graph"
	"mlpart/internal/mmd"
	"mlpart/internal/multilevel"
	"mlpart/internal/spectral"
	"mlpart/internal/vcover"
	"mlpart/internal/workspace"
)

// Options configures nested dissection.
type Options struct {
	// ML configures the dissection as it configures a partition: Seed
	// drives every randomized bisection, Parallel, ParallelDepth and
	// ParallelMinVertices bound the fan-out of independent subgraphs onto
	// goroutines (the result is identical to the sequential run), and
	// Context cancels it. MLND also bisects each subgraph with these
	// options (matching scheme, refinement policy, Tracer, Injector, ...).
	ML multilevel.Options
	// SmallLimit is the subgraph size below which recursion stops and the
	// remainder is ordered with MMD; 0 means 120.
	SmallLimit int
}

// MLND computes a fill-reducing ordering by multilevel nested dissection.
// The result perm satisfies: perm[i] is the vertex eliminated i-th. A
// cancelled opts.ML.Context, an injected fault or a recovered panic is
// returned as the error, with a nil perm.
func MLND(g *graph.Graph, opts Options) ([]int, error) {
	return dissect(g, opts, func(sub *graph.Graph, seed int64, ws *workspace.Workspace) ([]int, error) {
		ml := opts.ML
		ml.Seed = seed
		b, _, err := multilevel.Bisect(sub, 0, ml, rand.New(rand.NewSource(seed)), ws)
		if err != nil {
			return nil, err
		}
		return b.Where, nil
	})
}

// SND computes a fill-reducing ordering by spectral nested dissection,
// using multilevel spectral bisection for each split. A cancelled
// opts.ML.Context or a recovered panic is returned as the error, with a
// nil perm.
func SND(g *graph.Graph, opts Options) ([]int, error) {
	return dissect(g, opts, func(sub *graph.Graph, seed int64, _ *workspace.Workspace) ([]int, error) {
		return spectral.MSBisect(sub, spectral.MSBOptions{}, rand.New(rand.NewSource(seed))), nil
	})
}

// bisector produces a two-way partition vector of sub using seed. ws is
// the scratch arena of the recursion branch it runs on; the vector it
// returns must not belong to it.
type bisector func(sub *graph.Graph, seed int64, ws *workspace.Workspace) ([]int, error)

// dissection is one nested-dissection run: the engine's recursion state
// (fan-out rule, first failure, cancellation) and the elimination order
// its branches fill in, each into a range of out of its own.
type dissection struct {
	rec        *multilevel.Recursion
	bisect     bisector
	smallLimit int
	out        []int
}

// dissect runs the shared nested-dissection recursion.
func dissect(g *graph.Graph, opts Options, bisect bisector) ([]int, error) {
	n := g.NumVertices()
	d := &dissection{
		rec:        multilevel.NewRecursion(opts.ML, "ordering/dissect"),
		bisect:     bisect,
		smallLimit: opts.SmallLimit,
		out:        make([]int, n),
	}
	if d.smallLimit <= 0 {
		d.smallLimit = 120
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	d.rec.Guard(func() { d.recurse(g, ids, opts.ML.Seed, 0, 0, new(workspace.Workspace)) })
	if err := d.rec.Err(); err != nil {
		return nil, fmt.Errorf("ordering: %w", err)
	}
	return d.out, nil
}

// recurse orders the vertices of g (with original ids `ids`) into
// out[offset : offset+len(ids)]: part A first, part B second, separator
// last — so separators at every level are numbered after both halves.
// Subgraphs of at most smallLimit vertices, and those a bisection cannot
// split into two nonempty sides, are ordered with MMD. Every bisection of
// one recursion branch runs in ws.
func (d *dissection) recurse(g *graph.Graph, ids []int, seed int64, offset, depth int, ws *workspace.Workspace) {
	n := g.NumVertices()
	if n == 0 || d.rec.Stop() {
		return
	}
	if n > d.smallLimit {
		where, err := d.bisect(g, seed, ws)
		if err != nil {
			d.rec.Fail(err)
			return
		}
		if d.split(g, ids, where, seed, offset, depth, ws) {
			return
		}
	}
	for i, lv := range mmd.Order(g) {
		d.out[offset+i] = ids[lv]
	}
}

// split turns the bisection where of g into a vertex separator, numbers
// the separator last and recurses on both sides. It reports false, having
// ordered nothing, when one side vanished into the separator (e.g. a
// clique-ish graph), so the caller falls back to MMD to guarantee
// progress.
func (d *dissection) split(g *graph.Graph, ids, where []int, seed int64, offset, depth int, ws *workspace.Workspace) bool {
	_, where3 := vcover.Separator(g, where)
	// Node-FM refinement shrinks the cover further when profitable.
	sep := vcover.RefineSeparator(g, where3, 0)
	subA, l2gA := g.PartSubgraph(where3, vcover.PartA)
	subB, l2gB := g.PartSubgraph(where3, vcover.PartB)
	nA, nB := subA.NumVertices(), subB.NumVertices()
	if nA == 0 || nB == 0 {
		return false
	}
	for i, lv := range l2gA {
		l2gA[i] = ids[lv]
	}
	for i, lv := range l2gB {
		l2gB[i] = ids[lv]
	}
	for i, v := range sep {
		d.out[offset+nA+nB+i] = ids[v]
	}
	seedA, seedB := multilevel.DeriveSeed(seed, 2), multilevel.DeriveSeed(seed, 3)
	d.rec.Fork(depth, g.NumVertices(), ws, func(ws *workspace.Workspace) {
		d.recurse(subA, l2gA, seedA, offset, depth+1, ws)
	}, func(ws *workspace.Workspace) {
		d.recurse(subB, l2gB, seedB, offset+nA, depth+1, ws)
	})
	return true
}
