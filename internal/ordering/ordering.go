// Package ordering implements the fill-reducing orderings the paper
// evaluates in §4.3: MLND (multilevel nested dissection, the paper's
// contribution applied to ordering) and SND (spectral nested dissection,
// the Pothen-Simon-Wang baseline). Both recursively bisect the graph,
// derive a minimum vertex separator from the edge separator via minimum
// vertex cover, number the separator last, and switch to multiple minimum
// degree on small subgraphs.
package ordering

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/mmd"
	"mlpart/internal/multilevel"
	"mlpart/internal/spectral"
	"mlpart/internal/vcover"
	"mlpart/internal/workspace"
)

// Options configures nested dissection.
type Options struct {
	// ML holds the multilevel partitioner configuration used by MLND for
	// each bisection (matching scheme, refinement policy, ...). The Seed
	// field inside is ignored; use Seed below.
	ML multilevel.Options
	// SmallLimit is the subgraph size below which recursion stops and the
	// remainder is ordered with MMD; 0 means 120.
	SmallLimit int
	// Seed drives all randomized bisections deterministically.
	Seed int64
	// Parallel orders independent subgraphs on separate goroutines. The
	// result is identical to the sequential run.
	Parallel bool

	// pbox captures panics raised on dissection goroutines so dissect can
	// re-raise them on the caller's goroutine (set by dissect).
	pbox *panicBox
}

func (o Options) withDefaults() Options {
	if o.SmallLimit <= 0 {
		o.SmallLimit = 120
	}
	return o
}

// cancelled reports whether the context threaded through ML is done.
func (o Options) cancelled() bool {
	return o.ML.Context != nil && o.ML.Context.Err() != nil
}

// MLND computes a fill-reducing ordering by multilevel nested dissection.
// The result perm satisfies: perm[i] is the vertex eliminated i-th.
// A context (and tracer) may be threaded through opts.ML; use MLNDCtx when
// the caller needs the cancellation error.
func MLND(g *graph.Graph, opts Options) []int {
	opts = opts.withDefaults()
	return dissect(g, opts, func(sub *graph.Graph, seed int64, ws *workspace.Workspace) []int {
		rng := rand.New(rand.NewSource(seed))
		mlOpts := opts.ML
		mlOpts.Seed = seed
		b, _ := multilevel.Bisect(sub, 0, mlOpts, rng, ws)
		if b == nil {
			// Context cancelled mid-bisection; the recursion unwinds.
			return nil
		}
		return b.Where
	})
}

// MLNDCtx is MLND with explicit cancellation: ctx is checked at every
// recursion step and level boundary, and a wrapped ctx.Err() is returned
// (with a nil perm) once it fires. With a never-cancelled ctx the ordering
// is identical to MLND's.
func MLNDCtx(ctx context.Context, g *graph.Graph, opts Options) ([]int, error) {
	opts.ML.Context = ctx
	perm := MLND(g, opts)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ordering: %w", err)
	}
	return perm, nil
}

// SND computes a fill-reducing ordering by spectral nested dissection,
// using multilevel spectral bisection for each split.
func SND(g *graph.Graph, opts Options) []int {
	opts = opts.withDefaults()
	return dissect(g, opts, func(sub *graph.Graph, seed int64, _ *workspace.Workspace) []int {
		rng := rand.New(rand.NewSource(seed))
		return spectral.MSBisect(sub, spectral.MSBOptions{}, rng)
	})
}

// bisector produces a two-way partition vector of sub using seed. ws is
// the scratch arena of the recursion branch it runs on; the vector it
// returns must not belong to it.
type bisector func(sub *graph.Graph, seed int64, ws *workspace.Workspace) []int

// panicBox holds the first panic captured on a dissection goroutine. A
// panic cannot be recovered across goroutines, so each parallel branch
// stores it here and dissect re-raises it on the caller's goroutine, where
// the public API's recovery boundary converts it into an error.
type panicBox struct {
	mu sync.Mutex
	pe *faults.PanicError
}

// capture is deferred on every guarded branch.
func (pb *panicBox) capture() {
	if r := recover(); r != nil {
		pe := faults.AsPanic("ordering/dissect", r)
		pb.mu.Lock()
		if pb.pe == nil {
			pb.pe = pe
		}
		pb.mu.Unlock()
	}
}

// panicked reports whether any branch has panicked; recursion stops
// descending once one has.
func (pb *panicBox) panicked() bool {
	if pb == nil {
		return false
	}
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return pb.pe != nil
}

// dissect runs the shared nested-dissection recursion.
func dissect(g *graph.Graph, opts Options, bisect bisector) []int {
	n := g.NumVertices()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	var mu sync.Mutex
	out := make([]int, n)
	opts.pbox = &panicBox{}
	ndRecurse(g, ids, opts, bisect, opts.Seed, out, 0, &mu, 0, new(workspace.Workspace))
	if opts.pbox.pe != nil {
		// All branches have joined; re-raise the captured panic where the
		// caller's recover can see it.
		panic(opts.pbox.pe)
	}
	return out
}

// ndRecurse orders the vertices of g (with original ids `ids`) into
// out[offset : offset+len(ids)]: part A first, part B second, separator
// last — so separators at every level are numbered after both halves.
// Every bisection of one recursion branch runs in ws; a spawned branch
// gets an arena of its own, as in the multilevel engine's recursion.
func ndRecurse(g *graph.Graph, ids []int, opts Options, bisect bisector, seed int64, out []int, offset int, mu *sync.Mutex, depth int, ws *workspace.Workspace) {
	n := g.NumVertices()
	if n == 0 || opts.cancelled() || opts.pbox.panicked() {
		return
	}
	if n <= opts.SmallLimit {
		local := mmd.Order(g)
		mu.Lock()
		for i, lv := range local {
			out[offset+i] = ids[lv]
		}
		mu.Unlock()
		return
	}
	where := bisect(g, seed, ws)
	if where == nil {
		// Bisection abandoned (context cancelled); stop recursing.
		return
	}
	_, where3 := vcover.Separator(g, where)
	// Node-FM refinement shrinks the cover further when profitable.
	sep := vcover.RefineSeparator(g, where3, 0)
	// Degenerate split (e.g. a clique-ish graph where the separator is one
	// whole side): fall back to MMD to guarantee progress.
	if len(sep) == 0 || len(sep) >= n-1 {
		if !progressPossible(n, where3) {
			local := mmd.Order(g)
			mu.Lock()
			for i, lv := range local {
				out[offset+i] = ids[lv]
			}
			mu.Unlock()
			return
		}
	}

	subA, l2gA := g.PartSubgraph(where3, vcover.PartA)
	subB, l2gB := g.PartSubgraph(where3, vcover.PartB)
	if subA.NumVertices() == 0 || subB.NumVertices() == 0 {
		// One side vanished into the separator; avoid infinite recursion.
		local := mmd.Order(g)
		mu.Lock()
		for i, lv := range local {
			out[offset+i] = ids[lv]
		}
		mu.Unlock()
		return
	}
	idsA := make([]int, subA.NumVertices())
	for i, lv := range l2gA {
		idsA[i] = ids[lv]
	}
	idsB := make([]int, subB.NumVertices())
	for i, lv := range l2gB {
		idsB[i] = ids[lv]
	}
	// Separator vertices are numbered last at this level.
	mu.Lock()
	for i, v := range sep {
		out[offset+subA.NumVertices()+subB.NumVertices()+i] = ids[v]
	}
	mu.Unlock()

	seedA := deriveSeed(seed, 2)
	seedB := deriveSeed(seed, 3)
	if opts.Parallel && depth < 4 && n > 2000 {
		// Both branches run guarded so a panic on either side reaches the
		// box instead of unwinding past wg.Wait (which would leak the
		// sibling goroutine, or kill the process on the spawned side).
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer opts.pbox.capture()
			ndRecurse(subA, idsA, opts, bisect, seedA, out, offset, mu, depth+1, new(workspace.Workspace))
		}()
		func() {
			defer opts.pbox.capture()
			ndRecurse(subB, idsB, opts, bisect, seedB, out, offset+subA.NumVertices(), mu, depth+1, ws)
		}()
		wg.Wait()
	} else {
		ndRecurse(subA, idsA, opts, bisect, seedA, out, offset, mu, depth+1, ws)
		ndRecurse(subB, idsB, opts, bisect, seedB, out, offset+subA.NumVertices(), mu, depth+1, ws)
	}
}

// progressPossible reports whether the three-way split actually separates
// two nonempty pieces.
func progressPossible(n int, where3 []int) bool {
	var cnt [3]int
	for _, w := range where3 {
		cnt[w]++
	}
	return cnt[vcover.PartA] > 0 && cnt[vcover.PartB] > 0 && cnt[vcover.PartSep] < n
}

func deriveSeed(seed int64, branch int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(branch)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
