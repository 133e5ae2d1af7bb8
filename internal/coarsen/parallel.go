package coarsen

import (
	"math/rand"
	"runtime"
	"sync"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/workspace"
)

// ParallelMatchWS computes a maximal matching with the handshake algorithm,
// which parallelizes across workers and returns the same matching for any
// worker count: in each round every unmatched vertex proposes to its
// preferred unmatched neighbor (per the scheme's criterion, with ties
// broken by vertex index), and mutual proposals become matches. The paper
// notes that "the coarsening phase of these methods is easy to
// parallelize" in contrast to Kernighan-Lin refinement; this function is
// that observation realized for shared memory.
//
// rnd supplies the random visit keys that keep the matching unbiased;
// workers <= 0 selects GOMAXPROCS. The result maps each vertex to its
// partner (itself when unmatched), exactly like MatchWS.
//
// Its scratch and the returned matching come from ws; the caller releases
// the result with ws.PutInt once contracted. A nil ws allocates. respect,
// when non-nil, restricts the matching to pairs inside one group, exactly
// like MatchWS: partition-respecting coarsening for iterated cycles.
func ParallelMatchWS(g *graph.Graph, scheme Scheme, cew, respect []int, rnd *rand.Rand, workers int, ws *workspace.Workspace) []int {
	n := g.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n/1024+1 {
		workers = n/1024 + 1
	}
	match := ws.Int(n)
	// Random keys decide proposal preference among equal candidates, so
	// the matching does not systematically favor low vertex indices.
	key := ws.Int64(n)
	for i := range match {
		match[i] = -1
		key[i] = rnd.Int63()
	}
	proposal := ws.Int(n)

	// propose computes the preferred unmatched neighbor of u under the
	// scheme, or -1.
	propose := func(u int) int {
		adj := g.Neighbors(u)
		wgt := g.EdgeWeights(u)
		pick := -1
		switch scheme {
		case RM:
			// Deterministic "random": smallest key among unmatched.
			var best int64
			for _, v := range adj {
				if respect != nil && respect[v] != respect[u] {
					continue
				}
				if match[v] < 0 && v != u && (pick < 0 || key[v] < best) {
					best = key[v]
					pick = v
				}
			}
		case HEM:
			best, bestKey := -1, int64(0)
			for i, v := range adj {
				if match[v] >= 0 || (respect != nil && respect[v] != respect[u]) {
					continue
				}
				if wgt[i] > best || (wgt[i] == best && key[v] < bestKey) {
					best, bestKey, pick = wgt[i], key[v], v
				}
			}
		case LEM:
			best, bestKey := int(^uint(0)>>1), int64(0)
			for i, v := range adj {
				if match[v] >= 0 || (respect != nil && respect[v] != respect[u]) {
					continue
				}
				if wgt[i] < best || (wgt[i] == best && key[v] < bestKey) {
					best, bestKey, pick = wgt[i], key[v], v
				}
			}
		case HCM:
			best, bestKey := -1.0, int64(0)
			for i, v := range adj {
				if match[v] >= 0 || (respect != nil && respect[v] != respect[u]) {
					continue
				}
				d := mergedDensity(g, cew, u, v, wgt[i])
				if d > best || (d == best && key[v] < bestKey) {
					best, bestKey, pick = d, key[v], v
				}
			}
		}
		return pick
	}

	// A panic in a worker goroutine would kill the process (no recover
	// runs on foreign goroutines), so each worker captures its panic and
	// parallelFor re-raises the first one on the calling goroutine, where
	// the engine's recovery boundary can turn it into an error.
	var (
		panicMu  sync.Mutex
		panicked *faults.PanicError
	)
	parallelFor := func(f func(lo, hi int)) {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						pe := faults.AsPanic("coarsen/parallel-match", r)
						panicMu.Lock()
						if panicked == nil {
							panicked = pe
						}
						panicMu.Unlock()
					}
				}()
				f(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}

	// Handshake rounds. Each round reads only the previous round's match
	// state, so it is race-free and independent of scheduling. A bounded
	// number of rounds captures almost all of the maximal matching; a
	// final sequential sweep matches any stragglers so maximality holds
	// exactly (the sweep touches only leftovers, typically a few percent).
	for round := 0; round < 4; round++ {
		parallelFor(func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if match[u] < 0 {
					proposal[u] = propose(u)
				} else {
					proposal[u] = -1
				}
			}
		})
		matched := 0
		// Commit mutual proposals; sequential but O(n) with trivial work.
		for u := 0; u < n; u++ {
			v := proposal[u]
			if v > u && proposal[v] == u {
				match[u] = v
				match[v] = u
				matched++
			}
		}
		if matched == 0 {
			break
		}
	}
	// Sequential cleanup for maximality.
	for u := 0; u < n; u++ {
		if match[u] >= 0 {
			continue
		}
		if pick := propose(u); pick >= 0 {
			match[u] = pick
			match[pick] = u
		} else {
			match[u] = u
		}
	}
	ws.PutInt64(key)
	ws.PutInt(proposal)
	return match
}

// ParallelCoarsen builds the hierarchy like Coarsen but computes each
// level's matching with ParallelMatchWS. The result is identical for any
// worker count, but differs from Coarsen's sequential matching order —
// except under GCLP, whose propose-parallel/commit-serial rounds make
// ParallelCoarsen bit-identical to Coarsen for every worker count as long
// as GCLP is active (once a stall falls back to HEM, each path uses its own
// HEM matcher again). Stall handling itself matches Coarsen's.
func ParallelCoarsen(g *graph.Graph, opts Options, rnd *rand.Rand, workers int) *Hierarchy {
	return buildHierarchy(g, opts, rnd, workers, func(cur *graph.Graph, scheme Scheme, cew, respect []int) []int {
		return ParallelMatchWS(cur, scheme, cew, respect, rnd, workers, opts.Workspace)
	})
}
