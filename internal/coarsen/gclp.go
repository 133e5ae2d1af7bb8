package coarsen

// GCLP: size-constrained label-propagation clustering, the aggregation
// counterpart of the paper's pairwise matchings. Every vertex starts as its
// own cluster; each round, every vertex proposes to join the neighboring
// cluster it is most heavily connected to (subject to the cluster weight
// cap), and the proposals commit serially in a seeded random order against
// live cluster weights. Contracting whole clusters instead of matched pairs
// is what keeps power-law graphs shrinking: a maximal matching pairs a hub
// with one leaf and strands the rest, while a cluster absorbs leaves up to
// the weight cap every level.
//
// Determinism: the propose phase reads only the previous round's labels and
// weights, so chunking it across any number of workers cannot change any
// proposal; the commit phase is serial in a fixed permutation. The clustering
// is therefore bit-identical for every worker count, including one
// (Options.Workers).

import (
	"math/rand"
	"sync"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/workspace"
)

// defaultLPRounds bounds GCLP's propose/commit rounds per level when
// Options.LPRounds is unset. Propagation usually converges (no moves) in
// fewer; the bound only matters on adversarial oscillating structures.
const defaultLPRounds = 8

// lpConfig carries the resolved GCLP knobs into clusterLPWS.
type lpConfig struct {
	// maxWeight caps one cluster's total vertex weight (>= 1).
	maxWeight int
	// rounds bounds the propose/commit rounds (>= 1).
	rounds int
	// workers chunks the propose phase; it never changes the result.
	workers int
}

// clusterLPWS groups g's vertices into weight-capped clusters by label
// propagation and returns the dense cluster map (cmap[v] in [0,cn), pooled
// from ws) plus the cluster count. respect, when non-nil, confines every
// cluster to one group, exactly like MatchWS: a vertex only ever adopts a
// label held by a same-group neighbor, so by induction clusters never cross
// groups and an existing partition projects onto the contraction at its
// exact cut.
func clusterLPWS(g *graph.Graph, respect []int, cfg lpConfig, rng *rand.Rand, ws *workspace.Workspace) ([]int, int) {
	n := g.NumVertices()
	workers := cfg.workers
	if workers < 1 {
		workers = 1
	}
	if workers > n/1024+1 {
		workers = n/1024 + 1
	}

	// label[v] names v's cluster by founding vertex id; cwgt/csize track
	// the live weight and population of cluster ids.
	label := ws.Int(n)
	cwgt := ws.Int(n)
	csize := ws.Int(n)
	for v := 0; v < n; v++ {
		label[v] = v
		cwgt[v] = g.Vwgt[v]
		csize[v] = 1
	}
	proposal := ws.Int(n)
	order := workspace.PermInto(rng, n, ws.Int(n))

	// Per-worker scratch: conn accumulates this vertex's edge weight toward
	// each touched label, touched remembers which entries to reset.
	conns := make([][]int, workers)
	toucheds := make([][]int, workers)
	for w := 0; w < workers; w++ {
		conns[w] = ws.IntFilled(n, 0)
		toucheds[w] = ws.Int(n)
	}

	// proposeOne picks the label u should move to, or -1 to stay: the
	// neighboring cluster with the highest connectivity that is strictly
	// better than u's current cluster and has room under the weight cap,
	// ties to the smallest label id. It reads only the snapshot state of
	// the round, never commit-phase mutations.
	proposeOne := func(u int, conn, touched []int) int {
		adj := g.Neighbors(u)
		wgt := g.EdgeWeights(u)
		cur := label[u]
		nt := 0
		for i, v := range adj {
			if v == u {
				continue
			}
			if respect != nil && respect[v] != respect[u] {
				continue
			}
			l := label[v]
			if conn[l] == 0 {
				touched[nt] = l
				nt++
			}
			conn[l] += wgt[i]
		}
		vw := g.Vwgt[u]
		best, bestW := -1, conn[cur]
		for t := 0; t < nt; t++ {
			l := touched[t]
			if l == cur {
				continue
			}
			w := conn[l]
			if w < bestW || (w == bestW && (best < 0 || l >= best)) {
				continue
			}
			if cwgt[l]+vw > cfg.maxWeight {
				continue
			}
			best, bestW = l, w
		}
		for t := 0; t < nt; t++ {
			conn[touched[t]] = 0
		}
		return best
	}

	// Worker panics must not kill the process (recover never runs on a
	// foreign goroutine); capture the first one and re-raise it on the
	// calling goroutine, inside the engine's recovery boundary.
	var (
		panicMu  sync.Mutex
		panicked *faults.PanicError
	)
	proposeAll := func() {
		if workers == 1 {
			for u := 0; u < n; u++ {
				proposal[u] = proposeOne(u, conns[0], toucheds[0])
			}
			return
		}
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
			go func(w, lo, hi int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						pe := faults.AsPanic("coarsen/gclp", r)
						panicMu.Lock()
						if panicked == nil {
							panicked = pe
						}
						panicMu.Unlock()
					}
				}()
				for u := lo; u < hi; u++ {
					proposal[u] = proposeOne(u, conns[w], toucheds[w])
				}
			}(w, lo, hi)
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}

	for round := 0; round < cfg.rounds; round++ {
		proposeAll()
		// Serial commit in the seeded permutation, re-checked against live
		// weights. Joining a cluster whose members have all since left is
		// refused: in the symmetric two-singleton case both vertices
		// propose each other's label, and without this check the commits
		// would swap labels forever instead of merging.
		moved := 0
		for _, u := range order {
			t := proposal[u]
			if t < 0 || t == label[u] {
				continue
			}
			if csize[t] == 0 || cwgt[t]+g.Vwgt[u] > cfg.maxWeight {
				continue
			}
			old := label[u]
			cwgt[old] -= g.Vwgt[u]
			csize[old]--
			cwgt[t] += g.Vwgt[u]
			csize[t]++
			label[u] = t
			moved++
		}
		if moved == 0 {
			break
		}
	}

	// Densify: renumber surviving labels to [0,cn) in first-member order,
	// rewriting label in place into the cluster map.
	remap := ws.IntFilled(n, -1)
	cn := 0
	for v := 0; v < n; v++ {
		l := label[v]
		if remap[l] < 0 {
			remap[l] = cn
			cn++
		}
		label[v] = remap[l]
	}
	ws.PutInt(remap)
	for w := 0; w < workers; w++ {
		ws.PutInt(conns[w])
		ws.PutInt(toucheds[w])
	}
	ws.PutInt(order)
	ws.PutInt(proposal)
	ws.PutInt(csize)
	ws.PutInt(cwgt)
	return label, cn
}

// ContractClustersWS builds the next-coarser graph induced by an
// arbitrary-size clustering, the aggregation counterpart of ContractWS:
// multinode weights are the sums of their members, parallel edges collapse
// by summing weights, and intra-cluster edges vanish — so a partition of
// the coarse graph keeps exactly the fine partition's cut. cmap must map
// every vertex to a cluster in [0,cn), numbered in first-member order as
// clusterLPWS numbers them. It returns the coarse graph and the coarse
// contracted-edge-weight array (member cews plus the weight of the edges
// internal to each cluster); cew may be nil, meaning all-zero. The
// returned arrays come from ws (a nil ws allocates) and are exact-size.
func ContractClustersWS(g *graph.Graph, cmap []int, cn int, cew []int, ws *workspace.Workspace) (*graph.Graph, []int) {
	next := clusterChain(cmap, cn, ws)
	cg, ccew := contract(g, cmap, cn, next, cew, ws)
	ws.PutInt(next)
	return cg, ccew
}

// clusterChain links each cluster's members in ascending order, the member
// chain contract walks: next[v] is the next larger vertex in v's cluster,
// or -1. The chain comes from ws.
func clusterChain(cmap []int, cn int, ws *workspace.Workspace) []int {
	next := ws.Int(len(cmap))
	last := ws.IntFilled(cn, -1)
	for v, c := range cmap {
		if l := last[c]; l >= 0 {
			next[l] = v
		}
		last[c] = v
		next[v] = -1
	}
	ws.PutInt(last)
	return next
}
