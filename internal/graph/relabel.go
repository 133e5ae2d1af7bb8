package graph

// Locality-aware vertex relabeling. Coarsening and boundary refinement are
// memory-bandwidth-bound traversals of Xadj/Adjncy; relabeling the
// vertices once at ingest so that vertices visited together sit together
// turns scattered reads into streaming ones — the trick behind KaHIP's
// "fast" configurations. The partitioner runs on the permuted graph and
// inverse-maps its outputs, so relabeling never changes what a caller
// sees beyond the cut a different traversal order produces.

import (
	"fmt"

	"mlpart/internal/enum"
)

// Ordering scheme names accepted by RelabelPerm (and, one layer up, by
// mlpart.Options.Ordering).
const (
	// OrderNone leaves the labeling untouched.
	OrderNone = "none"
	// OrderDegree relabels by nondecreasing degree (stable in the original
	// ids): vertices of similar degree — which coarsening's matching
	// sweeps visit with similar frequency — become neighbors in memory.
	OrderDegree = "degree"
	// OrderBFSBlock relabels in breadth-first visitation order from the
	// minimum-degree vertex of each component: each BFS frontier is one
	// contiguous cache block, so an adjacency walk touches consecutive
	// memory.
	OrderBFSBlock = "bfs-block"
)

// orderingNames is the orderings' name table.
var orderingNames = enum.Names[int]{OrderNone, OrderDegree, OrderBFSBlock}

// OrderingNames lists the ordering names.
func OrderingNames() []string { return orderingNames.List() }

// ParseOrdering normalizes (any case) and validates an ordering name; ""
// means OrderNone.
func ParseOrdering(s string) (string, error) {
	if s == "" {
		return OrderNone, nil
	}
	if i, ok := orderingNames.Parse(s); ok {
		return orderingNames[i], nil
	}
	return "", fmt.Errorf("graph: unknown ordering %q (want %v)", s, orderingNames)
}

// RelabelPerm computes the relabeling permutation for the scheme:
// perm[old] = new. OrderNone (and "") returns nil, meaning "no
// relabeling". The permutation is deterministic for a given graph.
func RelabelPerm(g *Graph, scheme string) ([]int, error) {
	scheme, err := ParseOrdering(scheme)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case OrderNone:
		return nil, nil
	case OrderDegree:
		return degreePerm(g), nil
	default:
		return bfsBlockPerm(g), nil
	}
}

// degreePerm is a counting sort of the vertices by degree, stable in the
// original ids. O(n + maxDegree).
func degreePerm(g *Graph) []int {
	n := g.NumVertices()
	maxd := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	count := make([]int, maxd+2)
	for v := 0; v < n; v++ {
		count[g.Degree(v)+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	perm := make([]int, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		perm[v] = count[d]
		count[d]++
	}
	return perm
}

// bfsBlockPerm labels vertices in BFS visitation order, component by
// component, each BFS rooted at the component's minimum-degree vertex
// (lowest id among ties) and expanding neighbors in adjacency order.
func bfsBlockPerm(g *Graph) []int {
	n := g.NumVertices()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	queue := make([]int, 0, n)
	next := 0
	// Roots are tried in min-degree-first order so the sweep starts at a
	// peripheral-ish vertex of every component without a separate
	// pseudo-peripheral search.
	byDegree := degreeOrderVertices(g)
	for _, root := range byDegree {
		if perm[root] >= 0 {
			continue
		}
		perm[root] = next
		next++
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if perm[v] < 0 {
					perm[v] = next
					next++
					queue = append(queue, v)
				}
			}
		}
	}
	return perm
}

// degreeOrderVertices returns the vertex ids sorted by nondecreasing
// degree, stable in the original ids (the inverse view of degreePerm).
func degreeOrderVertices(g *Graph) []int {
	perm := degreePerm(g)
	order := make([]int, len(perm))
	for old, nw := range perm {
		order[nw] = old
	}
	return order
}

// Permute returns a new graph with vertex v relabeled to perm[v]. perm
// must be a permutation of 0..n-1; a nil perm returns g itself. Adjacency
// lists of the new graph preserve the source order of the old lists with
// neighbor ids mapped. Cut, balance and all weights are invariant; only
// the labeling (and therefore memory layout) changes. O(n + m).
func Permute(g *Graph, perm []int) *Graph {
	if perm == nil {
		return g
	}
	n := g.NumVertices()
	inv := make([]int, n) // inv[new] = old
	for old, nw := range perm {
		inv[nw] = old
	}
	xadj := make([]int, n+1)
	for nw := 0; nw < n; nw++ {
		xadj[nw+1] = xadj[nw] + g.Degree(inv[nw])
	}
	adjncy := make([]int, len(g.Adjncy))
	adjwgt := make([]int, len(g.Adjwgt))
	vwgt := make([]int, n)
	for nw := 0; nw < n; nw++ {
		old := inv[nw]
		vwgt[nw] = g.Vwgt[old]
		pos := xadj[nw]
		adj := g.Neighbors(old)
		wgt := g.EdgeWeights(old)
		for i, v := range adj {
			adjncy[pos+i] = perm[v]
			adjwgt[pos+i] = wgt[i]
		}
	}
	return &Graph{Xadj: xadj, Adjncy: adjncy, Adjwgt: adjwgt, Vwgt: vwgt}
}
