// Package graph provides the weighted undirected graph representation used
// throughout the multilevel partitioner. Graphs are stored in compressed
// sparse row (CSR) form — the same layout the METIS family of partitioners
// uses — with integer vertex and edge weights.
//
// A Graph with n vertices and m undirected edges stores each edge twice
// (once per endpoint), so len(Adjncy) == 2*m. For a vertex v, its adjacency
// list is Adjncy[Xadj[v]:Xadj[v+1]] and the matching edge weights are
// Adjwgt[Xadj[v]:Xadj[v+1]].
package graph

import (
	"fmt"
)

// Graph is a weighted undirected graph in CSR (adjacency structure) form.
//
// Invariants (checked by Validate):
//   - len(Xadj) == NumVertices()+1, Xadj[0] == 0, Xadj nondecreasing.
//   - len(Adjncy) == len(Adjwgt) == Xadj[n].
//   - No self loops; every edge (u,v) appears symmetrically with equal weight.
//   - All vertex and edge weights are positive.
type Graph struct {
	// Xadj is the adjacency-list index array, length n+1.
	Xadj []int
	// Adjncy holds the concatenated adjacency lists, length Xadj[n].
	Adjncy []int
	// Adjwgt holds the edge weight for each entry of Adjncy.
	Adjwgt []int
	// Vwgt holds the vertex weights, length n. Callers may mutate weights
	// (e.g. adaptive workloads); no totals are cached.
	Vwgt []int
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int { return len(g.Xadj) - 1 }

// NumEdges returns the number of undirected edges m (each stored twice).
func (g *Graph) NumEdges() int { return len(g.Adjncy) / 2 }

// Degree returns the number of neighbors of vertex v.
func (g *Graph) Degree(v int) int { return g.Xadj[v+1] - g.Xadj[v] }

// Neighbors returns the adjacency list of v as a shared slice; callers must
// not modify it.
func (g *Graph) Neighbors(v int) []int { return g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] }

// EdgeWeights returns the edge weights parallel to Neighbors(v); callers
// must not modify it.
func (g *Graph) EdgeWeights(v int) []int { return g.Adjwgt[g.Xadj[v]:g.Xadj[v+1]] }

// TotalVertexWeight returns the sum of all vertex weights, recomputed on
// every call so that callers may mutate Vwgt between operations.
func (g *Graph) TotalVertexWeight() int {
	s := 0
	for _, w := range g.Vwgt {
		s += w
	}
	return s
}

// MaxVertexWeight returns the weight of the heaviest vertex (0 for an
// empty graph).
func (g *Graph) MaxVertexWeight() int {
	m := 0
	for _, w := range g.Vwgt {
		m = max(m, w)
	}
	return m
}

// TotalEdgeWeight returns the sum of the weights of all undirected edges
// (each edge counted once).
func (g *Graph) TotalEdgeWeight() int {
	s := 0
	for _, w := range g.Adjwgt {
		s += w
	}
	return s / 2
}

// WeightedDegree returns the sum of the weights of the edges incident on v.
func (g *Graph) WeightedDegree(v int) int {
	s := 0
	for _, w := range g.EdgeWeights(v) {
		s += w
	}
	return s
}

// MaxWeightedDegree returns the maximum weighted degree over all vertices,
// which bounds the gain of any single vertex move during refinement.
func (g *Graph) MaxWeightedDegree() int {
	maxd := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.WeightedDegree(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// HasEdge reports whether an edge (u, v) exists. O(Degree(u)).
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge (u, v), or 0 when no such edge
// exists. O(Degree(u)).
func (g *Graph) EdgeWeight(u, v int) int {
	adj := g.Neighbors(u)
	wgt := g.EdgeWeights(u)
	for i, w := range adj {
		if w == v {
			return wgt[i]
		}
	}
	return 0
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		Xadj:   append([]int(nil), g.Xadj...),
		Adjncy: append([]int(nil), g.Adjncy...),
		Adjwgt: append([]int(nil), g.Adjwgt...),
		Vwgt:   append([]int(nil), g.Vwgt...),
	}
}

// String returns a short human-readable summary such as
// "graph{n=1024 m=3968 vwgt=1024 ewgt=3968}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d vwgt=%d ewgt=%d}",
		g.NumVertices(), g.NumEdges(), g.TotalVertexWeight(), g.TotalEdgeWeight())
}

// Validate checks all structural invariants and returns a descriptive error
// for the first violation found, scanning the entries vertex by vertex in
// list order: range, self loop, weight, a neighbour listed twice in one
// list, then symmetry. It is O(n + m): instead of searching v's list for
// its first u for every entry (u,v,w), it transposes the adjacency once, so
// each entry finds that weight in O(1). The transpose costs O(m) scratch;
// the ingest paths check with validateFused, which needs only n bytes, and
// call Validate only to word an error.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: Xadj must have length >= 1")
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if len(g.Vwgt) != n {
		return fmt.Errorf("graph: len(Vwgt) = %d, want n = %d", len(g.Vwgt), n)
	}
	for i := 0; i < n; i++ {
		if g.Xadj[i+1] < g.Xadj[i] {
			return fmt.Errorf("graph: Xadj decreasing at %d", i)
		}
		if g.Vwgt[i] <= 0 {
			return fmt.Errorf("graph: Vwgt[%d] = %d, want > 0", i, g.Vwgt[i])
		}
	}
	if g.Xadj[n] != len(g.Adjncy) {
		return fmt.Errorf("graph: Xadj[n] = %d, want len(Adjncy) = %d", g.Xadj[n], len(g.Adjncy))
	}
	if len(g.Adjwgt) != len(g.Adjncy) {
		return fmt.Errorf("graph: len(Adjwgt) = %d, want %d", len(g.Adjwgt), len(g.Adjncy))
	}
	if len(g.Adjncy)%2 != 0 {
		return fmt.Errorf("graph: odd number of directed edges %d", len(g.Adjncy))
	}

	// The transpose: src[start[u]:start[u+1]] lists the sources v of the
	// entries (v,u,w) in ascending list position, and wgt their weights.
	start := make([]int, n+1)
	for _, u := range g.Adjncy {
		if u >= 0 && u < n {
			start[u+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	src, wgt := make([]int, start[n]), make([]int, start[n])
	next := append([]int(nil), start[:n]...)
	for v := 0; v < n; v++ {
		for j := g.Xadj[v]; j < g.Xadj[v+1]; j++ {
			if u := g.Adjncy[j]; u >= 0 && u < n {
				src[next[u]], wgt[next[u]] = v, g.Adjwgt[j]
				next[u]++
			}
		}
	}

	// While u is scanned, back[v] is the weight of the first u in v's list
	// if seen[v] == u+1; there is no u in v's list otherwise. Stamping the
	// transpose backwards leaves the first entry's weight.
	back, seen := next, make([]int, n)
	listed := make([]bool, n) // the neighbours of u seen so far
	for u := 0; u < n; u++ {
		for i := start[u+1] - 1; i >= start[u]; i-- {
			back[src[i]], seen[src[i]] = wgt[i], u+1
		}
		for j := g.Xadj[u]; j < g.Xadj[u+1]; j++ {
			v, w := g.Adjncy[j], g.Adjwgt[j]
			if v < 0 || v >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if w <= 0 {
				return fmt.Errorf("graph: edge (%d,%d) weight %d, want > 0", u, v, w)
			}
			if listed[v] {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			listed[v] = true
			if seen[v] != u+1 {
				return fmt.Errorf("graph: asymmetric edge (%d,%d): %d vs 0", u, v, w)
			}
			if back[v] != w {
				return fmt.Errorf("graph: asymmetric edge (%d,%d): %d vs %d", u, v, w, back[v])
			}
		}
		for _, v := range g.Adjncy[g.Xadj[u]:g.Xadj[u+1]] {
			listed[v] = false
		}
	}
	return nil
}
