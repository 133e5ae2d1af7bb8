package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates an edge list and produces a validated CSR Graph.
// Duplicate edges are merged by summing their weights; self loops are
// rejected. The zero value is not usable; call NewBuilder.
type Builder struct {
	n     int
	vwgt  []int
	edges []edge
}

type edge struct {
	u, v, w int
}

// NewBuilder returns a Builder for a graph with n vertices, all with
// vertex weight 1 until SetVertexWeight is called.
func NewBuilder(n int) *Builder {
	vwgt := make([]int, n)
	for i := range vwgt {
		vwgt[i] = 1
	}
	return &Builder{n: n, vwgt: vwgt}
}

// SetVertexWeight sets the weight of vertex v. Weights must be positive.
func (b *Builder) SetVertexWeight(v, w int) {
	b.vwgt[v] = w
}

// AddEdge records an undirected edge (u, v) with weight 1. Adding the same
// pair twice accumulates weight.
func (b *Builder) AddEdge(u, v int) {
	b.AddWeightedEdge(u, v, 1)
}

// AddWeightedEdge records an undirected edge (u, v) with weight w.
func (b *Builder) AddWeightedEdge(u, v, w int) {
	b.edges = append(b.edges, edge{u, v, w})
}

// Build produces the CSR graph. It returns an error for out-of-range
// endpoints, self loops, or non-positive weights.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if e.u < 0 || e.u >= b.n || e.v < 0 || e.v >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.u, e.v, b.n)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("graph: self loop at vertex %d", e.u)
		}
		if e.w <= 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has weight %d, want > 0", e.u, e.v, e.w)
		}
	}
	// Canonicalize, sort, and merge duplicates.
	es := make([]edge, len(b.edges))
	for i, e := range b.edges {
		if e.u > e.v {
			e.u, e.v = e.v, e.u
		}
		es[i] = e
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	merged := es[:0]
	for _, e := range es {
		if k := len(merged); k > 0 && merged[k-1].u == e.u && merged[k-1].v == e.v {
			merged[k-1].w += e.w
		} else {
			merged = append(merged, e)
		}
	}

	xadj := make([]int, b.n+1)
	for _, e := range merged {
		xadj[e.u+1]++
		xadj[e.v+1]++
	}
	for i := 0; i < b.n; i++ {
		xadj[i+1] += xadj[i]
	}
	adjncy := make([]int, xadj[b.n])
	adjwgt := make([]int, xadj[b.n])
	pos := make([]int, b.n)
	copy(pos, xadj[:b.n])
	for _, e := range merged {
		adjncy[pos[e.u]], adjwgt[pos[e.u]] = e.v, e.w
		pos[e.u]++
		adjncy[pos[e.v]], adjwgt[pos[e.v]] = e.u, e.w
		pos[e.v]++
	}

	g := &Graph{Xadj: xadj, Adjncy: adjncy, Adjwgt: adjwgt, Vwgt: b.vwgt}
	for _, w := range g.Vwgt {
		if w <= 0 {
			return nil, fmt.Errorf("graph: vertex weight %d, want > 0", w)
		}
	}
	return g, nil
}

// MustBuild is Build but panics on error; intended for tests and generators
// whose inputs are correct by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromCSR wraps pre-built CSR arrays in a Graph after validating them.
// The slices are retained, not copied. vwgt may be nil for unit weights,
// and adjwgt may be nil for unit edge weights. Validation is the binary
// decoder's (validateIngest).
func FromCSR(xadj, adjncy, adjwgt, vwgt []int) (*Graph, error) {
	n := len(xadj) - 1
	if n < 0 {
		return nil, fmt.Errorf("graph: Xadj must have length >= 1")
	}
	if vwgt == nil {
		vwgt = make([]int, n)
		for i := range vwgt {
			vwgt[i] = 1
		}
	}
	if adjwgt == nil {
		adjwgt = make([]int, len(adjncy))
		for i := range adjwgt {
			adjwgt[i] = 1
		}
	}
	g := &Graph{Xadj: xadj, Adjncy: adjncy, Adjwgt: adjwgt, Vwgt: vwgt}
	if err := g.validateIngest(); err != nil {
		return nil, err
	}
	return g, nil
}
