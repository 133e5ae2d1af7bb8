// Package kway holds the k-way partition state shared by direct k-way
// refinement and repartitioning: the partition vector with incremental
// part weights and cut (Partition), and migration-aware rebalancing of an
// existing partition to new vertex weights (Rebalance). The refinement
// kernel itself is refine.RefineKWay, the boundary k-way engine. The paper
// produces k-way partitions by recursive bisection (§2); refining and
// rebalancing a k-way partition directly is the extension its authors
// pursued in the follow-up METIS work.
package kway

import "mlpart/internal/graph"

// Partition is k-way partition state with incremental part weights and cut.
type Partition struct {
	G     *graph.Graph
	K     int
	Where []int
	Pwgt  []int
	Cut   int
}

// NewPartition builds refinement state for an existing partition vector.
// where is retained, not copied.
func NewPartition(g *graph.Graph, k int, where []int) *Partition {
	p := &Partition{G: g, K: k, Where: where, Pwgt: make([]int, k)}
	for v := 0; v < g.NumVertices(); v++ {
		p.Pwgt[where[v]] += g.Vwgt[v]
	}
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if where[u] != where[v] {
				p.Cut += wgt[i]
			}
		}
	}
	p.Cut /= 2
	return p
}
