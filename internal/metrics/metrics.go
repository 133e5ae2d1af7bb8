// Package metrics evaluates the quality of a k-way partition beyond the
// raw edge-cut: total and per-part communication volume (what an SpMV
// actually pays, §1 of the paper), boundary sizes, balance, part
// adjacency, and internal connectivity of parts. It is used by the CLI
// tools and examples to report partitions the way practitioners inspect
// them.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"mlpart/internal/graph"
)

// Report summarizes a k-way partition.
type Report struct {
	K int
	// EdgeCut is the total weight of edges crossing parts.
	EdgeCut int
	// CommVolume counts, over all vertices v, the number of distinct
	// remote parts adjacent to v — the words sent per SpMV iteration.
	CommVolume int
	// MaxPartVolume is the largest per-part share of CommVolume (send side).
	MaxPartVolume int
	// BoundaryVertices is the number of vertices with a remote neighbor.
	BoundaryVertices int
	// PartWeights[p] is the vertex weight of part p.
	PartWeights []int
	// Balance is k*max(PartWeights)/total; 1.0 is perfect.
	Balance float64
	// MaxPartDegree is the largest number of distinct neighbor parts over
	// parts (the fan-out of the communication pattern).
	MaxPartDegree int
	// DisconnectedParts counts parts whose induced subgraph is not
	// connected (a red flag for solver workloads).
	DisconnectedParts int
	// EmptyParts counts parts with no vertices.
	EmptyParts int
}

// Balance returns k*max(pwgt)/total for the k = len(pwgt) part weights:
// 1.0 is a perfect balance, larger is worse. A zero total reads as 1.
func Balance(pwgt []int) float64 {
	tot, maxw := 0, 0
	for _, w := range pwgt {
		tot += w
		if w > maxw {
			maxw = w
		}
	}
	if tot == 0 {
		return 1
	}
	return float64(len(pwgt)) * float64(maxw) / float64(tot)
}

// Ubfactor returns the balance tolerance ub runs at: values of 1 or less,
// 0 included, mean 1.05, so exactly 1 does not request perfect balance.
func Ubfactor(ub float64) float64 {
	if ub <= 1 {
		return 1.05
	}
	return ub
}

// ValidateUbfactor rejects a balance tolerance no part-weight bound can
// honor: it must be finite, and either 0 (the default) or at least 1,
// since a part can always hold its target weight. Callers wrap the error
// with the name of their own field.
func ValidateUbfactor(ub float64) error {
	if math.IsNaN(ub) || math.IsInf(ub, 0) {
		return errors.New("want a finite value")
	}
	if ub != 0 && ub < 1 {
		return errors.New("want >= 1 (or 0 for the default 1.05)")
	}
	return nil
}

// Bounds are the lightest and heaviest a part may become.
type Bounds struct{ Lo, Hi int }

// PartBounds returns the part-weight bounds of one level for a part of
// the given target weight under the tolerance ub (as Ubfactor resolves
// it). The upper bound is ub times the target, but never tighter than
// target+slack: refiners pass the heaviest vertex as slack so that heavy
// multinodes on coarse levels stay movable, and the rebalancer passes 1.
// The lower bound is 1: no move may empty a part.
func PartBounds(target int, ub float64, slack int) Bounds {
	return Bounds{Lo: 1, Hi: max(int(ub*float64(target)), target+slack)}
}

// Evaluate computes the Report for a partition vector with parts 0..k-1.
func Evaluate(g *graph.Graph, where []int, k int) (*Report, error) {
	n := g.NumVertices()
	if len(where) != n {
		return nil, fmt.Errorf("metrics: len(where) = %d, want %d", len(where), n)
	}
	if k < 1 {
		return nil, fmt.Errorf("metrics: k = %d", k)
	}
	r := &Report{K: k, PartWeights: make([]int, k)}
	for v := 0; v < n; v++ {
		p := where[v]
		if p < 0 || p >= k {
			return nil, fmt.Errorf("metrics: vertex %d in part %d, want [0,%d)", v, p, k)
		}
		r.PartWeights[p] += g.Vwgt[v]
	}

	// Cut, volumes, boundary, part adjacency.
	partVolume := make([]int, k)
	partNbr := make([]map[int]bool, k)
	for p := range partNbr {
		partNbr[p] = map[int]bool{}
	}
	seen := make([]int, k)
	for i := range seen {
		seen[i] = -1
	}
	for v := 0; v < n; v++ {
		pv := where[v]
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		remote := 0
		for i, u := range adj {
			pu := where[u]
			if pu == pv {
				continue
			}
			r.EdgeCut += wgt[i]
			partNbr[pv][pu] = true
			if seen[pu] != v {
				seen[pu] = v
				remote++
			}
		}
		if remote > 0 {
			r.BoundaryVertices++
			r.CommVolume += remote
			partVolume[pv] += remote
		}
	}
	r.EdgeCut /= 2
	for p := 0; p < k; p++ {
		if partVolume[p] > r.MaxPartVolume {
			r.MaxPartVolume = partVolume[p]
		}
		if d := len(partNbr[p]); d > r.MaxPartDegree {
			r.MaxPartDegree = d
		}
	}

	r.Balance = Balance(r.PartWeights)
	for _, w := range r.PartWeights {
		if w == 0 {
			r.EmptyParts++
		}
	}

	// Per-part connectivity by one BFS sweep per part.
	visited := make([]bool, n)
	var stack []int
	compCount := make([]int, k)
	for v := 0; v < n; v++ {
		if visited[v] {
			continue
		}
		p := where[v]
		compCount[p]++
		visited[v] = true
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if !visited[w] && where[w] == p {
					visited[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	for p := 0; p < k; p++ {
		if compCount[p] > 1 {
			r.DisconnectedParts++
		}
	}
	return r, nil
}

// String renders the report as a short multi-line summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"k=%d edge-cut=%d comm-volume=%d (max/part %d) boundary=%d balance=%.3f max-part-degree=%d disconnected-parts=%d empty-parts=%d",
		r.K, r.EdgeCut, r.CommVolume, r.MaxPartVolume, r.BoundaryVertices,
		r.Balance, r.MaxPartDegree, r.DisconnectedParts, r.EmptyParts)
}
