package graph_test

import (
	"testing"

	"mlpart/internal/matgen"
)

// BenchmarkPartSubgraph extracts one half of the 27k-vertex FE3D mesh,
// split by vertex number, without a workspace, as nested dissection, the
// Chaco-ML baseline and spectral MSB do at every split.
func BenchmarkPartSubgraph(b *testing.B) {
	g := matgen.FE3DTetra(30, 30, 30, 3)
	where := make([]int, g.NumVertices())
	for v := range where {
		where[v] = 2 * v / len(where)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sub, _ := g.PartSubgraph(where, 0); sub.NumVertices() != len(where)/2 {
			b.Fatalf("half has %d vertices", sub.NumVertices())
		}
	}
}
